"""Deterministic multi-worker simulator for distributed optimization with a
slow momentum outer loop, pluggable base optimizers, and gossip / push-sum
communication protocols, plus numerical checkers for the accompanying
convergence guarantee."""

from .base_optimizers import (
    BaseOptimizerConfig,
    OptimizerBuffers,
    apply_buffer_strategy,
    local_direction,
)
from .comm_protocols import (
    DelayModel,
    WorkerStates,
    exact_average,
    make_protocol,
    osgp_step,
)
from .config import (
    ExperimentConfig,
    ProblemConfig,
    build_simulation,
    load_config,
    parse_config,
    resolved_dict,
)
from .errors import ConfigError, NumericalAbort, ProtocolError
from .harness import emit_metrics, equivalence_check, run_experiment, run_sweep
from .numerics import (
    LogisticProblem,
    MlpProblem,
    NoiseModel,
    Problem,
    QuadraticProblem,
    WorkerStreams,
    build_logistic,
    build_mlp,
    build_quadratic,
    global_gradient,
    global_loss,
    global_loss_and_gradient,
    make_worker_rngs,
    rng_stream,
    worker_stochastic_gradient,
)
from .simkernel import MetricsTrace, SimClock, Simulation
from .slowmo import GammaSchedule, SlowMoConfig, SlowMoState, slow_update
from .theory_checker import (
    BoundInputs,
    VEstimate,
    check_bound,
    estimate_V,
    gamma_eff,
    local_sgd_bias_surrogate,
    plain_sgd_V,
    prescribed_gamma,
    step_count_condition,
    theorem1_rhs,
    theorem1_terms,
)
from .topology import (
    TopologySchedule,
    mixing_matrix,
    out_neighbor,
    validate_strong_connectivity,
)

__version__ = "0.1.0"
