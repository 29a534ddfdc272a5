"""Experiment configuration: strict JSON parsing and simulation assembly.

Each config section is a frozen dataclass that alone declares its fields'
names, defaults and types and checks its own values; ExperimentConfig
checks the rules across sections (T * slowmo.tau under the step
ceiling). ``parse_config`` builds one from a raw dict, usually loaded from
JSON, rejecting unknown fields anywhere in the tree. ``resolved_dict`` dumps
every field explicitly, defaults included, so a run can always be reproduced
from its resolved.json alone. ``build_simulation(cfg, seeds)`` builds the
problem and start point from the config and hands both, with the config
itself, to ``Simulation``; given a sequence of seeds, it builds one stacked
simulation of one group per seed, group g being the run of the config with
``seeds[g]`` as its seed, derived from the seed and not rebuilt. The rules
on a run's settings run once, at parse, dpsgd's pairing of every round's
workers included (the rule is ``topology.mixing_matrix``'s); ``Simulation``
checks only connectivity, as it builds the schedule. Either way a bad
config, and a sweep with a bad point, fails before anything is written.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .base_optimizers import BaseOptimizerConfig
from .comm_protocols import PROTOCOL_NAMES, DelayModel
from .errors import ConfigError
from .numerics import (
    STREAM_MISC,
    NoiseModel,
    build_logistic,
    build_mlp,
    build_quadratic,
    rng_stream,
    seed_list,
)
from .simkernel import Simulation
from .slowmo import GammaSchedule, SlowMoConfig
from .topology import TOPOLOGY_KINDS, TopologySchedule, mixing_matrix

PROBLEM_KINDS = ("quadratic", "logistic", "mlp")  # the kinds build_problem builds

# Ceilings on sizes, so an absurd value is a config error and not an
# OverflowError, an allocation that cannot succeed or a run that never ends.
# A value below a ceiling may still need more memory or time than a machine
# has.
MAX_STEPS = 10**9  # inner steps (T * slowmo.tau, or total_steps), osgp delays
MAX_WORKERS = 10**5  # problem.m
MAX_DIMENSION = 10**7  # problem.dimension, input_dim, hidden, samples_per_worker
MAX_QUADRATIC_DIMENSION = 2**14  # a quadratic's d x d matrix: 2 GiB


def _check_ceiling(value: int, name: str, ceiling: int) -> None:
    if value > ceiling:
        raise ConfigError(f"{name} must be <= {ceiling}, got {value}")


def _check_int(value, name: str, minimum: int | None = None) -> None:
    """Integer fields take integers only: no bools, floats or strings."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")


def _check_float(value, name: str) -> None:
    """Float fields take finite numbers: ints or floats, no bools or strings."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value!r}")


@functools.cache
def _field_table(cls) -> dict:
    """Each field's (default, nested dataclass or None); factories run once, here."""
    table = {}
    for f in fields(cls):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        table[f.name] = (default, type(default) if is_dataclass(default) else None)
    return table


def _parse(cls, raw, path: str):
    """Build the config dataclass ``cls`` from a JSON object. Missing fields
    take their defaults and unknown ones are an error. A field whose default
    is a dataclass is parsed the same way; a leaf is checked by the type of
    its default: a bool must be a bool, an int (or a None default) an int, a
    float a finite number, a tuple a list and a dict an object. Value and
    cross-field rules are the dataclasses' own ``__post_init__`` checks."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    table = _field_table(cls)
    values = {}
    for name, value in raw.items():
        if name not in table:
            where = f" in {path}" if path else ""
            unknown = sorted(key for key in raw if key not in table)
            raise ConfigError(f"unknown config field(s){where}: {unknown}")
        default, nested = table[name]
        where = f"{path}.{name}" if path else name
        if nested is not None:
            value = _parse(nested, value, where)
        elif type(default) is bool:
            if type(value) is not bool:
                raise ConfigError(f"{where} must be true or false, got {value!r}")
        elif type(default) is int or (default is None and value is not None):
            _check_int(value, where)
        elif type(default) is float:
            _check_float(value, where)
        elif type(default) is tuple:  # the milestones: a list of integers >= 0
            if not isinstance(value, list):
                raise ConfigError(f"{where} must be a list, got {value!r}")
            for i, v in enumerate(value):
                _check_int(v, f"{where}[{i}]", minimum=0)
            value = tuple(value)
        elif type(default) is dict:
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object, got {value!r}")
            value = dict(value)
        values[name] = value
    return cls(**values)


@dataclass(frozen=True)
class ProblemConfig:
    kind: str = "quadratic"
    m: int = 1
    dimension: int = 10
    heterogeneity: float = 0.0
    noise: NoiseModel = field(default_factory=NoiseModel)
    # quadratic
    l_min: float = 1.0
    l_max: float = 1.0
    # logistic / mlp
    samples_per_worker: int = 0
    input_dim: int = 4
    hidden: int = 8

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem kind {self.kind!r}")
        for name in ("m", "dimension", "input_dim", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"problem.{name} must be >= 1")
        if self.samples_per_worker < 0:
            raise ConfigError("problem.samples_per_worker must be >= 0")
        _check_ceiling(self.m, "problem.m", MAX_WORKERS)
        for name in ("dimension", "input_dim", "hidden", "samples_per_worker"):
            _check_ceiling(getattr(self, name), f"problem.{name}", MAX_DIMENSION)
        if self.heterogeneity < 0:
            raise ConfigError("heterogeneity must be >= 0")
        if self.kind == "quadratic":
            _check_ceiling(self.dimension, "a quadratic's problem.dimension",
                           MAX_QUADRATIC_DIMENSION)
            if self.l_min <= 0 or self.l_max < self.l_min:
                raise ConfigError("need 0 < l_min <= l_max")
            if self.samples_per_worker > 0 or self.noise.kind == "minibatch":
                raise ConfigError("a quadratic has no data shard: it takes "
                                  "samples_per_worker 0 and additive-gaussian noise")
        elif self.samples_per_worker < 1:
            raise ConfigError(f"{self.kind} needs samples_per_worker >= 1")
        if self.noise.kind == "minibatch" and self.noise.batch_size > self.samples_per_worker:
            raise ConfigError(f"problem.noise.batch_size {self.noise.batch_size} exceeds "
                              f"problem.samples_per_worker {self.samples_per_worker}")


@dataclass(frozen=True)
class InitConfig:
    kind: str = "zeros"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zeros", "gaussian"):
            raise ConfigError(f"unknown init kind {self.kind!r}")


@dataclass(frozen=True)
class OsgpConfig:
    staleness: int = 4
    delay: DelayModel = field(default_factory=DelayModel)

    def __post_init__(self):
        if self.staleness < 0:
            raise ConfigError("osgp.staleness must be >= 0")
        for key in ("rounds", "cap"):
            _check_ceiling(getattr(self.delay, key), f"osgp.delay.{key}", MAX_STEPS)


@dataclass(frozen=True)
class TopologyConfig:
    """The gossip graph: one of the one-peer-per-round kinds."""

    kind: str = "exponential-directed"

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigError(f"unknown topology kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    base: BaseOptimizerConfig = field(default_factory=BaseOptimizerConfig)
    slowmo: SlowMoConfig = field(default_factory=SlowMoConfig)
    gamma: GammaSchedule = field(default_factory=GammaSchedule)
    protocol: str = "allreduce"
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    osgp: OsgpConfig = field(default_factory=OsgpConfig)
    init: InitConfig = field(default_factory=InitConfig)
    T: int | None = None
    total_steps: int | None = None
    seed: int = 0
    metric_cadence: int = 1
    log_bias: bool = False
    execution: str = "sequential"
    grid: dict = field(default_factory=dict)

    def __post_init__(self):
        """The rules that span fields or sections."""
        if self.protocol == "double-average":
            raise ConfigError("protocol 'double-average' was removed; use protocol 'local' "
                              "with base.buffer_strategy 'average'")
        if self.protocol not in PROTOCOL_NAMES:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if (self.T is None) == (self.total_steps is None):
            raise ConfigError("specify exactly one of T / total_steps")
        if self.T is not None:
            _check_int(self.T, "T", minimum=1)
            _check_ceiling(self.T * self.slowmo.tau, "T * slowmo.tau", MAX_STEPS)
        else:
            _check_int(self.total_steps, "total_steps", minimum=1)
            _check_ceiling(self.total_steps, "total_steps", MAX_STEPS)
        _check_int(self.seed, "seed", minimum=0)
        if self.execution == "parallel":
            raise ConfigError("execution mode 'parallel' was removed; runs are always sequential")
        if self.execution != "sequential":
            raise ConfigError(f"execution must be 'sequential', got {self.execution!r}")
        _check_int(self.metric_cadence, "metric_cadence", minimum=1)
        if self.protocol == "dpsgd":  # every round must pair the workers
            schedule = TopologySchedule(self.topology.kind, self.problem.m)
            for k in range(schedule.period):
                mixing_matrix(schedule, k, "doubly")


def parse_config(raw: dict) -> ExperimentConfig:
    return _parse(ExperimentConfig, raw, "")


def read_json(path: str, what: str, decode=json.loads):
    """``decode`` of the UTF-8 text of the ``what`` file at ``path``. A file
    that is missing, unreadable or not UTF-8 is a ConfigError, and so is
    text that is not valid JSON or nests too deep for the decoder."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return decode(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {what} {path}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    return parse_config(read_json(path, "config"))


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """Every field explicit, defaults included; JSON-serializable. A grid
    that nests too deep to copy is a ConfigError."""
    try:
        out = asdict(cfg)
    except RecursionError as exc:
        raise ConfigError(f"grid nests too deep to resolve: {exc}") from exc
    out["gamma"]["milestones"] = list(out["gamma"]["milestones"])
    return out


def build_problem(cfg: ExperimentConfig, seeds=None):
    """``cfg.problem`` for ``cfg.seed``, or one group of it per seed in ``seeds``."""
    # the builders are looked up at call time, so a wrapper set on this
    # module's names (as a tracer does) sees every build
    builders = {"quadratic": build_quadratic, "logistic": build_logistic, "mlp": build_mlp}
    return builders[cfg.problem.kind](cfg.problem, cfg.seed if seeds is None else seeds)


def initial_point(init: InitConfig, seed: int, dimension: int) -> np.ndarray:
    """The start point ``init`` describes for the run of ``seed``."""
    if init.kind == "zeros":
        return np.zeros(dimension)
    rng = rng_stream(seed, STREAM_MISC, 5)
    return init.scale * rng.standard_normal(dimension)


def build_simulation(cfg: ExperimentConfig, seeds=None) -> Simulation:
    """Assemble the Simulation the config describes. For a sequence of seeds
    it is one stacked simulation, a group per seed in order, each the run of
    the config with that seed: derived from the seed, not rebuilt."""
    seeds = seed_list(cfg.seed if seeds is None else seeds)
    problem = build_problem(cfg, seeds)
    x0 = np.array([initial_point(cfg.init, s, problem.dimension) for s in seeds])
    return Simulation(problem, cfg, x0, seeds=seeds)
