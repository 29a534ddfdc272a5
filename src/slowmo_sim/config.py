"""Experiment configuration: strict JSON parsing and simulation assembly.

``parse_config`` turns a raw dict (usually loaded from JSON) into an
ExperimentConfig, rejecting unknown fields anywhere in the tree and
enforcing cross-field rules (e.g. double-average needs the sgd-nesterov
base, beta = 1 is never valid). ``resolved_dict`` dumps every field
explicitly, defaults included, so a run can always be reproduced from its
resolved.json alone. ``build_simulation`` turns the config into a ready
Simulation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

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
)
from .simkernel import Simulation
from .slowmo import GammaSchedule, SlowMoConfig
from .topology import TOPOLOGY_KINDS


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


def _parse_rounds(rounds) -> tuple:
    """Custom topology rounds: a list of rounds, each a list of [sender, receiver]."""
    if not isinstance(rounds, list):
        raise ConfigError(f"topology.rounds must be a list, got {rounds!r}")
    parsed = []
    for r, edges in enumerate(rounds):
        if not isinstance(edges, list):
            raise ConfigError(f"topology.rounds[{r}] must be a list of edges, got {edges!r}")
        for e in edges:
            if not isinstance(e, list) or len(e) != 2:
                raise ConfigError(
                    f"topology.rounds[{r}] edge {e!r} must be a [sender, receiver] pair"
                )
            for endpoint in e:
                _check_int(endpoint, f"topology.rounds[{r}] edge endpoint", minimum=0)
        parsed.append(tuple((e[0], e[1]) for e in edges))
    return tuple(parsed)


def _take(raw: dict, allowed: dict, path: str) -> dict:
    """Pop known keys (applying defaults); any leftover key is an error.
    A field whose default is an int or a bool must be given as one; a field
    whose default is a float must be a finite int or float."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    out = {}
    raw = dict(raw)
    for key, default in allowed.items():
        value = out[key] = raw.pop(key, default)
        name = f"{path}.{key}" if path else key
        if type(default) is bool and type(value) is not bool:
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        if type(default) is int:
            _check_int(value, name)
        if type(default) is float:
            _check_float(value, name)
    if raw:
        where = f" in {path}" if path else ""
        raise ConfigError(f"unknown config field(s){where}: {sorted(raw)}")
    return out


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
    samples_per_worker: int = 0
    sample_spread: float = 1.0
    # logistic / mlp
    input_dim: int = 4
    hidden: int = 8

    def __post_init__(self):
        if self.kind not in ("quadratic", "logistic", "mlp"):
            raise ConfigError(f"unknown problem kind {self.kind!r}")
        for name in ("m", "dimension", "input_dim", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"problem.{name} must be >= 1")
        if self.samples_per_worker < 0:
            raise ConfigError("problem.samples_per_worker must be >= 0")
        if self.heterogeneity < 0:
            raise ConfigError("heterogeneity must be >= 0")
        if self.kind == "quadratic":
            if self.l_min <= 0 or self.l_max < self.l_min:
                raise ConfigError("need 0 < l_min <= l_max")
            if self.noise.kind == "minibatch" and self.samples_per_worker < 1:
                raise ConfigError(
                    "minibatch noise on a quadratic needs samples_per_worker >= 1"
                )
        else:
            if self.samples_per_worker < 1:
                raise ConfigError(f"{self.kind} needs samples_per_worker >= 1")


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


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig
    base: BaseOptimizerConfig
    slowmo: SlowMoConfig
    gamma: GammaSchedule
    protocol: str = "allreduce"
    topology: str = "exponential-directed"
    custom_rounds: tuple = ()
    osgp: OsgpConfig = field(default_factory=OsgpConfig)
    init: InitConfig = field(default_factory=InitConfig)
    T: int | None = None
    total_steps: int | None = None
    seed: int = 0
    metric_cadence: int = 1
    log_bias: bool = False
    execution: str = "sequential"
    grid: dict = field(default_factory=dict)


def parse_config(raw: dict) -> ExperimentConfig:
    top = _take(raw, {
        "problem": {},
        "base": {},
        "slowmo": {},
        "gamma": {},
        "protocol": "allreduce",
        "topology": {},
        "osgp": {},
        "init": {},
        "T": None,
        "total_steps": None,
        "seed": 0,
        "metric_cadence": 1,
        "log_bias": False,
        "execution": "sequential",
        "grid": {},
    }, "")

    prob_raw = _take(top["problem"], {
        "kind": "quadratic", "m": 1, "dimension": 10, "heterogeneity": 0.0,
        "noise": {}, "l_min": 1.0, "l_max": 1.0, "samples_per_worker": 0,
        "sample_spread": 1.0, "input_dim": 4, "hidden": 8,
    }, "problem")
    noise_raw = _take(prob_raw.pop("noise"), {
        "kind": "additive-gaussian", "sigma2": 0.0, "batch_size": 0,
    }, "problem.noise")
    noise = NoiseModel(**noise_raw)
    problem = ProblemConfig(noise=noise, **prob_raw)

    base_raw = _take(top["base"], {
        "kind": "plain-sgd", "buffer_strategy": "reset", "beta_local": 0.9,
        "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
    }, "base")
    base = BaseOptimizerConfig(**base_raw)

    slowmo_raw = _take(top["slowmo"], {
        "alpha": 1.0, "beta": 0.7, "tau": 12, "noaverage": False,
    }, "slowmo")
    slowmo = SlowMoConfig(**slowmo_raw)

    gamma_raw = _take(top["gamma"], {
        "kind": "constant", "value": 0.1, "milestones": [], "decay": 0.1,
    }, "gamma")
    if not isinstance(gamma_raw["milestones"], list):
        raise ConfigError(f"gamma.milestones must be a list, got {gamma_raw['milestones']!r}")
    for ms in gamma_raw["milestones"]:
        _check_int(ms, "gamma.milestones entry", minimum=0)
    gamma = GammaSchedule(
        value=gamma_raw["value"], kind=gamma_raw["kind"],
        milestones=tuple(gamma_raw["milestones"]), decay=gamma_raw["decay"],
    )

    topo_raw = _take(top["topology"], {
        "kind": "exponential-directed", "rounds": [],
    }, "topology")
    if topo_raw["kind"] not in TOPOLOGY_KINDS:
        raise ConfigError(f"unknown topology kind {topo_raw['kind']!r}")
    custom_rounds = _parse_rounds(topo_raw["rounds"])
    if topo_raw["kind"] == "custom" and not custom_rounds:
        raise ConfigError("custom topology needs a nonempty rounds list")

    osgp_raw = _take(top["osgp"], {"staleness": 4, "delay": {}}, "osgp")
    delay_raw = _take(osgp_raw.pop("delay"), {
        "kind": "constant", "rounds": 0, "p": 0.5, "cap": 8,
    }, "osgp.delay")
    osgp = OsgpConfig(staleness=osgp_raw["staleness"], delay=DelayModel(**delay_raw))

    init_raw = _take(top["init"], {"kind": "zeros", "scale": 1.0}, "init")
    init = InitConfig(**init_raw)

    protocol = top["protocol"]
    if protocol not in PROTOCOL_NAMES:
        raise ConfigError(f"unknown protocol {protocol!r}")
    if protocol == "double-average" and base.kind != "sgd-nesterov":
        raise ConfigError(
            "double-average averages momentum buffers and requires the "
            "sgd-nesterov base"
        )
    if protocol == "double-average" and slowmo.noaverage:
        raise ConfigError("double-average cannot run with noaverage")

    if (top["T"] is None) == (top["total_steps"] is None):
        raise ConfigError("specify exactly one of T / total_steps")
    for key in ("T", "total_steps"):
        if top[key] is not None:
            _check_int(top[key], key)
    _check_int(top["seed"], "seed", minimum=0)
    if top["execution"] == "parallel":
        raise ConfigError("execution mode 'parallel' was removed; runs are always sequential")
    if top["execution"] != "sequential":
        raise ConfigError(f"execution must be 'sequential', got {top['execution']!r}")
    _check_int(top["metric_cadence"], "metric_cadence", minimum=1)
    if not isinstance(top["grid"], dict):
        raise ConfigError(f"grid must be an object, got {top['grid']!r}")

    return ExperimentConfig(
        problem=problem, base=base, slowmo=slowmo, gamma=gamma,
        protocol=protocol, topology=topo_raw["kind"], custom_rounds=custom_rounds,
        osgp=osgp, init=init, T=top["T"], total_steps=top["total_steps"],
        seed=top["seed"], metric_cadence=top["metric_cadence"],
        log_bias=top["log_bias"], execution=top["execution"],
        grid=dict(top["grid"]),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """Every field explicit, defaults included; JSON-serializable."""
    out = asdict(cfg)
    out["gamma"]["milestones"] = list(out["gamma"]["milestones"])
    out["custom_rounds"] = [list(map(list, rnd)) for rnd in out["custom_rounds"]]
    # topology nests back the way parse_config reads it
    out["topology"] = {"kind": out["topology"], "rounds": out.pop("custom_rounds")}
    return out


def build_problem(cfg: ExperimentConfig):
    p = cfg.problem
    if p.kind == "quadratic":
        return build_quadratic(
            m=p.m, dimension=p.dimension, noise=p.noise, seed=cfg.seed,
            l_min=p.l_min, l_max=p.l_max, heterogeneity=p.heterogeneity,
            samples_per_worker=p.samples_per_worker, sample_spread=p.sample_spread,
        )
    if p.kind == "logistic":
        return build_logistic(
            m=p.m, dimension=p.dimension, samples_per_worker=p.samples_per_worker,
            noise=p.noise, seed=cfg.seed, heterogeneity=p.heterogeneity,
        )
    return build_mlp(
        m=p.m, input_dim=p.input_dim, hidden=p.hidden,
        samples_per_worker=p.samples_per_worker, noise=p.noise,
        seed=cfg.seed, heterogeneity=p.heterogeneity,
    )


def initial_point(cfg: ExperimentConfig, dimension: int) -> np.ndarray:
    if cfg.init.kind == "zeros":
        return np.zeros(dimension)
    rng = rng_stream(cfg.seed, STREAM_MISC, 5)
    return cfg.init.scale * rng.standard_normal(dimension)


def build_simulation(cfg: ExperimentConfig, seed: int | None = None) -> Simulation:
    """Assemble the Simulation; ``seed`` overrides the config's seed."""
    if seed is not None:
        cfg = replace_seed(cfg, seed)
    problem = build_problem(cfg)
    return Simulation(
        problem=problem,
        base_config=cfg.base,
        slowmo_config=cfg.slowmo,
        protocol=cfg.protocol,
        gamma=cfg.gamma,
        T=cfg.T,
        total_steps=cfg.total_steps,
        topology=cfg.topology,
        custom_rounds=cfg.custom_rounds or None,
        staleness=cfg.osgp.staleness,
        delay=cfg.osgp.delay,
        seed=cfg.seed,
        x0=initial_point(cfg, problem.dimension),
        metric_cadence=cfg.metric_cadence,
        log_bias=cfg.log_bias,
    )


def replace_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    _check_int(seed, "seed", minimum=0)
    return replace(cfg, seed=seed)
