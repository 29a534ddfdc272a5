"""Layer-boundary tracing applied from outside slowmo-sim.

Each boundary is a function or method of the program, wrapped where its
caller looks it up: ``from .numerics import worker_stochastic_gradient``
binds the name in ``simkernel``, so that is the attribute patched. A
boundary records its call count, its inclusive time and its self time (the
span minus the spans of wrapped boundaries it called). The wrappers only
time and count; arguments and return values pass through untouched, so a
traced run produces the same trajectories as an untraced one.

``Tracer`` is a context manager: entering installs the wrappers, leaving
puts back the exact objects it replaced.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter_ns


def _gossip_counts(counts, args):
    """apply_round(self, states, half_x, round_index) of a gossip protocol."""
    _, states, half_x, _ = args
    counts["messages"] += len(half_x)
    counts["payload_bytes"] += len(half_x) * states[0].x.size * 8


def _osgp_counts(counts, args):
    _gossip_counts(counts, args)
    counts["osgp_senders"] += len(args[2])
    counts["osgp_worker_rounds"] += args[0].m


@dataclass(frozen=True)
class Boundary:
    """A named layer boundary and the attributes ("module[:Class]", attr) it wraps."""

    name: str
    layer: str
    sites: tuple
    count: object = None  # optional hook(counts, args) run on each call


def _b(name, layer, *sites, count=None):
    return Boundary(name, layer, tuple(sites), count)


_SIM = "slowmo_sim.simkernel:Simulation"
_CP = "slowmo_sim.comm_protocols"

# Layers: what the sum of a layer's self times is reported as. "setup" is
# everything from config dict to ready Simulation; it is reported as its
# own layer so that the measured phase's dominant layer is not hidden by
# problem generation.
BOUNDARIES = (
    _b("numerics.worker_stochastic_gradient", "oracle",
       ("slowmo_sim.simkernel", "worker_stochastic_gradient")),
    _b("numerics.global_gradient", "metrics", ("slowmo_sim.simkernel", "global_gradient")),
    _b("numerics.global_loss", "metrics", ("slowmo_sim.simkernel", "global_loss")),
    _b("numerics.build_quadratic", "setup", ("slowmo_sim.config", "build_quadratic")),
    _b("numerics.build_logistic", "setup", ("slowmo_sim.config", "build_logistic")),
    _b("base_optimizers.local_direction", "optimizer",
       ("slowmo_sim.simkernel", "local_direction")),
    _b("base_optimizers.apply_buffer_strategy", "optimizer",
       ("slowmo_sim.slowmo", "apply_buffer_strategy")),
    _b("comm_protocols.sgp.apply_round", "protocol",
       (f"{_CP}:PushSumProtocol", "apply_round"), count=_gossip_counts),
    _b("comm_protocols.dpsgd.apply_round", "protocol",
       (f"{_CP}:GossipProtocol", "apply_round"), count=_gossip_counts),
    _b("comm_protocols.osgp.apply_round", "protocol",
       (f"{_CP}:OverlapPushSumProtocol", "apply_round"), count=_osgp_counts),
    _b("comm_protocols.allreduce.apply_round", "protocol",
       (f"{_CP}:AllReduceProtocol", "apply_round")),
    _b("comm_protocols.local.apply_round", "protocol", (f"{_CP}:LocalProtocol", "apply_round")),
    _b("comm_protocols.osgp.end_block", "protocol",
       (f"{_CP}:OverlapPushSumProtocol", "end_block")),
    # the inherited no-op of every protocol that does not override it
    _b("comm_protocols.base.end_block", "protocol", (f"{_CP}:_ProtocolBase", "end_block")),
    _b("comm_protocols.osgp.inflight_sums", "metrics",
       (f"{_CP}:OverlapPushSumProtocol", "inflight_sums")),
    _b("comm_protocols.base.inflight_sums", "metrics", (f"{_CP}:_ProtocolBase", "inflight_sums")),
    _b("comm_protocols.exact_average", "protocol", ("slowmo_sim.slowmo", "exact_average")),
    _b("topology.mixing_matrix", "topology", (_CP, "mixing_matrix")),
    _b("topology.out_neighbor", "topology", (_CP, "out_neighbor")),
    _b("topology.validate_strong_connectivity", "setup",
       ("slowmo_sim.simkernel", "validate_strong_connectivity")),
    _b("config.parse_config", "setup",
       ("slowmo_sim.config", "parse_config"), ("slowmo_sim.harness", "parse_config")),
    _b("config.build_simulation", "setup",
       ("slowmo_sim.config", "build_simulation"), ("slowmo_sim.harness", "build_simulation")),
    _b("slowmo.run_outer_iteration", "slowmo", ("slowmo_sim.simkernel", "run_outer_iteration")),
    _b("slowmo.slow_update", "slowmo", ("slowmo_sim.slowmo", "slow_update")),
    _b("simkernel.Simulation.inner_round", "kernel", (_SIM, "inner_round")),
    _b("simkernel.Simulation.record_metrics", "metrics", (_SIM, "record_metrics")),
    _b("simkernel.Simulation.mean_x", "metrics", (_SIM, "mean_x")),
    _b("simkernel.Simulation.consensus_sq", "metrics", (_SIM, "consensus_sq")),
    _b("harness.run_sweep", "output", ("slowmo_sim.harness", "run_sweep")),
    _b("harness.emit_metrics", "output", ("slowmo_sim.harness", "emit_metrics")),
    _b("simkernel.MetricsTrace.from_jsonl", "readback",
       ("slowmo_sim.simkernel:MetricsTrace", "from_jsonl")),
    _b("theory_checker.lhs_from_records", "readback",
       ("slowmo_sim.theory_checker", "lhs_from_records")),
)

SETUP_NAMES = ("config.parse_config", "config.build_simulation")
SETUP_BOUNDARIES = tuple(b for b in BOUNDARIES if b.name in SETUP_NAMES)
LAYERS = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))
COUNT_KEYS = ("messages", "payload_bytes", "osgp_senders", "osgp_worker_rounds")


def resolve_site(site):
    """(owner, attr) for a site; raises if the module, class or attribute is gone."""
    path, attr = site
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    if not callable(getattr(owner, attr)):
        raise TypeError(f"{path}.{attr} is not callable")
    return owner, attr


class Tracer:
    """Counts calls and self/inclusive time at each boundary while active."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self._saved = []
        names = [b.name for b in self.boundaries]
        self.calls = dict.fromkeys(names, 0)
        self.self_ns = dict.fromkeys(names, 0)
        self.incl_ns = dict.fromkeys(names, 0)
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        # _stack[-1] accumulates the time of spans closed under the open one;
        # _stack[0] therefore sums the root spans, which equals sum(self_ns).
        self._stack = [0]

    @property
    def root_ns(self) -> int:
        return self._stack[0]

    def _wrap(self, boundary: Boundary, fn):
        name, hook = boundary.name, boundary.count
        stack, calls, self_ns, incl_ns = self._stack, self.calls, self.self_ns, self.incl_ns
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(counts, args)
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter_ns() - start
                children = stack.pop()
                stack[-1] += span
                self_ns[name] += span - children
                incl_ns[name] += span
                calls[name] += 1

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for boundary in self.boundaries:
                for site in boundary.sites:
                    owner, attr = resolve_site(site)
                    # read through __dict__ so a staticmethod comes back as itself
                    original = vars(owner)[attr]
                    if isinstance(original, staticmethod):
                        patched = staticmethod(self._wrap(boundary, original.__func__))
                    else:
                        patched = self._wrap(boundary, original)
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, patched)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def setup_ns(self) -> int:
        """Inclusive time spent turning config dicts into ready Simulations."""
        return sum(self.incl_ns[n] for n in SETUP_NAMES)
