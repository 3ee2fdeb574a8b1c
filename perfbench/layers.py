"""The traced run: spans around repro's public calls, folded into
per-layer metrics named ``<module>.<quantity>`` after ``src/repro``.

Self-time buckets (their sum is the traced wall time of an iteration):

=========================  ==============================================
metric                     self time of
=========================  ==============================================
``bench.self_s``           the benchmark's own code in the iteration
``des.loop_self_s``        ``Simulation.run`` minus every child span: the
                           kernel loop, the request lifecycle and all
                           unwrapped code it calls
``des.resource_s``         ``Resource.request`` / ``PriorityResource.request``
``cluster.net.s``          ``Interconnect.send_message*`` / ``send_control*``
                           / ``broadcast_control``
``cluster.cache.s``        ``LRUFileCache.lookup`` / ``insert``
``servers.decide_s``       ``DistributionPolicy.decide`` (every policy class)
``servers.hooks_s``        the policy hooks (``initial_node``, ``on_*``)
``overload.admit_s``       ``AdmissionController.try_admit``
``workload.synthesize_s``  trace synthesis functions of ``repro.workload``
``workload.build_trace_s`` ``chaos.runner.build_trace``
``chaos.self_s``           ``chaos.runner.run_scenario``
``chaos.oracle_s``         ``ChaosOracle.finish``
``experiments.self_s``     ``find_knee`` and ``overload_frontier``
=========================  ==============================================

The wrapped generator-path calls (``send_message``, ``send_control``)
return a generator, so their spans time the call, not the delivery.
"""

from __future__ import annotations

from typing import Dict, List

import repro.chaos.runner as chaos_runner
import repro.experiments.overload as overload_exp
import repro.sim.driver as sim_driver
from repro.chaos.oracle import ChaosOracle
from repro.cluster.cache import LRUFileCache
from repro.cluster.network import Interconnect
from repro.des.resources import PriorityResource, Resource
from repro.experiments.flashcrowd import flash_crowd_trace
from repro.overload.admission import AdmissionController
from repro.servers.base import DistributionPolicy
from repro.sim import Simulation
from repro.workload import build_fileset, generate_trace, synthesize
from repro.workload.tracegen import flash_ramp_trace, popularity_churn_trace

from tracing import SpanTable, Tracer

__all__ = ["install", "SELF_BUCKETS", "span_metrics"]

ROOT = "bench.iteration"

#: Self-time metric -> span names whose self time it sums.
SELF_BUCKETS: Dict[str, tuple] = {
    "bench.self_s": (ROOT,),
    "des.loop_self_s": ("sim.run",),
    "des.resource_s": ("des.resource",),
    "cluster.net.s": ("cluster.net",),
    "cluster.cache.s": ("cluster.cache.lookup", "cluster.cache.insert"),
    "servers.decide_s": ("servers.decide",),
    "servers.hooks_s": ("servers.hook",),
    "overload.admit_s": ("overload.try_admit",),
    "workload.synthesize_s": ("workload.synthesize",),
    "workload.build_trace_s": ("chaos.build_trace",),
    "chaos.self_s": ("chaos.run_scenario",),
    "chaos.oracle_s": ("chaos.oracle_finish",),
    "experiments.self_s": ("experiments.find_knee", "experiments.overload_frontier"),
}

_POLICY_HOOKS = (
    "initial_node",
    "on_connection_change",
    "on_complete",
    "on_connection_end",
    "on_node_failed",
    "on_node_recovered",
    "on_request_aborted",
    "on_handoff_failed",
    "on_partition_healed",
)

#: Modules whose by-name imports of wrapped functions are re-bound.
_PREFIXES = ("repro", "workloads")


def _require(patched: int, what: str) -> None:
    if not patched:
        raise RuntimeError(
            f"traced run: {what} is not in repro any more, so its layer "
            "would silently read 0; update perfbench/layers.py"
        )


def install() -> Tracer:
    """A tracer wrapped around every public call the benchmark times.

    Raises if a call to wrap is missing, so a renamed method fails the
    traced run instead of reading 0."""
    tracer = Tracer(run_units=("sim.run", "chaos.run_scenario"))

    def method(cls: type, attr: str, name: str) -> None:
        _require(tracer.wrap_method(cls, attr, name), f"{cls.__name__}.{attr}")

    try:
        method(Simulation, "run", "sim.run")
        for cls in (Resource, PriorityResource):
            method(cls, "request", "des.resource")
        for attr in (
            "send_message",
            "send_message_cb",
            "send_control",
            "send_control_cb",
            "broadcast_control",
        ):
            method(Interconnect, attr, "cluster.net")
        method(LRUFileCache, "lookup", "cluster.cache.lookup")
        method(LRUFileCache, "insert", "cluster.cache.insert")
        # Subclasses override some of these, so each name needs one hit only.
        _require(tracer.wrap_hierarchy(DistributionPolicy, ("decide",), "servers.decide"),
                 "DistributionPolicy.decide")
        for hook in _POLICY_HOOKS:
            _require(tracer.wrap_hierarchy(DistributionPolicy, (hook,), "servers.hook"),
                     f"DistributionPolicy.{hook}")
        method(AdmissionController, "try_admit", "overload.try_admit")
        method(ChaosOracle, "finish", "chaos.oracle_finish")
        for fn, name in (
            (chaos_runner.run_scenario, "chaos.run_scenario"),
            (chaos_runner.build_trace, "chaos.build_trace"),
            (overload_exp.find_knee, "experiments.find_knee"),
            (overload_exp.overload_frontier, "experiments.overload_frontier"),
            (synthesize, "workload.synthesize"),
            (build_fileset, "workload.synthesize"),
            (generate_trace, "workload.synthesize"),
            (flash_ramp_trace, "workload.synthesize"),
            (popularity_churn_trace, "workload.synthesize"),
            (flash_crowd_trace, "workload.synthesize"),
        ):
            _require(tracer.wrap_function(fn, name, _PREFIXES), fn.__qualname__)
        for fn, counter in (
            (sim_driver.client_request, "sim.slow_starts"),
            (sim_driver.start_fast_request, "sim.fast_starts"),
        ):
            _require(tracer.count_function(fn, counter, _PREFIXES), fn.__qualname__)
    except Exception:
        tracer.uninstall()
        raise
    return tracer


def span_metrics(table: SpanTable, counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (one root span)."""
    selfs = table.self_seconds()
    counts = table.counts()
    out: Dict[str, float] = {
        metric: sum(selfs.get(n, 0.0) for n in names)
        for metric, names in SELF_BUCKETS.items()
    }
    roots = table.indices(ROOT)
    out["bench.traced_wall_s"] = float(table.duration[roots].sum())
    out["des.resource_requests"] = counts.get("des.resource", 0)
    out["cluster.net.calls"] = counts.get("cluster.net", 0)
    out["cluster.cache.lookups"] = counts.get("cluster.cache.lookup", 0)
    out["servers.decides"] = counts.get("servers.decide", 0)
    out["overload.admit_calls"] = counts.get("overload.try_admit", 0)
    slow = counters.get("sim.slow_starts", 0)
    starts = slow + counters.get("sim.fast_starts", 0)
    out["sim.slowpath_fraction"] = slow / starts if starts else 0.0

    knees = table.indices("experiments.find_knee")
    out["experiments.knee_s"] = float(table.duration[knees].sum())

    chaos_runs: List[float] = []
    points: List[float] = []
    for idx in table.indices("sim.run"):
        if table.has_ancestor(idx, "chaos.run_scenario"):
            chaos_runs.append(float(table.duration[idx]))
        elif table.has_ancestor(
            idx, "experiments.overload_frontier"
        ) and not table.has_ancestor(idx, "experiments.find_knee"):
            points.append(float(table.duration[idx]))
    out["chaos.sim_runs"] = len(chaos_runs)
    out["chaos.sim_run_s"] = sum(chaos_runs)
    # overload_frontier runs its points multiplier by multiplier, bare
    # before admitted: 1x bare, 1x admitted, 3x bare, 3x admitted.
    labels = [f"{m}.{a}" for m in ("1x", "3x") for a in ("bare", "admitted")]
    if points:
        if len(points) != len(labels):
            raise RuntimeError(f"expected {len(labels)} overload points, got {len(points)}")
        for label, seconds in zip(labels, points):
            out[f"overload.point_s.{label}"] = seconds
    return out


def median_index(values: List[float]) -> int:
    """Index of the median element (the lower one for an even count)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]

