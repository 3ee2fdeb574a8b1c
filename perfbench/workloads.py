"""The benchmark's workloads, built from a seed and run through repro's
public API.

Each workload splits into three steps so the harness can time them
apart:

* ``setup(seed, size)`` builds the inputs: traces, scenario specs and, where
  the workload itself constructs them, the ``Simulation`` objects;
* ``execute(inputs, log)`` is the timed phase;
* ``evaluate(inputs, raw, records)`` turns the results into simulated
  metrics, per-layer facts and output checks, outside the timing.

Every ``Simulation.run`` the workload causes (including the ones inside
``run_scenario`` and ``overload_frontier``) is captured by :class:`SimLog`
as a :class:`SimRecord`, so every simulation can be checked and counted.

Trace inputs: the file population of each paper trace is fixed (the
preset's characteristics drawn with seed 0, the same population
``repro.workload.synthesize(name, seed=0)`` builds), and the seed draws
the request stream over it.  Seed 0 therefore reproduces
``synthesize(name, num_requests, seed=0)`` exactly.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import repro.chaos.runner as chaos_runner
import repro.experiments.overload as overload_exp
from repro.chaos.generator import ScenarioGenerator
from repro.cluster import ClusterConfig
from repro.model import MB
from repro.servers import make_policy
from repro.sim import Simulation
from repro.sim.runner import model_bound_for_trace
from repro.workload import build_fileset, generate_trace, preset

__all__ = [
    "SIZES",
    "SimRecord",
    "SimLog",
    "Evaluation",
    "WORKLOADS",
    "SATURATION_TRACES",
    "SATURATION_POLICIES",
]

#: Work per iteration.  ``full`` is what the benchmark command runs;
#: ``tiny`` keeps the benchmark's own tests fast.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "saturation_requests": 3000,
        "chaos_trials": 24,
        "chaos_requests": 600,
        "overload_requests": 4000,
        "probe_requests": 8000,
    },
    "tiny": {
        "saturation_requests": 400,
        "chaos_trials": 2,
        "chaos_requests": 300,
        "overload_requests": 3000,
        "probe_requests": 400,
    },
}

SATURATION_TRACES = ("calgary", "clarknet")
SATURATION_POLICIES = ("traditional", "lard", "l2s")
SATURATION_NODES = 16
SATURATION_CACHE_BYTES = 32 * MB

#: Sweep seed whose first trials give the chaos workload's fault plans.
CHAOS_PLAN_SEED = 42

OVERLOAD_POLICY = "lard"
OVERLOAD_TRACE = "calgary"
OVERLOAD_NODES = 8
OVERLOAD_MULTIPLIERS = (1.0, 3.0)
OVERLOAD_DEADLINE_S = 0.25

#: Seed of the fixed file population behind every paper trace.
FILESET_SEED = 0
TRACE_LOCALITY = 0.15


@dataclass
class SimRecord:
    """One ``Simulation.run`` call and what it produced."""

    result: Any
    events: int
    wall_s: float
    error: Optional[str]

    def digest(self) -> str:
        """Exact fingerprint of the simulated outcome (no host time)."""
        body = dataclasses.asdict(self.result) if self.result is not None else None
        return repr((body, self.events, self.error))


class SimLog:
    """Captures every ``Simulation.run`` call in the process."""

    def __init__(self) -> None:
        self.records: List[SimRecord] = []
        self._original = None

    def install(self) -> None:
        original = self._original = Simulation.run
        records = self.records
        clock = time.perf_counter

        def run(sim):
            t0 = clock()
            try:
                result = original(sim)
            except RuntimeError as exc:
                records.append(
                    SimRecord(None, sim.env.event_count, clock() - t0, str(exc))
                )
                raise
            records.append(
                SimRecord(result, sim.env.event_count, clock() - t0, None)
            )
            return result

        Simulation.run = run

    def uninstall(self) -> None:
        if self._original is not None:
            Simulation.run = self._original
            self._original = None


@dataclass
class Evaluation:
    """What one iteration of a workload produced, outside the timing."""

    #: End-to-end simulated metrics (a function of the seed alone).
    sim: Dict[str, float] = field(default_factory=dict)
    #: Per-layer facts read from the results (counts, ratios, rates).
    layer: Dict[str, float] = field(default_factory=dict)
    #: (record index, problem) for every failed output check.
    problems: List[Tuple[int, str]] = field(default_factory=list)


def _trace(name: str, requests: int, seed: int):
    """The request stream for ``seed`` over the trace's fixed files."""
    p = preset(name)
    fileset = build_fileset(
        num_files=p.num_files,
        mean_file_bytes=p.avg_file_kb * 1024.0,
        mean_request_bytes=p.avg_request_kb * 1024.0,
        alpha=p.alpha,
        seed=FILESET_SEED,
        name=p.name,
    )
    return generate_trace(
        fileset, requests, seed=seed + 1, locality=TRACE_LOCALITY, name=p.name
    )


def _common_checks(records: List[SimRecord], ev: Evaluation) -> None:
    for i, rec in enumerate(records):
        if rec.error is not None:
            ev.problems.append((i, f"run ended early: {rec.error}"))
        elif rec.result is not None:
            for problem in rec.result.verify():
                ev.problems.append((i, f"verify: {problem}"))


def _result_layers(records: List[SimRecord], ev: Evaluation) -> None:
    """Facts every workload reports from its SimResults, including the
    end-to-end ``sim_served_fraction``: the share of generated requests
    not lost to faults over all of the workload's simulations.
    Admission sheds are deliberate, so they do not count as lost."""
    results = [r.result for r in records if r.result is not None]
    sent = retries = dropped = delivered = 0
    for res in results:
        for row in res.message_stats.values():
            sent += row["sent"]
            retries += row.get("retries", 0)
            dropped += row["dropped"]
            delivered += row["delivered"]
    generated = sum(r.requests_generated for r in results)
    failed = sum(r.requests_failed for r in results)
    # A node-level shed may be retried and served, so a run's sheds can
    # outnumber the failures they caused.
    lost = sum(max(0, r.requests_failed - r.requests_shed) for r in results)
    ev.sim["sim_served_fraction"] = (generated - lost) / generated
    ev.layer.update(
        {
            "sim.runs": len(records),
            "sim.requests": generated,
            "des.events": sum(r.events for r in records),
            "netfaults.sent": sent,
            "netfaults.retries": retries,
            "netfaults.dropped": dropped,
            "netfaults.delivered_ratio": delivered / sent if sent else 0.0,
            "faults.requests_failed": failed,
            "faults.requests_retried": sum(r.requests_retried for r in results),
        }
    )


class Saturation:
    """Closed loop at saturation: traditional, lard and l2s on calgary
    and clarknet, 16 nodes x 32 MB, two passes (warm, then measure)."""

    name = "saturation"

    def setup(self, seed: int, size: Dict[str, int],
              policies: Tuple[str, ...] = SATURATION_POLICIES):
        runs = []
        for trace_name in SATURATION_TRACES:
            trace = _trace(trace_name, size["saturation_requests"], seed)
            for policy in policies:
                sim = Simulation(
                    trace,
                    make_policy(policy),
                    ClusterConfig(
                        nodes=SATURATION_NODES, cache_bytes=SATURATION_CACHE_BYTES
                    ),
                    passes=2,
                    seed=seed,
                )
                runs.append((trace_name, policy, trace, sim))
        return runs

    def execute(self, runs, log: SimLog):
        return [sim.run() for _, _, _, sim in runs]

    def probe(self, seed: int, size: Dict[str, int]):
        """Inputs of the simulations behind the end-to-end throughput
        metrics: lard only, on longer traces than the timed phase's,
        whose throughput varies less from seed to seed."""
        size = {**size, "saturation_requests": size["probe_requests"]}
        return self.setup(seed, size, policies=("lard",))

    def evaluate(self, runs, raw, records: List[SimRecord]) -> Evaluation:
        ev = Evaluation()
        _common_checks(records, ev)
        _result_layers(records, ev)
        for i, ((trace_name, policy, trace, _), res) in enumerate(zip(runs, raw)):
            key = f"{trace_name}.{policy}"
            bound = model_bound_for_trace(
                trace, nodes=SATURATION_NODES, cache_bytes=SATURATION_CACHE_BYTES
            ).throughput
            if res.throughput_rps > bound:
                ev.problems.append(
                    (i, f"{key}: {res.throughput_rps:.1f} req/s above the "
                        f"model bound {bound:.1f}")
                )
            ev.sim[f"sim_tput_rps.{key}"] = res.throughput_rps
            st = res.station_utilizations
            ev.layer.update(
                {
                    f"sim.tput_rps.{key}": res.throughput_rps,
                    f"cluster.net.msgs_per_request.{key}": res.messages_per_request,
                    f"cluster.cache.miss_rate.{key}": res.miss_rate,
                    f"cluster.station.router.util.{key}": st["router"],
                    f"cluster.station.cpu.util.{key}": st["cpu"],
                    f"cluster.station.disk.util.{key}": st["disk"],
                    f"servers.forwarded_fraction.{key}": res.forwarded_fraction,
                    f"model.bound_fraction.{key}": res.throughput_rps / bound,
                }
            )
            if policy == "l2s":
                ps = res.policy_stats
                ev.layer[f"servers.l2s.replications.{trace_name}"] = ps["replications"]
                ev.layer[f"servers.l2s.broadcasts.{trace_name}"] = (
                    ps["load_broadcasts"] + ps["set_broadcasts"]
                )
        return ev


class Chaos:
    """A chaos soak through ``run_scenario``: default policies (lard-ng
    included), plan items from the full pool, oracle and counterfactual
    baselines.

    The fault plans are the first trials of the sweep seed
    ``CHAOS_PLAN_SEED``, the same for every seed; the seed draws each
    trial's traffic and fabric randomness (the scenario seed
    ``ScenarioGenerator(seed)`` would give the trial).  Plans drawn
    per seed would make the work itself vary from seed to seed: one
    trial costs from a fifth to twice the mean, depending on its plan.
    With ``seed == CHAOS_PLAN_SEED`` the trials are exactly that sweep's."""

    name = "chaos"

    def setup(self, seed: int, size: Dict[str, int]):
        gen = ScenarioGenerator(CHAOS_PLAN_SEED, requests=size["chaos_requests"])
        scenarios = []
        for trial in range(size["chaos_trials"]):
            scenario = gen.generate(trial)
            scenarios.append(
                dataclasses.replace(
                    scenario,
                    name=f"chaos-p{CHAOS_PLAN_SEED}-s{seed}-t{trial:04d}",
                    seed=(seed << 16) ^ trial,
                )
            )
        return scenarios

    def execute(self, scenarios, log: SimLog):
        first = len(log.records)
        trials = []
        for scenario in scenarios:
            main = len(log.records) - first
            trials.append((chaos_runner.run_scenario(scenario), main))
        return trials

    def evaluate(self, scenarios, raw, records: List[SimRecord]) -> Evaluation:
        ev = Evaluation()
        _common_checks(records, ev)
        _result_layers(records, ev)
        for outcome, main in raw:
            if not outcome.passed:
                detail = "; ".join(v.render() for v in outcome.violations)
                ev.problems.append(
                    (main, f"{outcome.scenario.name}: oracle: {detail}")
                )
        return ev


class Overload:
    """lard, 8 nodes, calgary plus the seeded flash ramp, through
    ``overload_frontier``: knee, then open-loop Poisson arrivals at 1x
    and 3x the knee, bare and admitted."""

    name = "overload"

    def setup(self, seed: int, size: Dict[str, int]):
        return seed, _trace(OVERLOAD_TRACE, size["overload_requests"], seed)

    def execute(self, inputs, log: SimLog):
        seed, trace = inputs
        return overload_exp.overload_frontier(
            OVERLOAD_POLICY,
            trace=trace,
            nodes=OVERLOAD_NODES,
            multipliers=OVERLOAD_MULTIPLIERS,
            deadline_s=OVERLOAD_DEADLINE_S,
            seed=seed,
        )

    def evaluate(self, inputs, frontier, records: List[SimRecord]) -> Evaluation:
        ev = Evaluation()
        _common_checks(records, ev)
        _result_layers(records, ev)
        _, bare3 = frontier.bare
        adm1, adm3 = frontier.controlled
        if adm3.goodput_rps <= bare3.goodput_rps:
            ev.problems.append(
                (len(records) - 1,
                 f"3x knee: admitted goodput {adm3.goodput_rps:.1f} does not "
                 f"beat bare {bare3.goodput_rps:.1f}")
            )
        ev.layer.update(
            {
                "overload.knee_rps": frontier.knee_rps,
                "overload.goodput_rps.3x": adm3.goodput_rps,
                "overload.bare_goodput_rps.3x": bare3.goodput_rps,
                "overload.shed_fraction.3x": adm3.shed_fraction,
                "overload.p50_ms.1x": adm1.percentiles["p50"] * 1e3,
                "overload.p99_ms.1x": adm1.percentiles["p99"] * 1e3,
            }
        )
        return ev


WORKLOADS = {w.name: w for w in (Saturation(), Chaos(), Overload())}
