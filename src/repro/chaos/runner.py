"""Scenario execution: spec -> simulation -> verdict.

:func:`run_scenario` is the single execution path shared by ``repro
chaos run`` (fresh scenarios), ``repro chaos replay`` (a scenario file),
and the shrinker's predicate (candidate scenarios).  Everything the run
does derives from the :class:`~repro.chaos.spec.Scenario` alone, so the
same spec always produces the same :class:`~repro.sim.results.SimResult`
and the same violations — byte-identical replay reports are what the CI
chaos-smoke job diffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..cluster import ClusterConfig
from ..experiments.flashcrowd import flash_crowd_trace
from ..faults import RetryPolicy
from ..model import MB
from ..overload import OverloadControl
from ..servers import make_policy
from ..sim import SimResult, Simulation
from ..workload import Trace, synthesize
from ..workload.tracegen import flash_ramp_trace, popularity_churn_trace
from .oracle import ChaosOracle, OracleConfig, Violation
from .spec import Scenario

__all__ = [
    "ChaosOutcome",
    "run_scenario",
    "build_trace",
    "build_policy",
    "build_overload",
    "render_report",
]


@dataclass(frozen=True)
class ChaosOutcome:
    """One scenario's run: results, oracle verdicts, bookkeeping."""

    scenario: Scenario
    #: None when the run ended early (stranded requests — itself a
    #: conservation violation, so ``violations`` is never empty then).
    result: Optional[SimResult]
    violations: List[Violation]
    #: The driver's early-end error message, if any.
    early_error: Optional[str]
    #: Whole-run served fraction (completed / generated).
    served_fraction: float
    requests_failed: int
    requests_retried: int

    @property
    def passed(self) -> bool:
        return not self.violations


def _base_trace(scenario: Scenario) -> Trace:
    """The scenario's preset synthesis, before any workload item."""
    return synthesize(
        scenario.trace, num_requests=scenario.requests, seed=scenario.seed
    )


def build_trace(scenario: Scenario, base: Optional[Trace] = None) -> Trace:
    """The workload for a scenario: preset synthesis, then every
    workload-perturbation item (flash/ramp/churn) applied in plan order.

    ``base`` is the already-synthesized :func:`_base_trace`, if the caller
    has one; the item rewrites never modify their input, so it stays
    reusable.  The flash rewrite keeps ``scenario.seed`` (stored
    scenarios from before ramp/churn existed must replay
    byte-identically); ramp and churn derive per-item seeds from the plan
    position so two items of the same kind would not share randomness.
    """
    trace = base if base is not None else _base_trace(scenario)
    for position, item in enumerate(scenario.workload_items()):
        if item.kind == "flash":
            trace = flash_crowd_trace(
                trace,
                spike_start=item.start,
                spike_length=item.end - item.start,
                hot_share=item.share,
                hot_rank=item.rank,
                seed=scenario.seed,
            )
        elif item.kind == "ramp":
            trace = flash_ramp_trace(
                trace,
                ramp_start=item.start,
                ramp_end=item.end,
                peak_share=item.share,
                hot_rank=item.rank,
                seed=scenario.seed + position + 1,
            )
        elif item.kind == "churn":
            trace = popularity_churn_trace(
                trace,
                churn_start=item.start,
                churn_end=item.end,
                intensity=item.share,
                seed=scenario.seed + position + 1,
            )
    return trace


def build_policy(scenario: Scenario):
    """The scenario's policy instance, with per-policy knobs applied.

    Shared with the live chaos bridge so sim and live runs of the same
    spec configure the policy identically.
    """
    kwargs: Dict[str, Any] = {}
    if scenario.policy == "l2s" and scenario.view_max_age_s is not None:
        kwargs["view_max_age_s"] = scenario.view_max_age_s
    if scenario.policy == "lard-ng" and scenario.failover_s is not None:
        kwargs["failover_s"] = scenario.failover_s
    return make_policy(scenario.policy, **kwargs)


# Backward-compatible alias (pre-live-bridge private name).
_build_policy = build_policy


def build_overload(scenario: Scenario) -> Optional[OverloadControl]:
    """The scenario's overload control, or ``None`` when unconfigured.

    Shared with the live chaos bridge, like :func:`build_policy`, so
    both substrates gate the same spec with the same controller: an
    ``admission_limit`` gives a static in-flight cap, a ``deadline_s``
    alone engages the AIMD adaptive limit, and either one arms
    deadline-aware queue shedding.
    """
    if scenario.admission_limit is None and scenario.deadline_s is None:
        return None
    return OverloadControl.default(
        scenario.nodes,
        max_inflight=scenario.admission_limit,
        deadline_s=scenario.deadline_s,
        limiter_mode=None if scenario.admission_limit is not None else "aimd",
        seed=scenario.seed,
    )


def _baseline_times(
    scenario: Scenario,
    oracle: ChaosOracle,
    sanitize: Optional[bool],
    base: Trace,
) -> Optional[List[float]]:
    """Completion timestamps of the counterfactual no-perturbation run.

    The metastable oracle scores the perturbed run's tail against the
    *same scenario minus its workload items*: identical seed, trace
    base, faults, and retries, so the only tail-rate difference the two
    runs can show is damage the perturbation left behind.  Skipped (and
    the metastable check with it) when the scenario carries no workload
    items or the check is disabled.  ``base`` is the scenario's
    :func:`_base_trace`, shared with the perturbed run.
    """
    if not scenario.workload_items():
        return None
    if oracle.config.metastable_ratio <= 0.0:
        return None
    sim = Simulation(
        base,
        build_policy(scenario),
        ClusterConfig(
            nodes=scenario.nodes,
            cache_bytes=scenario.cache_mb * MB,
            net_faults=scenario.netfault_config(),
        ),
        warmup_fraction=0.1,
        passes=1,
        seed=scenario.seed,
        faults=scenario.fault_schedule(),
        retry=RetryPolicy(max_retries=scenario.retries),
        overload=build_overload(scenario),
        record_timeline=True,
        sanitize=sanitize,
    )
    try:
        sim.run()
    except RuntimeError:
        return None  # no healthy baseline to compare against
    return sim.completion_times


def run_scenario(
    scenario: Scenario,
    oracle_config: Optional[OracleConfig] = None,
    sanitize: Optional[bool] = None,
) -> ChaosOutcome:
    """Execute one scenario under the full oracle catalog."""
    # One synthesis serves both the perturbed run and its baseline.
    base = _base_trace(scenario)
    trace = build_trace(scenario, base)
    config = ClusterConfig(
        nodes=scenario.nodes,
        cache_bytes=scenario.cache_mb * MB,
        net_faults=scenario.netfault_config(),
    )
    sim = Simulation(
        trace,
        build_policy(scenario),
        config,
        warmup_fraction=0.1,
        passes=1,
        seed=scenario.seed,
        faults=scenario.fault_schedule(),
        retry=RetryPolicy(max_retries=scenario.retries),
        overload=build_overload(scenario),
        # Completion timestamps feed the metastable-failure oracle
        # (post-perturbation goodput re-convergence).
        record_timeline=bool(scenario.workload_items()),
        sanitize=sanitize,
    )
    oracle = ChaosOracle(scenario, oracle_config)
    oracle.attach(sim)
    result: Optional[SimResult] = None
    early: Optional[str] = None
    try:
        result = sim.run()
    except RuntimeError as exc:
        early = str(exc)
    violations = oracle.finish(
        early, baseline_times=_baseline_times(scenario, oracle, sanitize, base)
    )
    generated = max(1, sim._next)
    return ChaosOutcome(
        scenario=scenario,
        result=result,
        violations=violations,
        early_error=early,
        served_fraction=sim._completed / generated,
        requests_failed=sim._failed,
        requests_retried=sim._retried,
    )


def render_report(outcome: ChaosOutcome) -> str:
    """Deterministic text report for one outcome (replay diffs this)."""
    s = outcome.scenario
    lines = [
        s.describe(),
        f"  plan events: {s.event_count()}  "
        f"retries/request: {s.retries}  horizon est: {s.horizon_s:g}s",
    ]
    r = outcome.result
    if r is not None:
        lines.append(
            f"  served {r.requests_measured + r.requests_warmup}"
            f"/{r.requests_generated} "
            f"(fraction {outcome.served_fraction:.4f}), "
            f"failed {outcome.requests_failed}, "
            f"retried {outcome.requests_retried}, "
            f"shed {r.requests_shed}"
        )
        lines.append(
            f"  measured {r.requests_measured} requests at "
            f"{r.throughput_rps:.1f} req/s over {r.sim_seconds:.4f}s, "
            f"miss {r.miss_rate:.4f}, forwarded {r.forwarded_fraction:.4f}"
        )
    else:
        lines.append(
            f"  RUN ENDED EARLY: {outcome.early_error} "
            f"(served fraction {outcome.served_fraction:.4f})"
        )
    if outcome.violations:
        lines.append(f"  VIOLATIONS ({len(outcome.violations)}):")
        for v in outcome.violations:
            lines.append(f"    {v.render()}")
    else:
        lines.append("  oracles: all passed")
    return "\n".join(lines)
