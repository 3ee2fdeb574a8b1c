"""Golden SimResult digests: kernel and lifecycle changes must not move
a single simulated number.

Each case stores the sha256 of ``repr(dataclasses.asdict(result))`` and
the environment's ``event_count`` for every simulation it runs, in
``tests/data/golden_simresults.json``.  The cases span the paths a
station visit can take: the paper's saturation configurations, a
crash/recover/slow fault run, a lossy fabric with switch contention,
chaos trials (netfaults, lard-ng's dispatcher queries, a flash crowd)
and an admitted overload point.

The digests are a record of behaviour, not a tolerance: regenerate them
(``PYTHONPATH=src python -m tests.sim.test_golden_results --write``)
only for a change that is meant to move simulated results, and say so
where the change is described.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.chaos.generator import ScenarioGenerator
from repro.chaos.runner import run_scenario
from repro.cluster import ClusterConfig
from repro.experiments import run_fault_simulation, run_netfault_simulation
from repro.experiments.overload import find_knee
from repro.faults import FaultSchedule, RetryPolicy
from repro.model import MB
from repro.netfaults import NetFaultConfig
from repro.overload import OverloadControl
from repro.servers import make_policy
from repro.sim import Simulation
from repro.workload import synthesize
from repro.workload.tracegen import flash_ramp_trace

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden_simresults.json"

SATURATION_TRACES = ("calgary", "clarknet")
SATURATION_POLICIES = ("traditional", "lard", "l2s")


def _digest(result) -> str:
    body = repr(dataclasses.asdict(result)).encode()
    return hashlib.sha256(body).hexdigest()


def _recording(fn: Callable[[], object]) -> List[Dict[str, object]]:
    """Run ``fn`` and return the digest and event count of every
    ``Simulation.run`` it caused, in order."""
    runs: List[Dict[str, object]] = []
    original = Simulation.run

    def run(sim):
        result = original(sim)
        runs.append({"sha256": _digest(result), "events": sim.env.event_count})
        return result

    Simulation.run = run
    try:
        fn()
    finally:
        Simulation.run = original
    return runs


def _saturation(trace_name: str, policy: str) -> Callable[[], object]:
    def go():
        Simulation(
            synthesize(trace_name, 3000, seed=0),
            make_policy(policy),
            ClusterConfig(nodes=16, cache_bytes=32 * MB),
            passes=2,
            seed=0,
        ).run()

    return go


def _faults() -> None:
    # A slow CPU, then a crash and a cold recovery, with client retries
    # (no client timeout, so the callback chain carries every request).
    run_fault_simulation(
        synthesize("calgary", 2000, seed=0),
        "l2s",
        ClusterConfig(nodes=4, cache_bytes=4 * MB),
        FaultSchedule.parse("slow:1@6x0.5,crash:2@8.5,recover:2@10.5"),
        retry=RetryPolicy(),
    )


def _netfaults() -> None:
    nf = NetFaultConfig(loss_rate=0.02, dup_rate=0.005, jitter_s=2e-5, seed=5)
    run_netfault_simulation(
        synthesize("calgary", 2000, seed=0),
        "lard",
        ClusterConfig(
            nodes=4,
            cache_bytes=4 * MB,
            net_faults=nf,
            model_switch_contention=True,
        ),
    )


def _chaos(trial: int) -> Callable[[], object]:
    def go():
        run_scenario(ScenarioGenerator(42, requests=300).generate(trial))

    return go


def _overload() -> None:
    trace = flash_ramp_trace(
        synthesize("calgary", 3000, seed=0),
        ramp_start=0.3,
        ramp_end=0.7,
        peak_share=0.6,
        seed=0,
    )
    knee = find_knee(trace, "lard", 8, seed=0)
    Simulation(
        trace,
        make_policy("lard"),
        ClusterConfig(nodes=8),
        passes=2,
        arrival_rate=3.0 * knee,
        record_latencies=True,
        overload=OverloadControl.default(
            8,
            limiter_mode="aimd",
            target_latency_s=0.125,
            deadline_s=0.25,
            seed=0,
        ),
        seed=0,
    ).run()


CASES: Dict[str, Callable[[], object]] = {
    **{
        f"saturation.{t}.{p}": _saturation(t, p)
        for t in SATURATION_TRACES
        for p in SATURATION_POLICIES
    },
    "faults.crash_recover": _faults,
    "netfaults.lossy": _netfaults,
    **{f"chaos.s42.t{trial}": _chaos(trial) for trial in range(4)},
    "overload.3x.admitted": _overload,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_has_a_digest(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(golden, case):
    assert _recording(CASES[case]) == golden[case]


def _write() -> None:
    table = {case: _recording(fn) for case, fn in sorted(CASES.items())}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.sim.test_golden_results --write")
    _write()
