"""Chaos runs are identical on both request lifecycles.

The callback-chain lifecycle covers netfault hand-offs and lard-ng's
dispatcher queries; ``REPRO_SIM_FASTPATH=0`` keeps the generator
lifecycle as the reference.  Every simulation a scenario runs — the
perturbed run and, for workload items, its counterfactual baseline —
must produce the same bytes on both.
"""

from dataclasses import asdict

import pytest

from repro.chaos.generator import ScenarioGenerator
from repro.chaos.runner import render_report, run_scenario
from repro.sim import Simulation

TRIALS = range(8)


@pytest.fixture(scope="module")
def generator():
    return ScenarioGenerator(42, requests=300)


def _recorded_run(monkeypatch, scenario, fastpath):
    """``run_scenario`` plus the repr of every simulation it ran."""
    monkeypatch.setenv("REPRO_SIM_FASTPATH", fastpath)
    runs = []
    run = Simulation.run

    def recording_run(sim):
        result = run(sim)
        assert sim._fastpath == (fastpath == "1")
        runs.append(repr((asdict(result), sim.completion_times)))
        return result

    monkeypatch.setattr(Simulation, "run", recording_run)
    outcome = run_scenario(scenario)
    monkeypatch.setattr(Simulation, "run", run)
    return outcome, runs


@pytest.mark.parametrize("trial", TRIALS)
def test_run_scenario_identical_across_lifecycles(monkeypatch, generator, trial):
    scenario = generator.generate(trial)
    fast, fast_runs = _recorded_run(monkeypatch, scenario, "1")
    slow, slow_runs = _recorded_run(monkeypatch, scenario, "0")
    assert fast.passed, render_report(fast)
    assert fast_runs, "the scenario ran no simulation"
    assert fast_runs == slow_runs
    assert render_report(fast) == render_report(slow)


def test_trials_cover_netfaults_lard_ng_and_baselines(generator):
    """The trials above reach every gap the callback chain now covers."""
    scenarios = [generator.generate(t) for t in TRIALS]
    assert any(s.netfault_config() is not None for s in scenarios)
    assert any(s.policy == "lard-ng" for s in scenarios)
    assert any(s.workload_items() for s in scenarios)
