"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from layers import SELF_BUCKETS  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOG = json.loads((HERE / "catalog.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

def run_bench(tmp_dir: Path, workload: str, trace: int, seed: int = 5,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--size", "tiny", "--out-dir", str(tmp_dir),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Summary JSON of each (workload, trace) at tiny size, run once."""
    cache = {}
    out_dir = tmp_path_factory.mktemp("perfbench")

    def get(workload: str, trace: int, seed: int = 5):
        key = (workload, trace, seed)
        if key not in cache:
            proc = run_bench(out_dir, workload, trace, seed)
            assert proc.returncode == 0, proc.stderr[-3000:]
            cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_emitted_with_unit(outputs, workload, trace):
    out = outputs(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(outputs, workload):
    for name, m in outputs(workload, 0)["metrics"].items():
        assert m["value"] > 0, name


def test_same_seed_gives_identical_sim_metrics(outputs, tmp_path):
    first = outputs("saturation", 0)
    proc = run_bench(tmp_path, "saturation", 0)
    assert proc.returncode == 0, proc.stderr[-3000:]
    again = json.loads(proc.stdout.strip().splitlines()[-1])
    sim = [n for n in first["metrics"] if n.startswith("sim_")]
    assert sim
    for name in sim:
        assert first["metrics"][name] == again["metrics"][name], name


def test_another_seed_gives_other_inputs(outputs):
    a = outputs("saturation", 0)["metrics"]
    b = outputs("saturation", 0, seed=6)["metrics"]
    assert any(
        a[n]["value"] != b[n]["value"] for n in a if n.startswith("sim_tput_rps")
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_sum_to_traced_total(outputs, workload):
    metrics = outputs(workload, 1)["metrics"]
    total = metrics["bench.traced_wall_s"]["value"]
    assert total > 0
    parts = sum(metrics[name]["value"] for name in SELF_BUCKETS)
    assert parts == pytest.approx(total, rel=0.01)
    assert metrics["bench.trace_overhead"]["value"] > 0


def test_served_fraction_counts_faults_not_sheds(outputs):
    # overload injects no faults: its 3x points shed, but lose nothing.
    assert outputs("overload", 0)["metrics"]["sim_served_fraction"]["value"] == 1.0
    assert outputs("overload", 1)["metrics"]["overload.shed_fraction.3x"]["value"] > 0


def test_install_refuses_a_missing_target(monkeypatch):
    from repro.cluster.cache import LRUFileCache
    from repro.sim import Simulation

    run = Simulation.run
    monkeypatch.delattr(LRUFileCache, "insert")
    with pytest.raises(RuntimeError, match="LRUFileCache.insert"):
        layers.install()
    assert Simulation.run is run


def test_layers_reach_their_workloads(outputs):
    sat = outputs("saturation", 1)["metrics"]
    chaos = outputs("chaos", 1)["metrics"]
    ovl = outputs("overload", 1)["metrics"]
    assert sat["cluster.net.calls"]["value"] > 0
    assert sat["sim.slowpath_fraction"]["value"] == 0
    assert chaos["chaos.sim_runs"]["value"] >= 2
    assert chaos["sim.slowpath_fraction"]["value"] > 0
    assert ovl["overload.admit_calls"]["value"] > 0
    assert sat["overload.admit_calls"]["value"] == 0
    assert ovl["overload.point_s.3x.bare"]["value"] > 0


def test_benchmark_spec_matches_catalog():
    assert set(CATALOG["workloads"]) == set(WORKLOADS)
    for name, entry in CATALOG["workloads"].items():
        assert entry["default_seed"] != entry["held_out_seed"], name
    assert {"setup_s", "wall_s"} <= {m["name"] for m in SPEC["end_to_end"]}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for moved in CATALOG["moved_to_per_layer"]:
        assert moved["now"] in per_layer
    assert set(SELF_BUCKETS) <= per_layer


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / "out", "saturation", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_pass_time_takes_each_simulation_median():
    from run import pass_time

    # Two simulations and 1 s of other work per pass; a slow spell
    # doubles the first simulation in one pass and the second in another.
    sims = [[4.0, 2.0], [8.0, 2.0], [4.0, 4.0]]
    walls = [sum(s) + 1.0 for s in sims]
    assert pass_time(walls, sims) == pytest.approx(7.0)
    # Passes that ran different simulations fall back to the median pass.
    assert pass_time([3.0, 5.0, 4.0], [[1.0], [1.0, 2.0], [1.0]]) == 4.0


def test_tracer_self_time_covers_root_exactly():
    tracer = Tracer()

    def leaf():
        time.sleep(0.001)

    def middle():
        leaf_traced()
        leaf_traced()

    leaf_traced = tracer.wrap("leaf", leaf)
    tracer.span("root", tracer.wrap("middle", middle))
    table = tracer.table()
    assert table.counts() == {"leaf": 2, "middle": 1, "root": 1}
    root = float(table.duration[table.indices("root")].sum())
    assert sum(table.self_seconds().values()) == pytest.approx(root, rel=1e-9)
    assert table.self_seconds()["leaf"] >= 0.002
    assert all(table.parent[table.indices("leaf")] == table.indices("middle")[0])
