"""Repository benchmark: host time and simulated-cluster metrics of repro.

Usage, from the repository root::

    python3 perfbench/run.py --workload saturation --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload chaos --trace 1      # per-layer metrics

Workloads are ``saturation``, ``chaos`` and ``overload`` (``BENCHMARK.json``
says why each exists; ``perfbench/catalog.json`` gives its default and
held-out seeds, and which layer metric should move which end-to-end
metric).

``--trace 0`` repeats the workload's iteration (set-up, then the timed
phase) at least three times and as often as fits in ``--seconds``, and
reports every end-to-end metric of ``BENCHMARK.json``: host ``wall_s``
(one timed phase, each simulation in it timed by the median of its
repeats, see ``pass_time``),
``setup_s`` (the median import of repro, timed by ``import_probe.py``,
plus the median set-up; both are sampled before and after the timed
phase), ``peak_rss_mb``, ``sim_served_fraction`` over the workload's
own simulations, and the saturation lard throughputs.  Those depend on the
seed alone, so every run executes the two lard simulations once, on
longer traces than saturation's timed phase, after the timing.

``--trace 1`` alternates untraced and traced iterations for
``--seconds`` and reports every per-layer metric of ``BENCHMARK.json``
from the median traced iteration; metrics of layers a workload never
calls read 0.

Every simulation is checked: ``SimResult.verify()``, the model bound on
saturation runs, the chaos oracle, admitted-beats-bare goodput at 3x on
overload, identical simulated results across iterations, and traced
equal to untraced.  ``attempted`` counts simulations run, ``failed``
those with a failed check.  The last stdout line is the JSON summary;
the full record, with every iteration's values, their quartiles and
machine metadata, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("saturation", "chaos", "overload")
#: Imports of repro and extra set-ups timed before, and again after, the
#: timed phase: the host's speed drifts over tens of seconds, so the
#: set-up samples span the whole run.
IMPORTS_PER_SIDE = 5
SETUPS_PER_SIDE = 3
#: Fewest passes of the timed phase in a run, so that every simulation
#: has a median of at least three repeats.
MIN_PASSES = 3


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return seed


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=seed_arg, default=None,
                   help="input seed (default: the workload's default seed)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time of the run (at least three passes "
                        "with --trace 0)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="work per iteration; tiny is for the benchmark's tests")
    p.add_argument("--out-dir", default=str(OUT_DIR),
                   help="where the run record and span table are written")
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def pass_time(walls: List[float], sim_walls: List[List[float]]) -> float:
    """Host seconds of one pass of the timed phase, from several passes
    of identical work: each simulation's seconds are the median of its
    repeats, and so are the rest of the pass's (the workload's own code
    between simulations).  A slow spell of the host shorter than a pass
    slows one repeat of a simulation, not its median."""
    if len({len(s) for s in sim_walls}) != 1:
        return statistics.median(walls)
    rest = [w - sum(s) for w, s in zip(walls, sim_walls)]
    return sum(statistics.median(t) for t in zip(*sim_walls)) + statistics.median(rest)


def machine() -> Dict[str, object]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": usable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_imports(rounds: int) -> List[float]:
    """Seconds to import repro, ``rounds`` times in a fresh interpreter
    (see ``import_probe.py``)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "import_probe.py"), str(rounds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return [float(x) for x in json.loads(proc.stdout.strip().splitlines()[-1])]


class Runner:
    """Runs iterations of one workload and keeps the check tally."""

    def __init__(self, workloads_mod, seed: int, size: Dict[str, int]):
        self.seed = seed
        self.size = size
        self.log = workloads_mod.SimLog()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._reference: Dict[str, List[str]] = {}

    def iteration(self, workload, setup=None, label: Optional[str] = None):
        """One set-up + execute + evaluate; returns
        (setup_s, execute_s, evaluation, records)."""
        gc.collect()
        t0 = time.perf_counter()
        inputs = (setup or workload.setup)(self.seed, self.size)
        t1 = time.perf_counter()
        mark = len(self.log.records)
        raw = workload.execute(inputs, self.log)
        t2 = time.perf_counter()
        records = self.log.records[mark:]
        ev = workload.evaluate(inputs, raw, records)
        self.tally(label or workload.name, records, ev.problems)
        return t1 - t0, t2 - t1, ev, records

    def tally(self, label: str, records, problems: List[Tuple[int, str]],
              reference_key: Optional[str] = None) -> None:
        """Count the simulations and the ones with a failed check; every
        iteration of ``label`` must reproduce the first one exactly."""
        bad = {i for i, _ in problems}
        self.problems.extend(f"{label}: {text}" for _, text in problems)
        digests = [r.digest() for r in records]
        ref = self._reference.setdefault(reference_key or label, digests)
        if digests != ref:
            mismatched = {
                i for i in range(max(len(ref), len(digests)))
                if i >= len(ref) or i >= len(digests) or ref[i] != digests[i]
            }
            bad |= {i for i in mismatched if i < len(digests)}
            self.problems.append(
                f"{label}: simulated results differ from the first iteration "
                f"in {len(mismatched)} simulation(s)"
            )
        self.attempted += len(records)
        self.failed += len(bad)


def timed_run(args, spec, workloads_mod, process_import_s: float) -> Tuple[dict, dict]:
    workload = workloads_mod.WORKLOADS[args.workload]
    runner = Runner(workloads_mod, args.seed, workloads_mod.SIZES[args.size])
    runner.log.install()
    imports: List[float] = []
    setups: List[float] = []
    walls: List[float] = []
    sim_walls: List[List[float]] = []
    sim: Dict[str, float] = {}

    def setup_rounds() -> None:
        imports.extend(time_imports(IMPORTS_PER_SIDE))
        for _ in range(SETUPS_PER_SIDE):
            t0 = time.perf_counter()
            workload.setup(args.seed, runner.size)
            setups.append(time.perf_counter() - t0)

    setup_rounds()
    start = time.perf_counter()
    while True:
        setup_s, wall_s, ev, records = runner.iteration(workload)
        setups.append(setup_s)
        walls.append(wall_s)
        sim_walls.append([r.wall_s for r in records])
        sim.update(ev.sim)
        # Start another pass only if it ends within --seconds.
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
            break
    setup_rounds()
    rss = peak_rss_mb()

    # The saturation throughput metrics depend on the seed alone; every
    # workload runs those simulations once, outside the timing.
    sat = workloads_mod.WORKLOADS["saturation"]
    _, probe_s, ev, _ = runner.iteration(sat, setup=sat.probe, label="probe")
    sim.update((k, v) for k, v in ev.sim.items() if k.startswith("sim_tput_rps."))
    probes = [{"workload": "saturation (lard)", "execute_s": probe_s}]
    runner.log.uninstall()

    values: Dict[str, float] = {
        "wall_s": pass_time(walls, sim_walls),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": rss,
        **sim,
    }
    record = {
        "iterations": len(walls),
        "pass_s_runs": walls,
        "pass_s_quartiles": quartiles(walls),
        "process_import_s": process_import_s,
        "import_s_runs": imports,
        "import_s_quartiles": quartiles(imports),
        "setup_s_runs": setups,
        "setup_s_quartiles": quartiles(setups),
        "probes": probes,
    }
    return finish(args, spec["end_to_end"], values, runner, record)


def traced_run(args, spec, workloads_mod, process_import_s: float) -> Tuple[dict, dict]:
    import layers

    workload = workloads_mod.WORKLOADS[args.workload]
    runner = Runner(workloads_mod, args.seed, workloads_mod.SIZES[args.size])
    runner.log.install()
    untraced: List[Tuple[float, float, dict]] = []
    traced: List[Tuple[float, dict, object]] = []
    start = time.perf_counter()
    while True:
        setup_s, wall_s, ev, records = runner.iteration(workload)
        sim_run_s = sum(r.wall_s for r in records)
        untraced.append((setup_s + wall_s, sim_run_s, ev.layer))

        def setup_and_execute():
            inputs = workload.setup(args.seed, runner.size)
            return inputs, workload.execute(inputs, runner.log)

        gc.collect()
        tracer = layers.install()
        mark = len(runner.log.records)
        try:
            inputs, raw = tracer.span(layers.ROOT, setup_and_execute)
        finally:
            tracer.uninstall()
        t_records = runner.log.records[mark:]
        t_ev = workload.evaluate(inputs, raw, t_records)
        runner.tally(workload.name + " (traced)", t_records, t_ev.problems,
                     reference_key=workload.name)
        table = tracer.table()
        metrics = layers.span_metrics(table, tracer.counters)
        traced.append((metrics["bench.traced_wall_s"], metrics, table))
        if time.perf_counter() - start >= args.seconds:
            break
    runner.log.uninstall()

    untraced_totals = [u[0] for u in untraced]
    traced_totals = [t[0] for t in traced]
    pick = layers.median_index(traced_totals)
    mid = layers.median_index(untraced_totals)
    produced = {**untraced[mid][2], **traced[pick][1]}
    unknown = set(produced) - {m["name"] for m in spec["per_layer"]}
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # Layers the workload never calls did no work: they read 0.
    values: Dict[str, float] = {m["name"]: 0.0 for m in spec["per_layer"]}
    values.update(produced)
    values["des.events_per_s"] = (
        values["des.events"] / untraced[mid][1] if untraced[mid][1] > 0 else 0.0
    )
    values["bench.trace_overhead"] = statistics.median(traced_totals) / statistics.median(
        untraced_totals
    )
    table = traced[pick][2]
    os.makedirs(args.out_dir, exist_ok=True)
    spans_path = os.path.join(
        args.out_dir, f"spans-{args.workload}-seed{args.seed}.npz"
    )
    table.write_npz(spans_path)
    record = {
        "iterations": len(traced),
        "untraced_s_runs": untraced_totals,
        "traced_s_runs": traced_totals,
        "traced_s_quartiles": quartiles(traced_totals),
        "untraced_s_quartiles": quartiles(untraced_totals),
        "spans": len(table),
        "spans_file": spans_path,
        "process_import_s": process_import_s,
    }
    return finish(args, spec["per_layer"], values, runner, record)


def finish(args, listed: List[dict], values: Dict[str, float], runner: Runner,
           record: dict) -> Tuple[dict, dict]:
    names = [m["name"] for m in listed]
    missing = [n for n in names if n not in values]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in listed
    }
    summary = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "machine": machine(),
        "failed_fraction": runner.failed / runner.attempted,
        "problems": runner.problems[:50],
        **record,
        **summary,
    }
    return summary, full


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads as workloads_mod  # imports repro

    process_import_s = time.perf_counter() - t0
    if args.seed is None:
        with open(HERE / "catalog.json") as f:
            args.seed = json.load(f)["workloads"][args.workload]["default_seed"]
    spec = load_spec()
    run = traced_run if args.trace else timed_run
    summary, full = run(args, spec, workloads_mod, process_import_s)

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(
        args.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as f:
        json.dump(full, f, indent=2)
    width = max(len(n) for n in summary["metrics"])
    for name, m in summary["metrics"].items():
        print(f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']}")
    print(
        f"simulations {summary['attempted']}, failed {summary['failed']}"
        f" (failed_fraction {full['failed_fraction']:.4g}); record: {path}"
    )
    for problem in full["problems"][:10]:
        print(f"  problem: {problem}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
