"""Time importing repro, several times in one fresh interpreter.

Usage, from the repository root::

    python3 perfbench/import_probe.py 5

prints a JSON list of 5 import times in seconds.  numpy, repro's one
third-party dependency, is loaded first and kept.  Every module the
import of repro then loads, standard-library modules included, is
dropped from ``sys.modules`` before the next round, so each round
imports repro as a fresh interpreter would and a dependency added to
repro shows in every sample.  Many samples from one interpreter are
steadier than one sample from each of many interpreters.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(rounds: int) -> list:
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    import numpy  # noqa: F401

    baseline = set(sys.modules)
    samples = []
    for _ in range(rounds):
        for name in set(sys.modules) - baseline:
            del sys.modules[name]
        t0 = time.perf_counter()
        import workloads  # noqa: F401  (imports repro)

        samples.append(time.perf_counter() - t0)
    return samples


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]))))
