#!/usr/bin/env python3
"""Compare the recursive filter against a batch linear-MMSE solve.

For each random system the tests' oracle (`tests/oracles.py`) forms the
stacked joint Gaussian of all states and measurements explicitly and
conditions it on the measurements; the recursion must reproduce that
posterior mean step by step. Prints the worst relative deviation seen.

Usage: python scripts/kalman_vs_batch.py [systems] [seed]
"""

import sys
from pathlib import Path

import numpy as np

from oitkit.classical import kalman_filter

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from generate import random_system  # noqa: E402  (the tests' system generator)
from oracles import batch_mmse  # noqa: E402  (the tests' independent Kalman oracle)


def main(systems: int = 50, seed: int = 3) -> int:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(systems):
        system, z = random_system(rng)
        steps = kalman_filter(system, z)
        for k, step in enumerate(steps, start=1):
            oracle = batch_mmse(system, z, k)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            worst = max(worst, float(np.max(np.abs(step.x - oracle))) / scale)
    print(f"systems: {systems} (seed {seed})")
    print(f"worst relative deviation from batch MMSE: {worst:.3e}")
    return 0 if worst < 1e-9 else 1


if __name__ == "__main__":
    systems = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    raise SystemExit(main(systems, seed))
