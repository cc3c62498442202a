#!/usr/bin/env python3
"""Randomized sweep of the two invariance results: equivalence-class counts
(variety) and relations-per-element ratios (aggregation) transported through
restorable mappings. Prints how many trials were run and any counterexample.

Usage: python scripts/invariance_sweep.py [trials] [seed]
"""

import random
import sys
from pathlib import Path

from oitkit.classical import aggregation_invariance_check, variety_invariance_check

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from generate import (  # noqa: E402  (the tests' model generators)
    random_relation,
    random_relation_set,
    random_restorable_model,
)


def main(trials: int = 1000, seed: int = 7) -> int:
    rng = random.Random(seed)
    variety_bad = aggregation_bad = 0
    for _ in range(trials):
        model = random_restorable_model(rng, max_states=8, with_duplicates=True)
        v = variety_invariance_check(model, random_relation(rng, model))
        if not v.equal:
            variety_bad += 1
        a = aggregation_invariance_check(model, random_relation_set(rng, model))
        if not a.equal:
            aggregation_bad += 1
    print(f"trials: {trials} (seed {seed})")
    print(f"variety counterexamples: {variety_bad}")
    print(f"aggregation counterexamples: {aggregation_bad}")
    return 0 if variety_bad == aggregation_bad == 0 else 1


if __name__ == "__main__":
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    raise SystemExit(main(trials, seed))
