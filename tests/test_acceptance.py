"""Acceptance suite: twelve numbered end-to-end criteria, each with its
tolerance pinned, printing one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines on
passing runs too).
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from oitkit.classical import (
    LinearSystemSpec,
    SearchSetup,
    aggregation_invariance_check,
    asl,
    bisection_average_depth,
    kalman_filter,
    metcalfe_value,
    network_value_check,
    nyquist_min_rate,
    nyquist_restorable,
    radar_max_range,
    rayleigh_granularity,
    search_min_mismatch,
    shannon_min_volume,
    variety_invariance_check,
)
from oitkit.metrics import delay, volume
from oitkit.model import InformationModel, StateEntry, compose_chain, decompose_atomic, is_restorable
from oitkit.physics import PAPER, bits_per_kg, exact_transition_count, quantum_volume, qubits_per_kg_second, universe_info
from oitkit.scenarios import network_model
from oitkit.timeset import TimeSet

from generate import (
    random_chain,
    random_relation,
    random_relation_set,
    random_restorable_model,
)
from oracles import average_probes, batch_mmse, restorable_bruteforce
from test_model import enumerate_small_models


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_c01_universe_information_budget():
    start = time.perf_counter()
    doc = universe_info(PAPER)
    elapsed = time.perf_counter() - start
    printed = {
        "rho_c": 7.9e-27,
        "volume": 3.35e80,
        "mass": 2.6e54,
        "qubits": 6.1e122,
    }
    deviations = {
        key: abs(doc[key]["value"] - expected) / expected
        for key, expected in printed.items()
    }
    ok = all(dev <= 0.05 for dev in deviations.values()) and elapsed < 1.0
    report(
        "criterion 01: universe budget within 5% of the worked values",
        ok,
        ", ".join(f"{k} {v:.2%}" for k, v in deviations.items()) + f", {elapsed:.3f}s",
    )


def test_c02_bit_mass_bound():
    value = bits_per_kg(300.0, PAPER)
    formula = PAPER.C**2 / (PAPER.k_b * 300.0 * math.log(2))
    within_factor_4 = 1e37 / 4 <= value <= 4e37
    exact = abs(value - formula) / formula <= 1e-12
    report(
        "criterion 02: bits/kg at 300 K",
        within_factor_4 and exact,
        f"value {value:.4e}",
    )


def _quantum_cases(count: int, seed: int = 0):
    rng = random.Random(seed)
    for _ in range(count):
        et = 10 ** rng.uniform(-30, -10)
        split = 10 ** rng.uniform(-8, 8)
        yield et * split, 1.0 / split


def test_c03_quantum_volume_property_suite():
    start = time.perf_counter()
    energy = 2.0e-21
    dt = quantum_volume(energy, 0.0).transition_time

    # unit-step nondecreasing in t, and exact(0) = 1
    ok_steps = quantum_volume(energy, 0.0).exact == 1
    previous = 1
    for k in range(1, 200):
        t = k * dt * (1 + 1e-9)
        current = quantum_volume(energy, t).exact
        ok_steps = ok_steps and current == previous + 1
        previous = current

    # randomized cases: gap always in (0, 1], hence relative gap <= h/(4Et)
    violations = 0
    cases = 10_000
    for e, t in _quantum_cases(cases):
        qv = quantum_volume(e, t)
        cycles = exact_transition_count(e, t)
        gap = qv.exact - cycles
        if not (0 < gap <= 1) or gap / cycles > 1 / cycles:
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 03: quantum volume step/limit properties",
        ok_steps and violations == 0 and elapsed < 5.0,
        f"{cases} cases, {violations} violations, {elapsed:.2f}s",
    )


def test_c03_quantum_volume_relative_gap_pin():
    """Pinned sub-clause: relative gap < 1e-4 whenever E*t >= 1e-30 J*s.

    Known red: the counting formula bounds the relative gap only by
    h/(4*E*t), which at the E*t = 1e-30 boundary is 1.65e-4 > 1e-4; cases
    just past a step at that scale must exceed the pin. Guaranteed to hold
    only once E*t >= h*1e4/4 = 1.65e-30.
    """
    violations = 0
    worst = 0.0
    cases = 10_000
    for e, t in _quantum_cases(cases):
        qv = quantum_volume(e, t)
        cycles = exact_transition_count(e, t)
        rel = float((qv.exact - cycles) / cycles)
        worst = max(worst, rel)
        if rel >= 1e-4:
            violations += 1
    report(
        "criterion 03: relative gap below 1e-4 over the whole stated domain",
        violations == 0,
        f"{violations} of {cases} cases exceed the pin, worst {worst:.3e}; "
        f"bound admitted at the domain boundary is {PAPER.h / 4e-30:.3e}",
    )


def test_c04_volume_additivity():
    start = time.perf_counter()
    rng = random.Random(4)
    for _ in range(1000):
        m = random_restorable_model(rng, max_states=50, integer_measures=True)
        atoms = decompose_atomic(m)
        assert len(atoms) <= 50
        total = sum(a.reflection_measure for a in atoms)
        assert volume(m) == total  # exact integer equality
    elapsed = time.perf_counter() - start
    report(
        "criterion 04: volume additivity over atoms, 1000 models",
        elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_c05_serial_chain_delay():
    rng = random.Random(5)
    for _ in range(500):
        chain = random_chain(rng, links=rng.randint(1, 10), states=rng.randint(1, 3))
        composed = compose_chain(chain)
        link_sum = sum((delay(link) for link in chain), Fraction(0))
        assert delay(composed) == link_sum  # exact decimal arithmetic
    report("criterion 05: composed delay equals the sum of link delays", True, "500 chains")


def test_c06_entropy_calculator():
    exact_cases = (
        ([0.5, 0.5], 1.0),
        ([0.5, 0.25, 0.25], 1.5),
        ([0.125] * 8, 3.0),
    )
    ok = all(shannon_min_volume(p) == expected for p, expected in exact_cases)
    rng = random.Random(6)
    for _ in range(10_000):
        n = rng.randint(1, 16)
        raw = [rng.random() for _ in range(n)]
        total = sum(raw)
        h = shannon_min_volume([x / total for x in raw])
        ok = ok and 0.0 <= h <= math.log2(n) + 1e-12
    report("criterion 06: entropy bound, dyadic cases exact", ok, "10000 simplex points")


def test_c07_kalman_against_batch_mmse():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        radius = max(abs(np.linalg.eigvals(A)))
        if radius > 0:
            A *= rng.uniform(0.3, 1.05) / radius
        L = rng.normal(size=(n, n)) * 0.5
        M = rng.normal(size=(p, p)) * 0.5
        L0 = rng.normal(size=(n, n)) * 0.5
        system = LinearSystemSpec(
            A=A,
            H=rng.normal(size=(p, n)),
            Q=L @ L.T,
            R=M @ M.T + 0.2 * np.eye(p),
            x0=rng.normal(size=n),
            P0=L0 @ L0.T,
        )
        z = rng.normal(size=(int(rng.integers(1, 31)), p))
        steps = kalman_filter(system, z)
        for k, step in enumerate(steps, start=1):
            oracle = batch_mmse(system, z, k)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            worst = max(worst, float(np.max(np.abs(step.x - oracle))) / scale)
            assert float(np.min(np.linalg.eigvalsh(step.P))) >= -1e-10
    scalar = kalman_filter(
        LinearSystemSpec(A=[[1]], H=[[1]], Q=[[0]], R=[[1]], x0=[0], P0=[[1]]),
        [[1], [3]],
    )
    fixture_ok = (
        abs(scalar[1].x[0] - 4 / 3) <= 1e-12 and abs(scalar[1].P[0, 0] - 1 / 3) <= 1e-12
    )
    report(
        "criterion 07: filter matches batch MMSE at every step",
        worst < 1e-9 and fixture_ok,
        f"200 systems, worst relative deviation {worst:.3e}",
    )


def test_c08_average_search_length():
    ok = True
    for n in (1, 3, 7, 15, 31):
        total, count = average_probes(n)
        ok = ok and asl("bisection", n) == Fraction(total, count) == bisection_average_depth(n)
    for n in (1, 2, 7, 40):
        ok = ok and asl("sequential", n) == Fraction(n + 1, 2)

    # a family with no zero-mismatch member forces all n comparisons
    def station(i):
        t = TimeSet.span(0, 1)
        r = TimeSet.span(10, 11 + i)
        return InformationModel(
            noumena=["n"], carriers=["c"], occurrence=t, reflection_time=r,
            states=[StateEntry(["n"], t, "s")],
            reflections=[StateEntry(["c"], r, f"r{i}")],
            mapping=[(0, 0)],
        )

    candidates = [station(i) for i in range(5)]
    result = search_min_mismatch(SearchSetup(candidates, station(9), threshold=0))
    ok = ok and result.comparisons == 5 and result.mismatch > 0
    report("criterion 08: ASL closed forms and exhaustive search", ok, "n in {1,3,7,15,31}")


def test_c09_invariance_checks():
    rng = random.Random(9)
    variety_failures = aggregation_failures = 0
    for _ in range(1000):
        m = random_restorable_model(rng, max_states=8, with_duplicates=True)
        if not variety_invariance_check(m, random_relation(rng, m)).equal:
            variety_failures += 1
        if not aggregation_invariance_check(m, random_relation_set(rng, m)).equal:
            aggregation_failures += 1
    report(
        "criterion 09: variety and aggregation invariance, 1000 models each",
        variety_failures == 0 and aggregation_failures == 0,
        f"{variety_failures} + {aggregation_failures} counterexamples",
    )


def test_c10_scaling_laws():
    base = radar_max_range(1e6, 1e3, 1.0, 1e-13, 1.0)
    radar_ok = all(
        abs(radar_max_range(1e6, 1e3, 1.0, 1e-13, a) - base * a**0.25) <= 1e-12 * base * a**0.25
        for a in (0.5, 2.0, 16.0, 81.0)
    )
    g = rayleigh_granularity(500e-9, 5e-3)
    rayleigh_ok = (
        abs(rayleigh_granularity(1000e-9, 5e-3) - 2 * g) <= 1e-12
        and abs(rayleigh_granularity(500e-9, 10e-3) - g / 2) <= 1e-12
    )
    nyquist_ok = (
        nyquist_min_rate(Fraction(1, 2)) == 1
        and nyquist_restorable(1, Fraction(1, 2))
        and not nyquist_restorable(Fraction(999, 1000), Fraction(1, 2))
    )
    metcalfe_ok = all(
        network_value_check(network_model(n)).equal
        and metcalfe_value(n) == n * n
        for n in (1, 2, 4, 9)
    )
    report(
        "criterion 10: radar, resolution, sampling and network scaling laws",
        radar_ok and rayleigh_ok and nyquist_ok and metcalfe_ok,
    )


def test_c11_restorability_oracle_exhaustive():
    checked = 0
    for m in enumerate_small_models(max_states=4):
        assert is_restorable(m) == restorable_bruteforce(m)
        checked += 1
    report(
        "criterion 11: restorability equals all-pairs oracle on small models",
        checked == 359,
        f"{checked} models",
    )


def test_c12_documented_rate_discrepancy():
    doc = qubits_per_kg_second(PAPER)
    formula = 4 * PAPER.C**2 / PAPER.h
    ok = (
        abs(doc["qubits_per_kg_s"] - formula) / formula <= 1e-12
        and abs(doc["qubits_per_kg_s"] - 5.4545e50) / 5.4545e50 < 1e-3
        and doc["published_value"] == 5.3853e50
        and "differs" in doc["note"]
    )
    report(
        "criterion 12: 4C^2/h reported with its discrepancy note",
        ok,
        f"computed {doc['qubits_per_kg_s']:.4e}",
    )
