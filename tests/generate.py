"""Synthetic model generators for property tests and experiments.

Everything takes an explicit random generator so runs are reproducible:
a `random.Random` for models, a `numpy.random.Generator` for Kalman systems.
Time coordinates are exact hundredths of a second, and measures are small
integers, which keeps every arithmetic identity exact.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oitkit.metrics import EquivalenceRelation, RelationSet
from oitkit.model import (
    CopyRecord,
    InformationModel,
    MeasureAssignment,
    StateEntry,
)
from oitkit.timeset import TimeSet


def random_timeset(rng: random.Random, lo: int = 0, hi: int = 10_000) -> TimeSet:
    """A union of one or two intervals and up to one point, centisecond grid."""
    def tick(a: int, b: int) -> Fraction:
        return Fraction(rng.randrange(a, b), 100)

    start = rng.randrange(lo, hi)
    pieces = []
    cursor = start
    for _ in range(rng.randint(1, 2)):
        a = cursor
        b = a + rng.randrange(1, 200)
        pieces.append((Fraction(a, 100), Fraction(b, 100)))
        cursor = b + rng.randrange(1, 200)
    points = []
    if rng.random() < 0.3:
        points.append(Fraction(cursor + rng.randrange(1, 100), 100))
    return TimeSet(intervals=pieces, points=points)


def sub_timeset(rng: random.Random, whole: TimeSet) -> TimeSet:
    """A nonempty subset of `whole`: the whole, one component, or one point."""
    roll = rng.random()
    if roll < 0.4:
        return whole
    lo, hi = rng.choice(whole.intervals) if whole.intervals else (None, None)
    if lo is not None and roll < 0.8:
        span = hi - lo
        a = lo + span * Fraction(rng.randrange(0, 50), 100)
        b = hi - span * Fraction(rng.randrange(0, 50), 100)
        if a <= b:
            return TimeSet(intervals=[(a, b)])
        return TimeSet(points=[lo])
    if whole.points and rng.random() < 0.5:
        return TimeSet(points=[rng.choice(whole.points)])
    if lo is not None:
        return TimeSet(points=[lo])
    return TimeSet(points=[rng.choice(whole.points)])


def _random_value(rng: random.Random, tag: str):
    roll = rng.random()
    if roll < 0.5:
        return f"{tag}{rng.randrange(10**6)}"
    if roll < 0.75:
        return rng.randrange(-1000, 1000)
    return tuple(float(rng.randrange(-50, 50)) for _ in range(rng.randint(1, 3)))


def _distinct_values(rng: random.Random, count: int, tag: str) -> list:
    seen = set()
    out = []
    while len(out) < count:
        candidate = _random_value(rng, tag)
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)
    return out


def random_restorable_model(
    rng: random.Random,
    max_states: int = 6,
    with_duplicates: bool = False,
    integer_measures: bool = True,
    n_states: int | None = None,
) -> InformationModel:
    """A valid, restorable model with a bijective index mapping, of
    `n_states` states when given (and of 1 to `max_states` when not).

    With `with_duplicates`, extra state entries repeating an existing value
    are added and mapped onto the same reflection as the entry they repeat —
    still restorable, but no longer atomisable without overlap.
    """
    n = n_states or rng.randint(1, max_states)
    noumena = [f"n{i}" for i in range(rng.randint(1, 4))]
    carriers = [f"c{i}" for i in range(rng.randint(1, 4))]
    occurrence = random_timeset(rng)
    reflection_time = random_timeset(rng, lo=10_000, hi=20_000)

    state_values = _distinct_values(rng, n, "s")
    reflection_values = _distinct_values(rng, n, "r")
    states = [
        StateEntry(
            rng.sample(noumena, rng.randint(1, len(noumena))),
            sub_timeset(rng, occurrence),
            value,
        )
        for value in state_values
    ]
    reflections = [
        StateEntry(
            rng.sample(carriers, rng.randint(1, len(carriers))),
            sub_timeset(rng, reflection_time),
            value,
        )
        for value in reflection_values
    ]
    targets = list(range(n))
    rng.shuffle(targets)
    mapping = list(enumerate(targets))

    if with_duplicates and rng.random() < 0.7:
        for _ in range(rng.randint(1, 2)):
            source = rng.randrange(n)
            states.append(states[source])
            mapping.append((len(states) - 1, targets[source]))

    def measure(rng_: random.Random):
        return rng_.randrange(0, 50) if integer_measures else rng_.uniform(0, 50)

    measures = MeasureAssignment(
        noumenon={e: measure(rng) for e in noumena},
        carrier={e: measure(rng) for e in carriers},
        reflection={i: measure(rng) for i in range(n)},
    )
    copies = None
    if rng.random() < 0.5:
        copies = [CopyRecord(measure(rng), 1) for _ in range(rng.randint(1, 3))]
    return InformationModel(
        noumena=noumena,
        carriers=carriers,
        occurrence=occurrence,
        reflection_time=reflection_time,
        states=states,
        reflections=reflections,
        mapping=mapping,
        measures=measures,
        copies=copies,
    )


def random_chain(
    rng: random.Random, links: int = 3, states: int = 3
) -> list[InformationModel]:
    """A valid serial transmission chain of restorable bijective links."""
    chain: list[InformationModel] = []
    noumena = [f"h0e{i}" for i in range(rng.randint(1, 3))]
    occurrence = random_timeset(rng, lo=0, hi=5_000)
    values = _distinct_values(rng, states, "v0x")
    entries = [
        StateEntry(
            rng.sample(noumena, rng.randint(1, len(noumena))),
            sub_timeset(rng, occurrence),
            value,
        )
        for value in values
    ]
    for hop in range(links):
        carriers = [f"h{hop + 1}e{i}" for i in range(rng.randint(1, 3))]
        reflection_time = random_timeset(
            rng, lo=(hop + 1) * 10_000, hi=(hop + 1) * 10_000 + 5_000
        )
        out_values = _distinct_values(rng, states, f"v{hop + 1}x")
        out_entries = [
            StateEntry(
                rng.sample(carriers, rng.randint(1, len(carriers))),
                sub_timeset(rng, reflection_time),
                value,
            )
            for value in out_values
        ]
        targets = list(range(states))
        rng.shuffle(targets)
        chain.append(
            InformationModel(
                noumena=noumena,
                carriers=carriers,
                occurrence=occurrence,
                reflection_time=reflection_time,
                states=entries,
                reflections=out_entries,
                mapping=list(enumerate(targets)),
                label=f"link{hop}",
            )
        )
        noumena, occurrence, entries = carriers, reflection_time, out_entries
    return chain


def random_relation(rng: random.Random, model: InformationModel):
    """A total equivalence relation constant on duplicate state values."""
    class_count = rng.randint(1, max(1, len(model.states)))
    by_key: dict = {}
    labels = {}
    for i, entry in enumerate(model.states):
        key = entry.key()
        if key not in by_key:
            by_key[key] = f"class{rng.randrange(class_count)}"
        labels[i] = by_key[key]
    return EquivalenceRelation(labels)


def random_relation_set(rng: random.Random, model: InformationModel):
    """Random labelled edges over the model's state indices."""
    n = len(model.states)
    edges = [
        (rng.randrange(n), rng.randrange(n), f"rel{rng.randrange(3)}")
        for _ in range(rng.randrange(0, 2 * n + 1))
    ]
    return RelationSet(edges)


def random_system(rng, max_dim: int = 3, max_steps: int = 30):
    """A random linear Gaussian system, with state and measurement sizes in
    1..max_dim and A scaled to spectral radius 0.3–1.05, plus 1..max_steps
    measurement rows; `rng` is a `numpy.random.Generator`."""
    import numpy as np  # only the Kalman callers need numpy

    from oitkit.classical import LinearSystemSpec

    n = int(rng.integers(1, max_dim + 1))
    p = int(rng.integers(1, max_dim + 1))
    A = rng.normal(size=(n, n))
    radius = max(abs(np.linalg.eigvals(A)))
    if radius > 0:
        A *= rng.uniform(0.3, 1.05) / radius
    H = rng.normal(size=(p, n))
    L = rng.normal(size=(n, n)) * 0.5
    M = rng.normal(size=(p, p)) * 0.5
    L0 = rng.normal(size=(n, n)) * 0.5
    system = LinearSystemSpec(
        A=A,
        H=H,
        Q=L @ L.T,
        R=M @ M.T + 0.2 * np.eye(p),
        x0=rng.normal(size=n),
        P0=L0 @ L0.T,
    )
    z = rng.normal(size=(int(rng.integers(1, max_steps + 1)), p))
    return system, z
