import copy
import dataclasses
import math
import pickle
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oitkit import model as model_module
from oitkit.errors import ChainMismatchError, InvalidModelError, NotRestorableError, OverlapError, UnknownIndexError
from oitkit.metrics import EquivalenceRelation, RelationSet, delay, metric_report, volume
from oitkit.model import (
    CopyRecord,
    InformationModel,
    MeasureAssignment,
    StateEntry,
    combine,
    compose_chain,
    decompose_atomic,
    is_restorable,
    make_atom,
    restore,
    validate,
)
from oitkit.scenarios import penguin_model
from oitkit.timeset import TimeSet

from generate import random_chain, random_restorable_model
from oracles import FractionTimeSet, restorable_bruteforce

T1 = TimeSet.span(0, 1)
T2 = TimeSet.span(10, 11)


def simple_model(n_states, mapping, state_values=None, reflection_values=None):
    """n states over one noumenon mapped into reflections over one carrier."""
    svals = state_values or [f"s{i}" for i in range(n_states)]
    n_refl = max(r for _, r in mapping) + 1
    rvals = reflection_values or [f"r{i}" for i in range(n_refl)]
    return InformationModel(
        noumena=["n"],
        carriers=["c"],
        occurrence=T1,
        reflection_time=T2,
        states=[StateEntry(["n"], T1, v) for v in svals],
        reflections=[StateEntry(["c"], T2, v) for v in rvals],
        mapping=mapping,
    )


def test_penguin_model_is_valid_and_restorable(penguin):
    report = validate(penguin)
    assert report.ok
    assert not report.warnings
    assert is_restorable(penguin)


def test_empty_carriers_violates_postulate_1(penguin):
    broken = InformationModel(
        noumena=penguin.noumena,
        carriers=[],
        occurrence=penguin.occurrence,
        reflection_time=penguin.reflection_time,
        states=penguin.states,
        reflections=penguin.reflections,
        mapping=penguin.mapping,
    )
    report = validate(broken)
    rules = {v.rule: v.postulate for v in report.violations}
    assert rules.get("carriers-nonempty") == "postulate-1"


def test_mapping_must_cover_every_reflection():
    # two reflection entries, but the mapping only ever reaches the first
    m = simple_model(2, [(0, 0), (1, 0)], reflection_values=["r0", "r1"])
    report = validate(m)
    assert "mapping-surjective" in {v.rule for v in report.violations}


ONE_PAIR = dict(
    noumena=["n"],
    carriers=["c"],
    occurrence=T1,
    reflection_time=T2,
    states=[StateEntry(["n"], T1, "s0")],
    reflections=[StateEntry(["c"], T2, "r0")],
    mapping=[(0, 0)],
)
P1, P2, P3, P4 = "postulate-1", "postulate-2", "postulate-3", "postulate-4"
SURJECTIVE = ("mapping-surjective", "every reflection entry must be the image of some state", P4)
TOTAL = ("mapping-total", "mapping must pair every state index exactly once", P4)
RANGE = ("mapping-range", "mapping references reflection indices that do not exist", P4)
DUPLICATE = (
    "duplicate-state-values",
    "states contain duplicate (subjects, time, value) entries; "
    "they are treated as a single state value",
    None,
)
NEGATIVE_DELAY = (
    "negative-delay", "reflection ends before the occurrence does, so delay is negative", P4
)
GHOST_NOUMENON = (
    "noumenon-measure-resolves", "noumenon measure assigned to unknown element 'ghost'", None
)
WARNING_RULES = {DUPLICATE[0], NEGATIVE_DELAY[0]}

# Every rule `validate` can report, each with a model (ONE_PAIR plus the
# overrides) and the exact (rule, message, postulate) list it gives, in
# report order: violations first, then warnings.
VIOLATION_CASES = {
    "noumena-nonempty": (
        dict(noumena=[]),
        [
            ("noumena-nonempty", "noumenon set is empty", P1),
            ("state-subjects-resolve", "state 0 references unknown noumena ['n']", P3),
        ],
    ),
    "carriers-nonempty": (
        dict(carriers=[]),
        [
            ("carriers-nonempty", "carrier set is empty", P1),
            ("reflection-subjects-resolve", "reflection 0 references unknown carriers ['c']", P3),
        ],
    ),
    "states-nonempty": (
        dict(states=[], mapping=[]),
        [("states-nonempty", "state set is empty", P3), SURJECTIVE],
    ),
    "reflections-nonempty": (
        dict(reflections=[], mapping=[]),
        [("reflections-nonempty", "reflection set is empty", P3), TOTAL],
    ),
    "state-subjects-nonempty": (
        dict(states=[StateEntry([], T1, "s0")]),
        [("state-subjects-nonempty", "state 0 has no subjects", P3)],
    ),
    "state-subjects-resolve": (
        dict(states=[StateEntry(["n", "ghost", "a"], T1, "s0")]),
        [("state-subjects-resolve", "state 0 references unknown noumena ['a', 'ghost']", P3)],
    ),
    "state-times-within-occurrence": (
        dict(states=[StateEntry(["n"], TimeSet.span(0, 5), "s0")]),
        [("state-times-within-occurrence", "state 0 has times outside the occurrence set", P2)],
    ),
    "reflection-subjects-nonempty": (
        dict(reflections=[StateEntry([], T2, "r0")]),
        [("reflection-subjects-nonempty", "reflection 0 has no subjects", P3)],
    ),
    "reflection-subjects-resolve": (
        dict(reflections=[StateEntry(["c", "z", "ghost"], T2, "r0")]),
        [
            (
                "reflection-subjects-resolve",
                "reflection 0 references unknown carriers ['ghost', 'z']",
                P3,
            )
        ],
    ),
    "reflection-times-within-duration": (
        dict(reflections=[StateEntry(["c"], TimeSet.span(10, 20), "r0")]),
        [
            (
                "reflection-times-within-duration",
                "reflection 0 has times outside the reflection time set",
                P2,
            )
        ],
    ),
    "mapping-total": (dict(mapping=[(0, 0), (0, 0)]), [TOTAL]),
    "mapping-range": (dict(mapping=[(0, 7)]), [RANGE, SURJECTIVE]),
    "mapping-surjective": (
        dict(reflections=[StateEntry(["c"], T2, "r0"), StateEntry(["c"], T2, "r1")]),
        [SURJECTIVE],
    ),
    "noumenon-measure-resolves": (
        dict(measures=MeasureAssignment(noumenon={"ghost": 1})),
        [GHOST_NOUMENON],
    ),
    "noumenon-measure-numeric": (
        dict(measures=MeasureAssignment(noumenon={"n": "x"})),
        [("noumenon-measure-numeric", "noumenon measure of 'n' is not a finite number", None)],
    ),
    "noumenon-measure-nonnegative": (
        dict(measures=MeasureAssignment(noumenon={"n": -1})),
        [("noumenon-measure-nonnegative", "noumenon measure of 'n' is negative", None)],
    ),
    "carrier-measure-resolves": (
        dict(measures=MeasureAssignment(carrier={"ghost": 1})),
        [("carrier-measure-resolves", "carrier measure assigned to unknown element 'ghost'", None)],
    ),
    "carrier-measure-numeric": (
        dict(measures=MeasureAssignment(carrier={"c": None})),
        [("carrier-measure-numeric", "carrier measure of 'c' is not a finite number", None)],
    ),
    "carrier-measure-nonnegative": (
        dict(measures=MeasureAssignment(carrier={"c": Fraction(-1, 2)})),
        [("carrier-measure-nonnegative", "carrier measure of 'c' is negative", None)],
    ),
    "reflection-measure-resolves": (
        dict(measures=MeasureAssignment(reflection={3: 1})),
        [("reflection-measure-resolves", "reflection measure assigned to unknown index 3", None)],
    ),
    "reflection-measure-numeric": (
        dict(measures=MeasureAssignment(reflection={0: math.nan})),
        [("reflection-measure-numeric", "reflection measure of 0 is not a finite number", None)],
    ),
    "reflection-measure-nonnegative": (
        dict(measures=MeasureAssignment(reflection={0: -1})),
        [("reflection-measure-nonnegative", "reflection measure of 0 is negative", None)],
    ),
    "copy-measure-numeric": (
        dict(copies=[CopyRecord(1), CopyRecord(math.inf)]),
        [("copy-measure-numeric", "copy 1 measure is not a finite number", None)],
    ),
    "copy-measure-nonnegative": (
        dict(copies=[CopyRecord(-1)]),
        [("copy-measure-nonnegative", "copy 0 has negative measure", None)],
    ),
    "copy-weight-numeric": (
        dict(copies=[CopyRecord(1, "2")]),
        [("copy-weight-numeric", "copy 0 weight is not a finite number", None)],
    ),
    "copy-weight-nonnegative": (
        dict(copies=[CopyRecord(1, -0.5)]),
        [("copy-weight-nonnegative", "copy 0 has negative weight", None)],
    ),
    "duplicate-state-values": (
        dict(states=[StateEntry(["n"], T1, "s0")] * 2, mapping=[(0, 0), (1, 0)]),
        [DUPLICATE],
    ),
    "negative-delay": (
        dict(
            occurrence=T2,
            reflection_time=T1,
            states=[StateEntry(["n"], T2, "s0")],
            reflections=[StateEntry(["c"], T1, "r0")],
        ),
        [NEGATIVE_DELAY],
    ),
    # one model breaking a rule of every group pins the order between groups
    "every-group": (
        dict(
            carriers=[],
            occurrence=T2,
            reflection_time=T1,
            states=[StateEntry([], T2, "s0")] + [StateEntry(["ghost"], T1, "s1")] * 2,
            reflections=[StateEntry(["c"], TimeSet.span(0, 2), "r0")],
            mapping=[(0, 0), (0, 0), (1, 3)],
            measures=MeasureAssignment(
                noumenon={"ghost": -1}, carrier={"c": "x"}, reflection={5: 1}
            ),
            copies=[CopyRecord(-1, math.nan)],
        ),
        [
            ("carriers-nonempty", "carrier set is empty", P1),
            ("state-subjects-nonempty", "state 0 has no subjects", P3),
            ("state-subjects-resolve", "state 1 references unknown noumena ['ghost']", P3),
            ("state-times-within-occurrence", "state 1 has times outside the occurrence set", P2),
            ("state-subjects-resolve", "state 2 references unknown noumena ['ghost']", P3),
            ("state-times-within-occurrence", "state 2 has times outside the occurrence set", P2),
            ("reflection-subjects-resolve", "reflection 0 references unknown carriers ['c']", P3),
            (
                "reflection-times-within-duration",
                "reflection 0 has times outside the reflection time set",
                P2,
            ),
            TOTAL,
            RANGE,
            GHOST_NOUMENON,
            ("noumenon-measure-nonnegative", "noumenon measure of 'ghost' is negative", None),
            ("carrier-measure-resolves", "carrier measure assigned to unknown element 'c'", None),
            ("carrier-measure-numeric", "carrier measure of 'c' is not a finite number", None),
            ("reflection-measure-resolves", "reflection measure assigned to unknown index 5", None),
            ("copy-measure-nonnegative", "copy 0 has negative measure", None),
            ("copy-weight-numeric", "copy 0 weight is not a finite number", None),
            DUPLICATE,
            NEGATIVE_DELAY,
        ],
    ),
}
REPORTED_RULES = {rule for _, expected in VIOLATION_CASES.values() for rule, _, _ in expected}


@pytest.mark.parametrize("rule", sorted(VIOLATION_CASES))
def test_validator_reports_each_violation(rule):
    overrides, expected = VIOLATION_CASES[rule]
    report = validate(InformationModel(**{**ONE_PAIR, **overrides}))
    assert [(v.rule, v.message, v.postulate) for v in report.violations] == [
        e for e in expected if e[0] not in WARNING_RULES
    ]
    assert [(w.rule, w.message, w.postulate) for w in report.warnings] == [
        e for e in expected if e[0] in WARNING_RULES
    ]


def test_violation_cases_cover_every_rule():
    assert REPORTED_RULES == set(VIOLATION_CASES) - {"every-group"}
    assert len(REPORTED_RULES - WARNING_RULES) == 26


def test_duplicate_state_values_only_warn():
    m = simple_model(2, [(0, 0), (1, 0)], state_values=["same", "same"])
    report = validate(m)
    assert report.ok
    assert "duplicate-state-values" in {w.rule for w in report.warnings}
    assert is_restorable(m)


def test_negative_delay_warns():
    m = InformationModel(
        noumena=["n"],
        carriers=["c"],
        occurrence=TimeSet.span(10, 20),
        reflection_time=TimeSet.span(0, 5),
        states=[StateEntry(["n"], TimeSet.span(10, 20), "s")],
        reflections=[StateEntry(["c"], TimeSet.span(0, 5), "r")],
        mapping=[(0, 0)],
    )
    report = validate(m)
    assert report.ok
    assert "negative-delay" in {w.rule for w in report.warnings}


def test_identity_model_is_restorable():
    m = simple_model(3, [(0, 0), (1, 1), (2, 2)])
    assert is_restorable(m)


def test_two_distinct_states_on_one_reflection_is_not_restorable():
    m = simple_model(2, [(0, 0), (1, 0)])
    assert not is_restorable(m)


def test_distinct_states_on_equal_valued_reflections_is_not_restorable():
    m = simple_model(2, [(0, 0), (1, 1)], reflection_values=["same", "same"])
    assert not is_restorable(m)


def test_restorable_requires_a_valid_model():
    broken = InformationModel(
        noumena=[], carriers=["c"], occurrence=T1, reflection_time=T2,
        states=[StateEntry(["n"], T1, "s")], reflections=[StateEntry(["c"], T2, "r")],
        mapping=[(0, 0)],
    )
    with pytest.raises(InvalidModelError):
        is_restorable(broken)


def test_random_bijections_match_bruteforce_oracle():
    rng = random.Random(42)
    for _ in range(100):
        m = random_restorable_model(rng, max_states=5, with_duplicates=True)
        assert is_restorable(m) == restorable_bruteforce(m) == True  # noqa: E712


def enumerate_small_models(max_states=4):
    """Every surjective mapping x value-duplication pattern on <= 4 states."""
    for n in range(1, max_states + 1):
        for n_refl in range(1, n + 1):
            for targets in product(range(n_refl), repeat=n):
                if set(targets) != set(range(n_refl)):
                    continue
                # state values: distinct, or first two duplicated
                patterns = [[f"s{i}" for i in range(n)]]
                if n >= 2:
                    dup = [f"s{i}" for i in range(n)]
                    dup[1] = dup[0]
                    patterns.append(dup)
                refl_patterns = [[f"r{i}" for i in range(n_refl)]]
                if n_refl >= 2:
                    rdup = [f"r{i}" for i in range(n_refl)]
                    rdup[1] = rdup[0]
                    refl_patterns.append(rdup)
                for svals in patterns:
                    for rvals in refl_patterns:
                        yield simple_model(
                            n, list(enumerate(targets)),
                            state_values=svals, reflection_values=rvals,
                        )


def test_exhaustive_small_models_match_bruteforce_oracle():
    count = 0
    for m in enumerate_small_models():
        assert is_restorable(m) == restorable_bruteforce(m)
        count += 1
    # 92 surjective mappings on <= 4 states, times the value-duplication patterns
    assert count == 359


def test_restore_inverts_the_mapping():
    m = simple_model(3, [(0, 2), (1, 0), (2, 1)])
    assert restore(m, 0).value == "s1"
    assert restore(m, 1).value == "s2"
    assert restore(m, 2).value == "s0"


def test_restore_identity_and_errors():
    m = simple_model(2, [(0, 0), (1, 1)])
    assert restore(m, 0).value == "s0"
    with pytest.raises(UnknownIndexError):
        restore(m, 5)
    bad = simple_model(2, [(0, 0), (1, 0)])
    with pytest.raises(NotRestorableError):
        restore(bad, 0)


def test_restore_roundtrip_on_random_models():
    rng = random.Random(7)
    for _ in range(50):
        m = random_restorable_model(rng)
        for s, r in m.mapping:
            assert restore(m, r).key() == m.states[s].key()


def test_penguin_restore_returns_the_penguin_state(penguin):
    entry = restore(penguin, 0)
    assert entry.key() == penguin.states[0].key()


def test_decompose_one_atom_per_pair():
    m = simple_model(3, [(0, 1), (1, 0), (2, 2)])
    atoms = decompose_atomic(m)
    assert len(atoms) == 3
    assert sorted(a.reflection_index for a in atoms) == [0, 1, 2]
    single = simple_model(1, [(0, 0)])
    only = decompose_atomic(single)
    assert len(only) == 1
    assert only[0].as_model().mapping_signature() == single.mapping_signature()


def test_self_mapping_quantum_style_model_decomposes_to_self_atoms():
    # n orthogonal states of one carrier, each state reflecting itself
    lifetime = TimeSet.span(0, 4)
    entries = [StateEntry(["q"], TimeSet.span(i, i + 1), f"state-{i}") for i in range(4)]
    m = InformationModel(
        noumena=["q"], carriers=["q"],
        occurrence=lifetime, reflection_time=lifetime,
        states=entries, reflections=entries,
        mapping=[(i, i) for i in range(4)],
        measures=MeasureAssignment(reflection={i: 1 for i in range(4)}),
    )
    atoms = decompose_atomic(m)
    assert len(atoms) == 4
    for atom in atoms:
        assert atom.state.key() == atom.reflection.key()
    assert volume(combine(atoms)) == 4


def test_combine_sums_measures():
    pieces = [
        make_atom(StateEntry(["n"], T1, f"s{i}"), StateEntry(["c"], T2, f"r{i}"), measure)
        for i, measure in enumerate((1, 2, 3))
    ]
    combined = combine(pieces)
    assert volume(combined) == 6
    assert validate(combined).ok


def test_combine_rejects_overlapping_pieces():
    m = simple_model(2, [(0, 0), (1, 1)])
    atoms = decompose_atomic(m)
    with pytest.raises(OverlapError):
        combine([atoms[0], atoms[0]])


def test_decompose_combine_roundtrip_preserves_mapping_and_volume(penguin):
    rng = random.Random(11)
    for m in [penguin] + [random_restorable_model(rng) for _ in range(30)]:
        rebuilt = combine(decompose_atomic(m))
        assert rebuilt.mapping_signature() == m.mapping_signature()
        assert volume(rebuilt) == volume(m)


def test_atoms_keep_the_reflection_unit(penguin):
    in_bytes = dataclasses.replace(
        penguin, measures=dataclasses.replace(penguin.measures, reflection_unit="byte")
    )
    atoms = decompose_atomic(in_bytes)
    rebuilt = combine(atoms)
    assert rebuilt.measures.reflection_unit == "byte"
    assert metric_report(rebuilt)["volume"]["unit"] == "byte"
    with pytest.raises(OverlapError, match="different units"):
        combine([*atoms, *decompose_atomic(penguin)])


quarters = st.integers(0, 40).map(lambda n: Fraction(n, 4))
grid_times = st.builds(
    lambda intervals, points: TimeSet(intervals, points or [0]),
    st.lists(st.lists(quarters, min_size=2, max_size=2).map(sorted), max_size=3),
    st.lists(quarters, max_size=2),
)


@given(st.lists(st.tuples(grid_times, grid_times), min_size=1, max_size=8))
def test_combine_joins_the_pieces_time_sets_in_one_merge(times):
    pieces = [
        make_atom(StateEntry(["n"], state_time, f"s{i}"), StateEntry(["c"], reflection_time, i))
        for i, (state_time, reflection_time) in enumerate(times)
    ]
    combined = combine(pieces)
    for joined, side in ((combined.occurrence, 0), (combined.reflection_time, 1)):
        sets = [pair[side] for pair in times]
        pairwise = sets[0]
        for ts in sets[1:]:
            pairwise = pairwise.union(ts)
        ref = FractionTimeSet(
            [pair for ts in sets for pair in ts.intervals], [p for ts in sets for p in ts.points]
        )
        assert joined == pairwise
        assert (joined.intervals, joined.points) == (ref.intervals, ref.points)
    assert validate(combined).ok


def test_combine_of_many_disjoint_atoms_is_not_quadratic():
    # a union per atom re-sorted the growing set: 4,000 atoms took about 2.5 s
    pieces = [
        make_atom(StateEntry(["n"], TimeSet.span(2 * i, 2 * i + 1), i),
                  StateEntry(["c"], TimeSet.span(2 * i, 2 * i + 1), i))
        for i in range(4000)
    ]
    start = time.perf_counter()
    combined = combine(pieces)
    assert time.perf_counter() - start < 0.5
    assert len(combined.occurrence.spans) == len(combined.reflection_time.spans) == 4000


def test_hundred_single_bit_atoms_sum_to_100():
    pieces = [
        make_atom(StateEntry(["n"], T1, f"s{i}"), StateEntry(["c"], T2, f"r{i}"), 1)
        for i in range(100)
    ]
    expected = sum(p.reflection_measure for p in pieces)  # independent sum over the list
    assert expected == 100
    assert volume(combine(pieces)) == expected


def test_single_link_chain_composes_to_itself(chain3):
    link = chain3[0]
    composed = compose_chain([link])
    assert composed.mapping_signature() == link.mapping_signature()
    assert delay(composed) == delay(link)


def test_chain3_delay_is_sum_of_links(chain3):
    composed = compose_chain(chain3)
    assert [delay(l) for l in chain3] == [1, 2, 3]
    assert delay(composed) == 6
    assert is_restorable(composed)


def test_two_link_bijection_chain_matches_function_composition():
    rng = random.Random(5)
    for _ in range(30):
        chain = random_chain(rng, links=2, states=rng.randint(1, 4))
        composed = compose_chain(chain)
        first, second = dict(chain[0].mapping), dict(chain[1].mapping)
        expected = {s: second[r] for s, r in first.items()}
        assert dict(composed.mapping) == expected


def test_chain_associativity():
    rng = random.Random(9)
    for _ in range(20):
        a, b, c = random_chain(rng, links=3, states=3)
        left = compose_chain([compose_chain([a, b]), c])
        right = compose_chain([a, b, c])
        assert left.mapping_signature() == right.mapping_signature()
        assert delay(left) == delay(right)


def test_mapping_signature_ignores_the_order_entries_are_listed_in():
    # the subject sets {a} and {b} are not ordered by frozenset's `<` (the
    # subset test), so sorting pairs of them cannot give one canonical order
    T = TimeSet.span(0, 1)
    states = [StateEntry(["a"], T, "x"), StateEntry(["b"], T, "x")]
    reflections = [StateEntry(["c"], T, "y"), StateEntry(["d"], T, "y")]

    def build(states, reflections):
        return InformationModel(
            noumena={"a", "b"},
            carriers={"c", "d"},
            occurrence=T,
            reflection_time=T,
            states=states,
            reflections=reflections,
            mapping=[(0, 0), (1, 1)],
        )

    first, second = build(states, reflections), build(states[::-1], reflections[::-1])
    assert validate(first).ok and validate(second).ok
    assert first.mapping_signature() == second.mapping_signature()


def test_chain_mismatch_names_the_junction(chain3):
    with pytest.raises(ChainMismatchError, match="junction 0"):
        compose_chain([chain3[0], chain3[2]])
    bad = simple_model(2, [(0, 0), (1, 0)])
    with pytest.raises(ChainMismatchError, match="link 0"):
        compose_chain([bad])


def test_enabled_flag_is_carried_and_propagates_through_chains(chain3):
    assert all(link.enabled for link in chain3)
    assert compose_chain(chain3).enabled
    doubted = InformationModel(
        noumena=chain3[1].noumena,
        carriers=chain3[1].carriers,
        occurrence=chain3[1].occurrence,
        reflection_time=chain3[1].reflection_time,
        states=chain3[1].states,
        reflections=chain3[1].reflections,
        mapping=chain3[1].mapping,
        enabled=False,
    )
    assert not compose_chain([chain3[0], doubted, chain3[2]]).enabled


BAD_MEASURES = {
    "noumenon-measure-numeric": lambda bad: dict(measures=MeasureAssignment(noumenon={"n": bad})),
    "carrier-measure-numeric": lambda bad: dict(measures=MeasureAssignment(carrier={"c": bad})),
    "reflection-measure-numeric": lambda bad: dict(measures=MeasureAssignment(reflection={0: bad})),
    "copy-measure-numeric": lambda bad: dict(copies=[CopyRecord(bad)]),
    "copy-weight-numeric": lambda bad: dict(copies=[CopyRecord(1, bad)]),
}


@pytest.mark.parametrize("bad", ["x", None, math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("rule", sorted(BAD_MEASURES))
def test_ill_typed_and_non_finite_measures_are_violations(rule, bad):
    report = validate(InformationModel(**{**ONE_PAIR, **BAD_MEASURES[rule](bad)}))
    assert [(v.rule, v.message.endswith("is not a finite number")) for v in report.violations] == [
        (rule, True)
    ]


def test_validate_returns_one_cached_report(penguin):
    assert validate(penguin) is validate(penguin)


def test_metric_report_checks_each_model_once(monkeypatch):
    checked = []
    check = model_module._check
    monkeypatch.setattr(model_module, "_check", lambda m: checked.append(m) or check(m))
    m, target = penguin_model(), penguin_model()
    report = metric_report(
        m,
        relation=EquivalenceRelation({0: "a"}),
        relations=RelationSet([(0, 0, "self")]),
        target=target,
    )
    assert report["granularity"]["value"] == 3 and report["mismatch"]["value"] == 0
    assert len(checked) == 2
    assert checked[0] is m and checked[1] is target


@pytest.mark.parametrize(
    "table, key", [("noumenon", "penguin-1"), ("carrier", "laptop"), ("reflection", 0)]
)
def test_measure_tables_are_read_only(penguin, table, key):
    with pytest.raises(TypeError):
        getattr(penguin.measures, table)[key] = -5
    assert validate(penguin).ok


@pytest.mark.parametrize(
    "build",
    [
        lambda m: dataclasses.replace(m, mapping=[(0.9, 0.7)]),
        lambda m: dataclasses.replace(m, mapping=[(True, False)]),
        lambda m: dataclasses.replace(m, mapping=[(0, np.float64(0))]),
        lambda m: MeasureAssignment(reflection={0.5: 1}),
        lambda m: MeasureAssignment(reflection={" 0": 1}),
        lambda m: RelationSet([(0.6, 0.2, "x")]),
        lambda m: RelationSet([(0, False, "x")]),
        lambda m: EquivalenceRelation({0.5: "a"}),
        lambda m: EquivalenceRelation({"0": "a", "+0": "b"}),
        lambda m: EquivalenceRelation({"0_0": "a"}),
        lambda m: EquivalenceRelation({"\u0663": "a"}),
    ],
    ids=[
        "mapping-float", "mapping-bool", "mapping-numpy-float", "measure-float-key",
        "measure-spaced-key", "edge-float", "edge-bool", "label-float-key",
        "label-signed-key", "label-underscore-key", "label-arabic-digit-key",
    ],
)
def test_indices_that_are_not_integers_are_refused(penguin, build):
    with pytest.raises(TypeError, match="an index must be an integer"):
        build(penguin)


def test_indices_and_index_keys_that_are_integers_are_read():
    assert RelationSet([(np.int64(2), 0, "x")]).edges == ((2, 0, "x"),)
    assert EquivalenceRelation({"12": "a", "-1": "b", 3: "c"}).labels == {12: "a", -1: "b", 3: "c"}
    assert dict(MeasureAssignment(reflection={"0": 5, np.int32(1): 6}).reflection) == {0: 5, 1: 6}


def test_frozen_models_still_pickle_and_deep_copy(penguin):
    assert validate(penguin).ok
    for clone in (pickle.loads(pickle.dumps(penguin)), copy.deepcopy(penguin)):
        assert clone == penguin
        with pytest.raises(TypeError):
            clone.measures.reflection[0] = -5


def test_replace_recomputes_the_report_and_indexes():
    m = simple_model(2, [(0, 0), (1, 1)])
    assert validate(m).ok and is_restorable(m)
    assert restore(m, 1).value == "s1"
    negative = dataclasses.replace(m, measures=MeasureAssignment(reflection={0: -5}))
    assert [v.rule for v in validate(negative).violations] == ["reflection-measure-nonnegative"]
    swapped = dataclasses.replace(m, mapping=[(0, 1), (1, 0)])
    assert restore(swapped, 1).value == "s0"
    merged = dataclasses.replace(m, reflections=[StateEntry(["c"], T2, "r")] * 2)
    assert validate(merged).ok and not is_restorable(merged)
    assert validate(m).ok and is_restorable(m)


# Each row is one subject set, time or value, spelled several ways: entries
# built from the same rows are equal, and entries built from different rows
# are not.
SUBJECT_FORMS = [(["a"], ("a",), {"a"}), (["a", "b"], ("b", "a"))]
TIME_FORMS = [
    (0, "0", "0.000", 0.0, -0.0, Fraction(0)),
    ("0.5", 0.5, Fraction(1, 2), "0.500000000"),
    (1, "1", "1.0", 1.0, Fraction(2, 2)),
]
VALUE_FORMS = [
    ("1",),
    ("x",),
    (1, 1.0, True, Fraction(1)),
    (0, 0.0, -0.0, False),
    (0.5, Fraction(1, 2)),
    ([1, 0], (1, 0), [1.0, -0.0], (True, False)),
    ([], ()),
]


@st.composite
def entry_pairs(draw):
    """Two entries, spelled independently, and whether they were built from
    the same rows."""

    def row(forms):
        return draw(st.integers(0, len(forms) - 1))

    def rows():
        lo, hi = sorted((row(TIME_FORMS), row(TIME_FORMS)))
        return row(SUBJECT_FORMS), lo, hi, row(VALUE_FORMS)

    def build(subjects, lo, hi, value):
        def spell(forms):
            return draw(st.sampled_from(forms))

        time = TimeSet(intervals=[(spell(TIME_FORMS[lo]), spell(TIME_FORMS[hi]))])
        return StateEntry(spell(SUBJECT_FORMS[subjects]), time, spell(VALUE_FORMS[value]))

    first = rows()
    second = first if draw(st.booleans()) else rows()
    return build(*first), build(*second), first == second


@given(entry_pairs())
def test_entry_equality_is_key_equality(pair):
    e, f, same = pair
    assert (e == f) == (e.key() == f.key()) == same
    if e == f:
        assert hash(e) == hash(f)
