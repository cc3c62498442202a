import copy
import dataclasses
import math
import pickle
import random
from itertools import product

import pytest

from oitkit import model as model_module
from oitkit.errors import ChainMismatchError, InvalidModelError, NotRestorableError, OverlapError, UnknownIndexError
from oitkit.generate import random_chain, random_restorable_model
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

from oracles import restorable_bruteforce

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


VIOLATION_CASES = {
    "noumena-nonempty": dict(noumena=[]),
    "carriers-nonempty": dict(carriers=[]),
    "states-nonempty": dict(states=[], mapping=[]),
    "state-subjects-resolve": dict(states=[StateEntry(["ghost"], T1, "s0")]),
    "state-times-within-occurrence": dict(states=[StateEntry(["n"], TimeSet.span(0, 5), "s0")]),
    "reflection-subjects-resolve": dict(reflections=[StateEntry(["ghost"], T2, "r0")]),
    "reflection-times-within-duration": dict(
        reflections=[StateEntry(["c"], TimeSet.span(10, 20), "r0")]
    ),
    "mapping-total": dict(mapping=[(0, 0), (0, 0)]),
    "mapping-range": dict(mapping=[(0, 7)]),
    "mapping-surjective": dict(
        states=[StateEntry(["n"], T1, "s0")],
        reflections=[StateEntry(["c"], T2, "r0"), StateEntry(["c"], T2, "r1")],
        mapping=[(0, 0)],
    ),
    "noumenon-measure-resolves": dict(measures=MeasureAssignment(noumenon={"ghost": 1})),
    "reflection-measure-nonnegative": dict(measures=MeasureAssignment(reflection={0: -1})),
}


@pytest.mark.parametrize("rule", sorted(VIOLATION_CASES))
def test_validator_reports_each_violation(rule):
    base = dict(
        noumena=["n"],
        carriers=["c"],
        occurrence=T1,
        reflection_time=T2,
        states=[StateEntry(["n"], T1, "s0")],
        reflections=[StateEntry(["c"], T2, "r0")],
        mapping=[(0, 0)],
    )
    base.update(VIOLATION_CASES[rule])
    report = validate(InformationModel(**base))
    assert rule in {v.rule for v in report.violations}


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


ONE_PAIR = dict(
    noumena=["n"],
    carriers=["c"],
    occurrence=T1,
    reflection_time=T2,
    states=[StateEntry(["n"], T1, "s0")],
    reflections=[StateEntry(["c"], T2, "r0")],
    mapping=[(0, 0)],
)
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
