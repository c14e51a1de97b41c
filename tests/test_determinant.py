"""Determinant evaluators: worked values, mutual agreement, caps, validation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tridet import (
    EntryRule,
    HessenbergSpec,
    SequenceKind,
    compositions,
    det_dense,
    det_prefixes,
    det_recurrence,
    det_trudi_compositions,
    det_trudi_partitions,
    make_entries,
    multinomial,
    partitions,
)
from tridet import determinant
from tridet.determinant import COMPOSITION_CAP, DENSE_CAP, TRUDI_PARTITION_CAP

ALL_METHODS = (det_recurrence, det_trudi_partitions, det_trudi_compositions, det_dense)

# unrolled by hand via the expansion recurrence
WORKED_VALUES = (
    (HessenbergSpec(1, (1, 2, 3, 4)), 1),
    (HessenbergSpec(1, (1, 2, 4)), 1),
    (HessenbergSpec(1, (1, 1)), 0),
    (HessenbergSpec(1, (0, 0, 1, 1)), -1),
    (HessenbergSpec(-1, (1, 1, 1)), 4),
    (HessenbergSpec(1, (1, 1, 1)), 0),
)


def _reference_trudi_partitions(spec):
    """The partition sum leaf by leaf: multinomial and entry product per multiplicity vector."""
    n, a0, a = spec.n, spec.a0, spec.entries
    total = 0
    for s in partitions(n):
        term = (-a0) ** (n - sum(s)) * multinomial(s)
        for i, mult in enumerate(s):
            if mult:
                term *= a[i] ** mult
        total += term
    return total


def _reference_trudi_compositions(spec):
    """The composition sum leaf by leaf: sign (-1)^(n-m) for a0 = 1, none for a0 = -1."""
    n, a = spec.n, spec.entries
    total = 0
    for parts in compositions(n):
        weight = 1
        for x in parts:
            weight *= a[x - 1]
        if spec.a0 == 1 and (n - len(parts)) % 2 == 1:
            weight = -weight
        total += weight
    return total


def test_spec_validation():
    with pytest.raises(ValueError):
        HessenbergSpec(0, (1, 2))
    with pytest.raises(ValueError):
        EntryRule(SequenceKind("fibonacci"), -1, 1, 1)
    with pytest.raises(ValueError):
        EntryRule(SequenceKind("fibonacci"), 0, 0, 1)
    with pytest.raises(ValueError):
        EntryRule(SequenceKind("fibonacci"), 0, 1, 0)


def test_rule_kind_must_be_a_sequence_kind():
    # a family name is not a kind: a parameterized family would still need r
    for kind in ("tribonacci", "gen-tribonacci", 7):
        with pytest.raises(TypeError, match="kind must be a SequenceKind$"):
            EntryRule(kind, 1, 1, 1)


def test_make_entries_strided():
    rule = EntryRule(SequenceKind("tribonacci"), 3, 2, 1)
    spec = make_entries(rule, 4)
    assert spec.a0 == 1
    assert spec.entries == (1, 4, 13, 44)
    with pytest.raises(ValueError):
        make_entries(rule, 0)


def test_worked_values():
    for spec, value in WORKED_VALUES:
        for method in ALL_METHODS:
            assert method(spec) == value


def test_oracle_routes_call_no_other_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("an oracle route called another evaluator")

    for name in ("det_prefixes", "det_gf", "det_recurrence"):
        monkeypatch.setattr(determinant, name, refuse)
    for spec, value in WORKED_VALUES:
        for method in (det_trudi_partitions, det_trudi_compositions, det_dense):
            assert method(spec) == value


def test_empty_spec_has_determinant_one():
    empty = HessenbergSpec(1, ())
    for method in ALL_METHODS:
        assert method(empty) == 1


def test_prefixes_match_individual_evaluations():
    spec = make_entries(EntryRule(SequenceKind("tribonacci"), 0, 1, 1), 12)
    prefixes = det_prefixes(spec)
    assert prefixes[0] == 1
    for m in range(1, 13):
        assert prefixes[m] == det_recurrence(HessenbergSpec(1, spec.entries[:m]))


def test_dense_pivoting_paths():
    # leading zero entry forces a row swap inside the elimination
    assert det_dense(HessenbergSpec(1, (0, 0, 1, 1))) == -1
    # fully zero first column short-circuits to zero
    assert det_dense(HessenbergSpec(1, (0, 0))) == 0


def test_caps_are_enforced():
    big = HessenbergSpec(1, tuple(1 for _ in range(COMPOSITION_CAP + 1)))
    with pytest.raises(ValueError):
        det_trudi_compositions(big)
    bigger = HessenbergSpec(1, tuple(1 for _ in range(TRUDI_PARTITION_CAP + 1)))
    with pytest.raises(ValueError):
        det_trudi_partitions(bigger)
    huge = HessenbergSpec(1, tuple(1 for _ in range(DENSE_CAP + 1)))
    with pytest.raises(ValueError):
        det_dense(huge)


def test_composition_method_needs_unit_superdiagonal():
    with pytest.raises(ValueError):
        det_trudi_compositions(HessenbergSpec(2, (1, 1)))


@given(
    st.integers(-3, 3).filter(lambda a0: a0 != 0),
    st.lists(st.integers(-9, 9), min_size=1, max_size=24),
)
@settings(max_examples=80, deadline=None)
def test_recurrence_partitions_dense_agree(a0, entries):
    spec = HessenbergSpec(a0, tuple(entries))
    d = det_recurrence(spec)
    assert det_trudi_partitions(spec) == d
    assert det_dense(spec) == d


@given(
    st.sampled_from((1, -1)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=14),
)
@settings(max_examples=80, deadline=None)
def test_composition_expansion_agrees_for_unit_a0(a0, entries):
    spec = HessenbergSpec(a0, tuple(entries))
    assert det_trudi_compositions(spec) == det_recurrence(spec)


@given(
    st.sampled_from((1, -1, 2, -2, 3, -3)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=20),
)
@example(2, [5])
@example(-3, [0] * 7)
@example(1, [0, 4, -2, 7, 1, -9])
@settings(max_examples=80, deadline=None)
def test_partition_walk_reads_the_partition_sum(a0, entries):
    spec = HessenbergSpec(a0, tuple(entries))
    assert det_trudi_partitions(spec) == _reference_trudi_partitions(spec)


@given(
    st.sampled_from((1, -1)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=14),
)
@example(-1, [5])
@example(1, [0] * 7)
@example(-1, [0, 4, -2, 7, 1, -9])
@settings(max_examples=80, deadline=None)
def test_composition_walk_reads_the_composition_sum(a0, entries):
    spec = HessenbergSpec(a0, tuple(entries))
    assert det_trudi_compositions(spec) == _reference_trudi_compositions(spec)


def test_oracle_routes_at_their_caps():
    spec = make_entries(EntryRule(SequenceKind("tribonacci"), 0, 1, -2), TRUDI_PARTITION_CAP)
    assert det_trudi_partitions(spec) == det_prefixes(spec)[-1]
    spec = make_entries(EntryRule(SequenceKind("tribonacci"), 2, 1, -1), COMPOSITION_CAP)
    assert det_trudi_compositions(spec) == det_prefixes(spec)[-1]


@given(
    st.integers(-9, 9).filter(lambda a0: a0 != 0),
    st.tuples(
        st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
    ),
)
@settings(max_examples=80, deadline=None)
def test_size_four_polynomial_expansion(a0, entries):
    a1, a2, a3, a4 = entries
    expected = (
        a1**4
        - 3 * a0 * a1**2 * a2
        + 2 * a0**2 * a1 * a3
        + a0**2 * a2**2
        - a0**3 * a4
    )
    assert det_recurrence(HessenbergSpec(a0, entries)) == expected
