"""Determinant evaluators: worked values, mutual agreement, caps, validation."""

import random
import tracemalloc

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
from tridet.determinant import COMPOSITION_CAP, DENSE_CAP, TRUDI_PARTITION_CAP, _signed_powers

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


def _reference_composition_walk(spec):
    """det_trudi_compositions as a recursive walk over prefixes, one frame per node."""
    n = spec.n
    if n == 0:
        return 1
    if n > COMPOSITION_CAP:
        raise ValueError("composition expansion capped at n = %d, got %d" % (COMPOSITION_CAP, n))
    if spec.a0 not in (1, -1):
        raise ValueError("composition expansion requires a0 in {1, -1}, got %d" % spec.a0)
    # part x weighs (-a0)^(x-1) * a_x
    part = [0] + [s * e for s, e in zip(_signed_powers(spec.a0, n), spec.entries)]
    total = 0

    def walk(w: int, weight: int) -> None:
        # weight = product over the prefix's parts; w is what is left of n
        nonlocal total
        for x in range(1, w):
            walk(w - x, weight * part[x])
        total += weight * part[w]

    walk(n, 1)
    return total


def _seeded_spec(a0, n, seed):
    rng = random.Random(seed)
    return HessenbergSpec(a0, tuple(rng.randint(-9, 9) for _ in range(n)))


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
@example(1, [7])
@example(1, [0] * 7)
@example(-1, [0] * 14)
@example(-1, [0, 4, -2, 7, 1, -9])
@settings(max_examples=80, deadline=None)
def test_composition_walk_reads_the_composition_sum(a0, entries):
    # the level table against the walk it replaced and against the plain composition sum
    spec = HessenbergSpec(a0, tuple(entries))
    value = det_trudi_compositions(spec)
    assert value == _reference_composition_walk(spec)
    assert value == _reference_trudi_compositions(spec)


def test_composition_table_at_its_cap_with_large_products():
    # entries in -9..9 make products past the small-int cache, unlike tribonacci's
    for a0, seed in ((1, 1), (-1, 2)):
        spec = _seeded_spec(a0, COMPOSITION_CAP, seed)
        assert det_trudi_compositions(spec) == det_prefixes(spec)[-1]


def test_composition_table_memory_at_its_cap():
    # the table holds 2^(n-1) weights; at the cap with entries in -9..9 its traced
    # peak measured 21.3 MB (Python 3.11), and the bound is 1.5 times that
    spec = _seeded_spec(-1, COMPOSITION_CAP, 3)
    tracemalloc.start()
    try:
        det_trudi_compositions(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 10**6


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
