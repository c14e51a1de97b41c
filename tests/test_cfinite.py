"""The C-finite determinant route against the O(n^2) and dense oracles."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tridet import (
    EntryRule,
    HessenbergSpec,
    SequenceKind,
    det_dense,
    det_gf,
    det_prefixes,
    det_recurrence,
    make_entries,
    registry,
    seq_term,
)
from tridet import sequences
from tridet.determinant import DENSE_CAP
from tridet.sequences import _CHUNK, family_den, terms_at
from tridet.series import CFinite, multisected_den

# every family at every in-domain order up to 10
KINDS = [SequenceKind(f) for f in sequences.FIXED_FAMILIES] + [
    SequenceKind(family, r)
    for family, orders in (
        ("gen-tribonacci", range(3, 11)),
        ("gen-padovan", range(3, 11)),
        ("square-rmino", range(2, 11)),
        ("skip-tribonacci", range(3, 11, 2)),
        ("k-step-fibonacci", range(2, 11)),
        ("q-sequence", range(2, 11)),
    )
    for r in orders
]


def _reference_annihilator(rule):
    """Coefficients q_0 = 1, q_1..q_L of a polynomial Q that annihilates the entries.

    sum_j q_j * a_(k+1-j) = 0 for every k >= L, where L is the family's
    largest lag (every family's seed block is exactly that long, so this
    holds from the first entry).  Q is the denominator of the family's
    series multisected at the rule's stride: 1 - sum x^lag for stride 1.
    """
    return multisected_den(family_den(rule.kind), rule.stride)


# det_gf's body while it read Q through determinant.annihilator
def _reference_det_gf(rule):
    """The series whose coefficient m is det(M_m), for the matrices of a rule.

    Built from the rule's annihilator Q and its first L = deg Q entries
    only, so a sweep or a one-term read at any n makes no later entry.  Its
    denominator is Q(-a0 x) - x P(-a0 x), constant term 1.
    """
    q = _reference_annihilator(rule)
    # P = (entries * Q) mod x^L
    head = terms_at(rule.kind, rule.start, rule.stride, len(q) - 1)
    scaled = CFinite.from_head(q, head).scale(-rule.a0)
    den = list(scaled.den)
    for j, pj in enumerate(scaled.num):
        den[j + 1] -= pj
    return CFinite(scaled.den, den)


@st.composite
def rules(draw):
    kind = draw(st.sampled_from(KINDS))
    start = draw(st.integers(0, (kind.r or 3) + 3))
    stride = draw(st.integers(1, 4))
    a0 = draw(st.sampled_from((1, -1, 2, -2, 3, -3)))
    return EntryRule(kind, start, stride, a0)


@given(rules(), st.integers(1, 80))
@settings(max_examples=150, deadline=None)
def test_cfinite_route_matches_the_oracles(rule, n):
    spec = make_entries(rule, n)
    dets = det_gf(rule).coefficients(0, n)
    assert dets == det_prefixes(spec)
    assert det_recurrence(spec) == dets[n]
    if n <= DENSE_CAP:
        assert det_dense(spec) == dets[n]


@pytest.mark.parametrize("stride", [1, 3])
def test_sizes_below_the_recurrence_order(stride):
    rule = EntryRule(SequenceKind("k-step-fibonacci", 10), 2, stride, -2)
    assert len(_reference_annihilator(rule)) - 1 == 10
    for n in range(1, 12):
        spec = make_entries(rule, n)
        assert det_gf(rule).coefficients(0, n) == det_prefixes(spec)
        assert det_recurrence(spec) == det_dense(spec)


def test_strided_annihilator_worked_value():
    # even-indexed tribonacci terms 0, 1, 2, 7, 24, 81: u_k = 3u_(k-1) + u_(k-2) + u_(k-3)
    tribonacci = SequenceKind("tribonacci")
    assert _reference_annihilator(EntryRule(tribonacci, 0, 2, 1)) == [1, -3, -1, -1]
    assert _reference_annihilator(EntryRule(tribonacci, 0, 1, 1)) == [1, -1, -1, -1]


def test_altered_entries_are_refused():
    # altered entries are refused the rule: replace drops it, so they are
    # read through their own expansion, never through the rule's series.
    # Their determinants leave the rule's exactly at the first altered
    # entry, since det(M_m) holds a_m with the coefficient (-a0)^(m-1)
    rule = EntryRule(SequenceKind("gen-tribonacci", 5), 1, 2, 3)
    spec = make_entries(rule, 20)
    series = det_gf(rule).coefficients(0, spec.n)
    for i in range(spec.n):
        entries = list(spec.entries)
        entries[i] += 1
        altered = dataclasses.replace(spec, entries=tuple(entries))
        assert altered.rule is None
        dets = det_prefixes(altered)
        assert det_recurrence(altered) == dets[-1]
        assert dets[: i + 1] == series[: i + 1] and dets[i + 1] != series[i + 1]


def test_only_make_entries_attaches_a_rule():
    rule = EntryRule(SequenceKind("gen-tribonacci", 5), 1, 2, 1)
    spec = make_entries(rule, 20)
    assert spec.rule is rule
    with pytest.raises(TypeError):
        HessenbergSpec(spec.a0, spec.entries, rule)
    with pytest.raises(TypeError):
        HessenbergSpec(spec.a0, spec.entries, rule=rule)
    with pytest.raises(ValueError):
        dataclasses.replace(spec, rule=rule)
    assert dataclasses.replace(spec).rule is None


def _first_broken_entry(entries, q):
    """The first entry a_(k+1), k >= L, with sum_j q_j a_(k+1-j) != 0, or None."""
    order = len(q) - 1
    back = q[::-1]
    for k in range(order, len(entries)):
        if sum(x * y for x, y in zip(back, entries[k - order : k + 1])):
            return k + 1
    return None


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("positions", [(12,), (255,), (256,), (257,), (600,), (600, 257)])
def test_altered_entries_are_refused_at_the_first_broken_entry(stride, positions):
    # an altered spec is refused the rule, and the residue check that stands
    # in for the removed entry check names its first broken entry
    rule = EntryRule(SequenceKind("gen-tribonacci", 5), 1, stride, 2)
    spec = make_entries(rule, 700)
    q = _reference_annihilator(rule)
    order = len(q) - 1
    assert _first_broken_entry(spec.entries, q) is None
    # the named positions, alone and with the first entry, the first entry
    # the recurrence reaches, or the entries _CHUNK - 1 and _CHUNK past it
    for extra in ((), (0,), (order,), (order + _CHUNK - 1,), (order + _CHUNK,)):
        entries = list(spec.entries)
        for i in positions + extra:
            entries[i] -= 7
        altered = dataclasses.replace(spec, entries=tuple(entries))
        assert altered.rule is None
        # an entry before a_(L+1) first shows in the window that ends at a_(L+1)
        assert _first_broken_entry(altered.entries, q) == max(min(positions + extra), order) + 1


def _trimmed_denominator_examples(test):
    """I-08, I-17 (r = 3..13) and I-14 (r = 13), whose det_gf denominators trim.

    I-08's and I-17's trim to (1,), so the halving's numerator runs out;
    I-14's at r = 13 keeps 3 of its 14 coefficients.
    """
    cases = {case.id: case for case in registry()}
    rules = [cases["I-08"].clauses(None)[0].rule, cases["I-14"].clauses(13)[0].rule]
    rules += [cases["I-17"].clauses(r)[0].rule for r in range(3, 14)]
    for rule in rules:
        r = rule.kind.r or 3
        for n in (1, 2, r, r + 1, _CHUNK + 1):
            test = example(rule, n)(test)
    return test


@given(rules(), st.integers(1, 1100))
@_trimmed_denominator_examples
@settings(max_examples=80, deadline=None)
def test_halving_matches_the_linear_expansion_deep(rule, n):
    spec = make_entries(rule, n)
    dets = det_gf(rule).coefficients(0, n)
    assert det_recurrence(spec) == dets[n]
    if n <= 120 or n == _CHUNK + 1:
        assert dets == det_prefixes(spec)


@given(rules())
@settings(max_examples=40, deadline=None)
def test_rule_carrying_spec_with_no_entries(rule):
    # cut to no entries, a rule-carrying spec drops its rule: the empty matrix
    empty = dataclasses.replace(make_entries(rule, 1), entries=())
    assert empty.rule is None
    assert det_recurrence(empty) == 1
    assert det_prefixes(empty) == [1]


@given(
    st.integers(-3, 3).filter(lambda a0: a0 != 0),
    st.lists(st.integers(-9, 9), max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_rule_less_spec_uses_det_prefixes(a0, entries):
    spec = HessenbergSpec(a0, tuple(entries))
    assert spec.rule is None
    assert det_recurrence(spec) == det_prefixes(spec)[-1]


@given(rules(), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_make_entries_equal_sequence_terms(rule, n):
    spec = make_entries(rule, n)
    assert spec.entries == tuple(seq_term(rule.kind, rule.start + i * rule.stride) for i in range(n))
    assert spec.rule == rule
    # the rule takes no part in equality, hashing or repr
    plain = HessenbergSpec(rule.a0, spec.entries)
    assert spec == plain and hash(spec) == hash(plain)
    assert repr(spec) == repr(plain)


def test_make_entries_match_the_terms_past_several_trims():
    # past several trims of the stepping window, the entries are still the terms
    for kind in KINDS:
        spec = make_entries(EntryRule(kind, 3, 4, 1), 500)
        assert spec.entries == tuple(sequences.seq_range(kind, 3, 3 + 499 * 4)[::4])


def _registry_rules(orders=range(2, 14)):
    """(case id, r, rule) of every rule a sweep reads a left side from, in-domain r in orders."""
    for case in registry():
        in_domain = [r for r in orders if case.accepts_r(r)] if case.parameterized else [None]
        for r in in_domain:
            if case.clauses is not None:
                for clause in case.clauses(r):
                    yield case.id, r, clause.rule


def test_registry_rules_obey_their_annihilators():
    # det_gf reads each left side off the first L entries and checks none
    # past them; this is the check it leaves out, made once here
    seen = set()
    for cid, r, rule in _registry_rules():
        q = _reference_annihilator(rule)
        assert _first_broken_entry(make_entries(rule, 300).entries, q) is None
        seen.add(cid)
    assert seen == {case.id for case in registry()} - {"I-36"}


@pytest.mark.parametrize("orders", [range(2, 41), (999, 1000)], ids=["r<=40", "r=999,1000"])
def test_det_gf_equals_its_body_with_the_annihilator_on_registry_rules(orders):
    rules = {rule for _, _, rule in _registry_rules(orders)}
    assert rules
    for rule in rules:
        assert det_gf(rule) == _reference_det_gf(rule), rule


@given(
    st.sampled_from(KINDS),
    st.integers(0, 20),
    st.integers(1, 4),
    st.sampled_from((1, -1, 2, -2, 3, -3)),
)
@settings(max_examples=200, deadline=None)
def test_det_gf_equals_its_body_with_the_annihilator(kind, start, stride, a0):
    rule = EntryRule(kind, start, stride, a0)
    assert det_gf(rule) == _reference_det_gf(rule)


@st.composite
def spread_rules(draw):
    """Rules with a0 not +-1, stride >= 3 and start > 0, away from the registry's."""
    kind = draw(st.sampled_from(KINDS))
    start = draw(st.integers(1, (kind.r or 3) + 3))
    stride = draw(st.integers(3, 5))
    a0 = draw(st.sampled_from((2, -2, 3, -3)))
    return EntryRule(kind, start, stride, a0)


@given(spread_rules(), st.integers(1, 80))
@settings(max_examples=120, deadline=None)
def test_entry_free_series_matches_the_entry_routes(rule, n):
    spec = make_entries(rule, n)
    dets = det_prefixes(spec)
    assert det_gf(rule).coefficients(0, n) == dets
    assert det_recurrence(spec) == dets[n]


def test_spec_routes_read_their_own_first_entries():
    # entries that obey the rule's recurrence from another head lose the
    # rule; their determinants are their own, not the rule's
    rule = EntryRule(SequenceKind("gen-tribonacci", 5), 1, 2, 3)
    spec = make_entries(rule, 40)
    doubled = dataclasses.replace(spec, entries=tuple(2 * a for a in spec.entries))
    assert doubled.rule is None
    expected = det_prefixes(doubled)
    assert det_recurrence(doubled) == expected[-1]
    assert det_gf(rule).coefficients(0, 40) == det_prefixes(spec) != expected
