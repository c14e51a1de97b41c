"""Identity registry: shape, domains, frozen spot values, cross-consistency."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tridet.identities as identities_module
from tridet.identities import Clause, _fam, _tiling, _twist
from tridet.sequences import MAX_R
from tridet import (
    CFinite,
    EntryRule,
    IdentityCase,
    SequenceKind,
    binomial,
    check_all,
    check_sweeps,
    det_gf,
    det_prefixes,
    det_trudi_partitions,
    expand_rational,
    gf_catalog,
    make_entries,
    registry,
    seq_range,
    seq_term,
)

ALL_IDS = ["I-%02d" % i for i in range(1, 37)] + ["I-19b"]


def _by_id():
    return {case.id: case for case in registry()}


def test_registry_shape():
    cases = registry()
    assert len(cases) == 37
    ids = [case.id for case in cases]
    assert ids == sorted(ids)
    assert set(ids) == set(ALL_IDS)
    assert all(case.description for case in cases)


def test_registry_lookup_fields():
    case = _by_id()["I-17"]
    assert case.parameterized
    assert case.accepts_r(3) and case.accepts_r(8)
    assert not case.accepts_r(2)
    rule = case.rule(4)
    assert rule.kind == SequenceKind("gen-tribonacci", 4)
    assert (rule.start, rule.stride, rule.a0) == (4, 1, 1)
    assert case.n_min(4) == 3


# The order predicates the parameterized cases stated by hand before each
# case's order domain came from its entry family's row of FAMILY_TABLE,
# kept as a reference; the cases not listed are fixed.
def _odd_from_three(r):
    return r >= 3 and r % 2 == 1


_REFERENCE_ORDERS = {
    **dict.fromkeys(
        ("I-14", "I-15", "I-16", "I-17", "I-18", "I-19", "I-22", "I-23", "I-28", "I-29", "I-30"),
        lambda r: r >= 3,
    ),
    "I-19b": _odd_from_three,
    "I-20": _odd_from_three,
    "I-21": lambda r: r >= 4 and r % 2 == 0,
    "I-25": lambda r: r >= 7 and r % 2 == 1,
    "I-26": lambda r: r == 5,
    "I-32": _odd_from_three,
    "I-33": lambda r: r >= 2,
    "I-34": lambda r: r >= 2,
}


def test_order_domains_match_the_reference_predicates():
    # at every r up to MAX_R; above it no family, so no case, takes an order
    orders = range(-2, MAX_R + 1)
    for case in registry():
        reference = _REFERENCE_ORDERS.get(case.id)
        assert case.parameterized == (reference is not None), case.id
        accepted = [r for r in orders if case.accepts_r(r)]
        assert accepted == [r for r in orders if reference is not None and reference(r)], case.id
        assert not case.accepts_r(MAX_R + 1), case.id
        if case.rule is not None:
            for r in accepted if case.parameterized else [None]:
                assert isinstance(case.rule(r), EntryRule), (case.id, r)


def test_frozen_spot_values():
    cases = _by_id()

    def lhs(cid, r, n):
        return cases[cid].sweep(r, n, n)[0][0]

    assert lhs("I-01", None, 7) == 5
    assert lhs("I-03", None, 1) == 0
    assert lhs("I-26", 5, 5) == 2
    assert lhs("I-26", 5, 4) == 0
    # boundary behavior of the even-order small-n cases
    assert [lhs("I-19", 4, n) for n in range(1, 6)] == [2, -2, 2, -3, 5]
    assert [lhs("I-19", 6, n) for n in range(1, 6)] == [2, -1, 2, -2, 3]
    assert lhs("I-19b", 3, 2) == -3
    assert [lhs("I-19b", 5, n) for n in (2, 3, 4)] == [-1, 3, -3]
    # the three fixed polynomial evaluations
    for n, value in ((1, 100), (2, 0), (3, 1)):
        assert cases["I-36"].sweep(None, n, n)[0] == (value, value)


def test_every_spot_check_passes():
    cases = _by_id()
    spots = [
        ("I-01", None, 7), ("I-03", None, 1), ("I-19", 4, 5), ("I-19b", 5, 4),
        ("I-25", 7, 8), ("I-26", 5, 6), ("I-34", 2, 9), ("I-36", None, 2),
    ]
    for cid, r, n in spots:
        (lhs, rhs), = cases[cid].sweep(r, n, n)
        assert lhs == rhs, (cid, r, n)


def test_out_of_domain_points_are_refused():
    # n_max = n, so each point lies in the sweep's n range unless its domain drops it
    bad = [
        ("I-01", None, 1),  # below the start of the claim
        ("I-01", 3, 2),     # fixed case takes no order
        ("I-20", 4, 3),     # odd orders only
        ("I-25", 5, 10),    # orders from 7 up
        ("I-33", 1, 2),
        ("I-36", None, 4),  # capped at three instances
        ("I-19b", 5, 5),    # capped below the order
    ]
    for cid, r, n in bad:
        sweeps = check_sweeps(r_set=(3 if r is None else r,), n_max=n, ids=[cid])
        if r is not None and r < 2:
            # below every family's smallest order: refused outright
            with pytest.raises(ValueError, match="below the smallest order 2$"):
                next(sweeps)
            continue
        assert (r, n) not in {(rep.r, rep.n) for sweep in sweeps for rep in sweep}, (cid, r, n)


def test_check_all_default_sweep_is_clean():
    reports, summary = check_all()
    assert summary.failed == 0
    assert summary.checked == summary.passed == len(reports)
    # current registry size at the default ranges; update deliberately
    assert summary.checked == 2518
    assert {report.id for report in reports} == set(ALL_IDS)


def test_reports_are_ordered_deterministically():
    reports, _ = check_all(n_max=10)
    keys = [
        (rep.id, rep.r is not None, rep.r if rep.r is not None else 0, rep.n)
        for rep in reports
    ]
    assert keys == sorted(keys)


def test_ids_filter():
    reports, summary = check_all(r_set=(3,), n_max=10, ids=["I-08"])
    assert summary.checked == 7
    assert all(rep.id == "I-08" and rep.r is None for rep in reports)
    reports, summary = check_all(r_set=(4,), ids=["I-20"])
    assert reports == [] and summary.checked == 0
    with pytest.raises(ValueError):
        check_all(ids=["I-99"])


def test_parameterized_cases_skip_inapplicable_orders():
    reports, _ = check_all(r_set=(2, 4, 6), n_max=8, ids=["I-19b", "I-32"])
    assert reports == []  # both want odd orders >= 3
    reports, _ = check_all(r_set=(2,), n_max=8)
    assert {rep.id for rep in reports if rep.r == 2} == {"I-33", "I-34"}


def _forged_registry():
    common = dict(
        parameterized=False,
        accepts_r=lambda r: False,
        n_min=lambda r: 1,
        n_cap=lambda r: 5,
        rule=None,
        rhs=None,
    )
    bad = IdentityCase(
        id="X-00", description="forged failing case",
        sweep=lambda r, lo, hi: [(0, 1)] * (hi - lo + 1),
        evaluate=lambda r, n: (0, 1), **common,
    )
    good = IdentityCase(
        id="X-01", description="forged passing case",
        sweep=lambda r, lo, hi: [(7, 7)] * (hi - lo + 1),
        evaluate=lambda r, n: (7, 7), **common,
    )
    return [bad, good]


def test_fail_fast_stops_at_first_failure(monkeypatch):
    monkeypatch.setattr(identities_module, "registry", _forged_registry)
    reports, summary = identities_module.check_all(fail_fast=True)
    assert summary.checked == summary.failed == 1
    reports, summary = identities_module.check_all()
    assert summary.checked == 10
    assert summary.failed == 5


def test_same_sequence_routes_agree():
    # pairs of cases whose right sides must trace the same numbers
    cases = _by_id()
    pairs = [
        ("I-13", "I-27", None, None, range(3, 21)),
        ("I-09", "I-24", None, None, range(1, 21)),
        ("I-04", "I-35", None, None, range(2, 21)),
        ("I-18", "I-10", 3, None, range(2, 21)),
        ("I-32", "I-06", 3, None, range(2, 21)),
        ("I-31", "I-28", None, 3, range(3, 21)),
    ]
    for left_id, right_id, r_left, r_right, ns in pairs:
        for n in ns:
            left = cases[left_id].sweep(r_left, n, n)[0]
            right = cases[right_id].sweep(r_right, n, n)[0]
            assert left[0] == left[1] and left == right, (left_id, right_id, n)
    # the restated cases share one definition, not two copies
    for left_id, right_id in (("I-13", "I-27"), ("I-04", "I-35")):
        assert cases[left_id].rule is cases[right_id].rule
        assert cases[left_id].rhs is cases[right_id].rhs


def test_series_route_matches_recurrence_route():
    # the series case and the auxiliary-recurrence case cover the same rule
    cases = _by_id()
    for r in range(3, 9):
        other = cases["I-20"] if r % 2 == 1 else cases["I-21"]
        for n in range(1, 21):
            series = cases["I-22"].sweep(r, n, n)[0]
            direct = other.sweep(r, n, n)[0]
            assert series[0] == series[1] and direct[0] == direct[1]
            assert series[1] == direct[1]


def test_residue_branch_discriminator():
    # for orders 7 and 9 exactly one residue branch can apply, with an
    # integer quotient in the live branch
    for r in (7, 9):
        m = (r - 1) // 2
        for n in range(1, 31):
            hits = [n % m == 0, (n - 1) % m == 0, (n - 2) % m == 0]
            assert sum(hits) <= 1
            if hits[0]:
                assert (2 * n) % (r - 1) == 0
            if hits[1]:
                assert (2 * (n - 1)) % (r - 1) == 0
            if hits[2]:
                assert (2 * (n - 2)) % (r - 1) == 0


def test_residue_case_beyond_default_orders():
    reports, summary = check_all(r_set=(7, 9), n_max=30, ids=["I-25"])
    assert summary.failed == 0
    assert {rep.r for rep in reports} == {7, 9}


def test_signed_power_sum_exponent_safety():
    # every live binomial must come with a nonnegative exponent; the head
    # sum asserts this internally, so it runs here at every n, not only at
    # the head, and still equals the declared right side
    sums = [identities_module._sum_i09(n) for n in range(61)]
    swept = [rhs for _, rhs in _by_id()["I-09"].sweep(None, 1, 60)]
    assert swept == [_neg1(n - 1) * sums[n] for n in range(1, 61)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_in_domain_points_pass(data):
    cases = registry()
    case = data.draw(st.sampled_from(cases))
    if case.parameterized:
        orders = [r for r in range(2, 10) if case.accepts_r(r)]
        r = data.draw(st.sampled_from(orders))
    else:
        r = None
    lo = case.n_min(r)
    cap = case.n_cap(r)
    hi = 20 if cap is None else min(20, cap)
    if hi < lo:
        return
    n = data.draw(st.integers(lo, hi))
    (lhs, rhs), = case.sweep(r, n, n)
    assert lhs == rhs


def test_single_point_views_agree_with_the_sweep():
    # evaluate, rule and rhs are read one n at a time by outside callers
    # (the benchmark harness among them); each must be a view of sweep
    for case in registry():
        orders = [r for r in range(2, 10) if case.accepts_r(r)] if case.parameterized else [None]
        for r in orders:
            lo, cap = case.n_min(r), case.n_cap(r)
            hi = 40 if cap is None else min(40, cap)
            pairs = case.sweep(r, lo, hi)
            assert pairs == [case.evaluate(r, n) for n in range(lo, hi + 1)]
            if case.rule is not None:
                assert isinstance(case.rule(r), EntryRule)
                assert [case.rhs(r, n) for n in range(lo, hi + 1)] == [p[1] for p in pairs]
        wrapped = dataclasses.replace(case, evaluate=lambda r, n: (0, 0), rhs=lambda r, n: 0)
        assert wrapped.sweep is case.sweep and wrapped.rule is case.rule


# The per-n right sides the registry evaluated before its right sides became
# lo..hi sequences, kept here as an independent reference.

def _neg1(k):
    return -1 if k % 2 else 1


def _gf_coeff(family, r, n):
    return expand_rational(gf_catalog(family, r), n)[n - 1]


def _rhs_i04(r, n):
    c2, c3 = 1, 2
    if n == 2:
        return c2
    prev2, prev1 = c2, c3
    for _ in range(4, n + 1):
        prev2, prev1 = prev1, 3 * prev1 + 2 * prev2
    return prev1


def _aux_i20(r, n):
    fib = SequenceKind("fibonacci")
    h = (r + 1) // 2
    vals = [0] * (n + 1)
    for m in range(1, n + 1):
        if m < h:
            v = 0
        elif m < r:
            v = seq_term(fib, 2 * m - r + 1)
        elif m == r:
            v = 1 + seq_term(fib, r + 1)
        else:
            v = 3 * vals[m - 1] - vals[m - 2] + vals[m - h]
        vals[m] = v
    return vals[n]


def _aux_i21(r, n):
    fib = SequenceKind("fibonacci")
    h = r // 2
    vals = [0] * (n + 1)
    for m in range(1, n + 1):
        if m < h:
            v = 0
        elif m <= r:
            v = seq_term(fib, 2 * m - r + 1)
        else:
            v = 3 * vals[m - 1] - vals[m - 2] + vals[m - h] - vals[m - h - 1]
        vals[m] = v
    return vals[n]


def _rhs_i23(r, n):
    if r % 2 == 1:
        return _neg1(n - 1) * _gf_coeff("i23", r, n)
    h = seq_range(SequenceKind("square-rmino", r // 2), 0, n - 1)
    conv = sum(h[i] * h[n - 1 - i] for i in range(n))
    return _neg1(n - 1) * conv


def _rhs_i09(r, n):
    total = 0
    for i in range(n):
        b = binomial(n - 1 - i, i // 2)
        if b == 0:
            continue
        e = n - 1 - i - i // 2
        assert e >= 0, "exponent went negative with a live binomial"
        total += 2**e * b
    return _neg1(n - 1) * total


def _rhs_i19(r, n):
    assert r is not None
    if r % 2 == 1:
        return 4 * _neg1(n - 1)
    total = sum(
        binomial(n - 1 - (r // 2 - 1) * i, i) for i in range(2 * (n - 1) // r + 1)
    )
    # boundary tilings not covered by the sum: all-dominoes (n = 1) and the
    # single long piece (2n = r)
    if n == 1:
        total += 1
    if 2 * n == r:
        total += 1
    return _neg1(n - 1) * total


def _rhs_i10(r, n):
    m = n % 3
    if m == 0:
        return _neg1(n)
    if m == 1:
        return _neg1(n + 1)
    return 0


def _rhs_i25(r, n):
    m = (r - 1) // 2
    if n % m == 0:
        q = 2 * n // (r - 1)
        return _neg1(n - q)
    if (n - 1) % m == 0:
        q = 2 * (n - 1) // (r - 1)
        return 2 * _neg1(n - 1 - q)
    if (n - 2) % m == 0:
        q = 2 * (n - 2) // (r - 1)
        return _neg1(n - q)
    return 0


def _rhs_i34a(r, n):
    # signed (r-1)-step value at n - 2; at r = 2 the one-step count, one
    # all-squares tiling of each length n - 2 >= 0
    if r == 2:
        return 0 if n == 1 else _neg1(n - 1)
    return _neg1(n - 1) * seq_term(SequenceKind("k-step-fibonacci", r - 1), n - 2)


def _aux_i31(m):
    return sum(
        binomial(m - 2 * i, i) * 2**i * 3 ** (m - 3 * i) for i in range(m // 3 + 1)
    )


# (case id, parity of r or None for any, per-n right side)
_PER_N_RIGHT_SIDES = [
    ("I-04", None, _rhs_i04),
    ("I-20", 1, lambda r, n: _neg1(n - 1) * _aux_i20(r, n)),
    ("I-21", 0, lambda r, n: _neg1(n - 1) * _aux_i21(r, n)),
    ("I-22", None, lambda r, n: _neg1(n - 1) * _gf_coeff("i22", r, n)),
    ("I-23", 1, _rhs_i23),
    ("I-23", 0, _rhs_i23),
    ("I-24", None, lambda r, n: _gf_coeff("i24", 3, n)),
    ("I-28", None, lambda r, n: _gf_coeff("i28", r, n)),
    ("I-29", None, lambda r, n: _gf_coeff("i29", r, n)),
    ("I-30", None, lambda r, n: _gf_coeff("i30", r, n)),
    ("I-05", None, lambda r, n: _neg1(n - 1)
     * sum(binomial(n - 2 - 2 * i, i) for i in range((n - 2) // 3 + 1))),
    ("I-06", None, lambda r, n: sum(
        binomial(2 * n - 4 - 2 * i, i) for i in range((2 * n - 4) // 3 + 1)
    )),
    ("I-09", None, _rhs_i09),
    ("I-12", None, lambda r, n: sum(
        binomial(n + 2 + i, n + 1 - 2 * i) for i in range((n + 1) // 2 + 1)
    )),
    ("I-18", None, lambda r, n: sum(
        _neg1(r * i) * binomial(n - (r - 2) * i, i)
        for i in range(n // (r - 1) + 1)
    )),
    ("I-19", 1, _rhs_i19),
    ("I-19", 0, _rhs_i19),
    ("I-31", None, lambda r, n: _neg1(n - 1) * (_aux_i31(n - 2) - _aux_i31(n - 3))),
    ("I-32", None, lambda r, n: sum(
        binomial(2 * n - r - 1 - (r - 1) * i, i)
        for i in range((2 * n - r - 1) // r + 1)
    )),
    ("I-01", None, lambda r, n: _neg1(n - 1) * seq_term(SequenceKind("fibonacci"), n - 2)),
    ("I-02", None, lambda r, n: _neg1(n - 1) * seq_term(SequenceKind("padovan"), n + 2)),
    ("I-03", None, lambda r, n: (2**n + 6) // 14),
    ("I-07", None, lambda r, n: _neg1(n - 1)
     * (4 * 3 ** (n - 3) if n >= 3 else 4 // 3 ** (3 - n))),
    ("I-10", None, _rhs_i10),
    ("I-11", None, lambda r, n: 4 * _neg1(n - 1)),
    ("I-14", None, lambda r, n: _neg1(n - 1) * seq_term(SequenceKind("fibonacci"), n - r + 1)),
    ("I-15", None, lambda r, n: _neg1(n - 1)
     * seq_term(SequenceKind("square-rmino", r), n - 2)),
    ("I-16", None, lambda r, n: _neg1(n - 1)
     * seq_term(SequenceKind("gen-padovan", r), n + r - 1)),
    ("I-17", None, lambda r, n: _neg1(n - 1) * (1 if n == r else 0)),
    ("I-19b", None, lambda r, n: (3 if n >= (r + 1) // 2 else 1) * _neg1(n - 1)),
    ("I-25", None, _rhs_i25),
    ("I-26", None, lambda r, n: 0 if n % 2 == 0 else 2 * _neg1((n - 1) // 2)),
    ("I-33", None, lambda r, n: (2**n + 2**r - 2) // (2 ** (r + 1) - 2)),
    # I-34's two clauses, each with its own determinant and right side
    ("I-34a", None, _rhs_i34a),
    ("I-34b", None, lambda r, n: _neg1(n - 1)
     * seq_term(SequenceKind("q-sequence", r), n + r - 1)),
]


def _declared(cid):
    """(case, first n, right side for (r, lo, hi)) of a _PER_N_RIGHT_SIDES id, from its clause.

    A case id with a letter appended, as I-34a, names that clause of the case.
    """
    cases = _by_id()
    case, k = (cases[cid], 0) if cid in cases else (cases[cid[:-1]], "ab".index(cid[-1]))
    return (
        case,
        lambda r: case.clauses(r)[k].first,
        lambda r, lo, hi: case.clauses(r)[k].gf.coefficients(lo, hi),
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_sequence_right_sides_match_the_per_n_forms(data):
    cid, parity, per_n = data.draw(st.sampled_from(_PER_N_RIGHT_SIDES))
    case, n_min, declared = _declared(cid)
    r = None
    if case.parameterized:
        orders = [
            r for r in range(2, 13)
            if case.accepts_r(r) and (parity is None or r % 2 == parity)
        ]
        r = data.draw(st.sampled_from(orders))
    lo = data.draw(st.integers(n_min(r), 60))
    hi = data.draw(st.integers(lo, 60))
    swept = declared(r, lo, hi)
    assert swept == [per_n(r, n) for n in range(lo, hi + 1)]
    if case.rhs is not None:
        assert swept == [case.rhs(r, n) for n in range(lo, hi + 1)]


def test_deep_sweep_is_clean():
    # past every recurrence's seed window and well past the default n_max
    reports, summary = check_all(n_max=400)
    assert summary.failed == 0
    assert summary.checked == summary.passed == len(reports) > 0
    assert {report.id for report in reports} == set(ALL_IDS)


@pytest.mark.parametrize(
    "cid, parity, per_n",
    _PER_N_RIGHT_SIDES,
    ids=[cid + {None: "", 0: "-even-r", 1: "-odd-r"}[parity]
         for cid, parity, _ in _PER_N_RIGHT_SIDES],
)
def test_per_n_forms_hold_deep(cid, parity, per_n):
    case, _, declared = _declared(cid)
    orders = [None]
    if case.parameterized:
        orders = [
            r for r in range(3, 13)
            if case.accepts_r(r) and (parity is None or r % 2 == parity)
        ]
    for r in orders:
        swept = declared(r, 380, 400)
        assert swept == [per_n(r, n) for n in range(380, 401)], (cid, r)


def test_domain_edges_agree_with_a_longer_sweep():
    # sweep(r, n, n) at the first and the last in-domain n is the matching
    # entry of a longer sweep, and both pass: a head one term short or a
    # shift off by one shows here first
    covered = set()
    for case in registry():
        orders = [r for r in range(2, 14) if case.accepts_r(r)] if case.parameterized else [None]
        for r in orders:
            lo, cap = case.n_min(r), case.n_cap(r)
            hi = lo + 30 if cap is None else cap
            pairs = case.sweep(r, lo, hi)
            assert all(lhs == rhs for lhs, rhs in pairs), (case.id, r)
            for n in {lo, hi} if cap is not None else {lo}:
                assert case.sweep(r, n, n) == [pairs[n - lo]], (case.id, r, n)
            covered.add((case.id, r))
    # the smallest order of each parity rule and the r = 2 extensions
    smallest = {("I-19", 3), ("I-19", 4), ("I-19b", 3), ("I-20", 3), ("I-21", 4),
                ("I-23", 3), ("I-23", 4), ("I-25", 7), ("I-26", 5), ("I-32", 3),
                ("I-33", 2), ("I-34", 2)}
    assert smallest <= covered


def _merged_per_n(clauses, lo, hi):
    """The sweep of clauses written per n, with det_prefixes for every left side.

    Each n takes its first covering clause (first <= n) whose sides differ,
    else its first covering clause.
    """
    sides = [(c.first, det_prefixes(make_entries(c.rule, hi)), c.gf.coefficients(0, hi))
             for c in clauses]
    out = []
    for n in range(lo, hi + 1):
        covering = [(lhs[n], rhs[n]) for first, lhs, rhs in sides if first <= n]
        out.append(([pair for pair in covering if pair[0] != pair[1]] or covering)[0])
    return out


def test_clause_sweeps_match_a_per_n_merge():
    # every case but I-36 is its clauses, and its sweep is their merge
    for case in registry():
        if case.id == "I-36":
            assert case.clauses is None
            continue
        orders = [r for r in range(2, 14) if case.accepts_r(r)] if case.parameterized else [None]
        for r in orders:
            lo, cap = case.n_min(r), case.n_cap(r)
            hi = 60 if cap is None else cap
            assert case.sweep(r, lo, hi) == _merged_per_n(case.clauses(r), lo, hi), (case.id, r)


def test_sweep_reports_the_first_failing_covering_clause():
    # I-34's clauses at r = 5 start at n = 4 and n = 1 and differ in value;
    # the second, broken by x^k, is reported at n = k and nowhere else
    first, second = _by_id()["I-34"].clauses(5)
    assert first.first == 4 and second.first == 1
    for k in (2, 9):
        clauses = [first, second._replace(gf=second.gf + CFinite((1,)).shift(k))]
        swept = identities_module._sweep(lambda r: clauses, 5, 1, 20)
        assert swept == _merged_per_n(clauses, 1, 20)
        assert [n for n, (lhs, rhs) in enumerate(swept, start=1) if lhs != rhs] == [k]


def test_check_sweeps_refuses_r_above_max_r_at_its_first_item():
    # refused before any sweep, fixed cases included, and only when asked
    for r_set in ((3, MAX_R + 1), (10**20,)):
        sweeps = check_sweeps(r_set=r_set)
        with pytest.raises(ValueError, match="above MAX_R = %d$" % MAX_R):
            next(sweeps)
    assert next(check_sweeps(r_set=(MAX_R,), ids=["I-33"]))[0].r == MAX_R


def test_check_sweeps_refuses_r_below_every_family_at_its_first_item():
    # the smallest order any family takes is 2; a lower r is refused, not dropped
    for r_set in ((-5,), (0, 2), (3, 1)):
        sweeps = check_sweeps(r_set=r_set)
        with pytest.raises(ValueError, match="below the smallest order 2$"):
            next(sweeps)
    assert next(check_sweeps(r_set=(2,), ids=["I-33"]))[0].r == 2


def test_report_tuples_over_r_two_to_thirteen_are_pinned():
    # every report of check_all at r = 2..13, n <= 150, value for value
    reports, _ = check_all(r_set=tuple(range(2, 14)), n_max=150)
    assert hashlib.sha256(repr([tuple(rep) for rep in reports]).encode()).hexdigest() == (
        "d957eb30825a43f15480b88bbffcb70817dec6dd3c82aed37ce76668556f28c3"
    )


def test_i19b_clause_holds_up_to_n_cap_and_fails_just_past_it():
    # Clause has no last n: I-19b's clause is true only on [2, n_cap(r)], so
    # a reader of clauses must bound n by n_cap too
    case = _by_id()["I-19b"]
    for r in range(3, 16, 2):
        (clause,) = case.clauses(r)
        lhs = det_gf(clause.rule).coefficients(0, 2 * r)
        rhs = clause.gf.coefficients(0, 2 * r)
        first_diff = next(n for n in range(clause.first, 2 * r + 1) if lhs[n] != rhs[n])
        assert clause.first == 2 and first_diff == r == case.n_cap(r) + 1, r


def _reference_i34_clauses(r):
    """I-34's two clauses as they were built by hand before its clause rows."""
    assert r is not None
    ksf = SequenceKind("k-step-fibonacci", r)
    # the (r-1)-step count; at r = 2 the one-step count, one all-squares
    # tiling of every length
    shorter = _fam("k-step-fibonacci", r - 1) if r > 2 else CFinite((1,), (1, -1))
    return [
        # signed (r-1)-step value at n - 2
        Clause(EntryRule(ksf, 0, 1, 1), _twist(shorter.shift(2)), r - 1),
        # signed spaced-piece count at n + r - 1
        Clause(EntryRule(ksf, r - 1, 1, 1), _twist(_fam("q-sequence", r).shift(1 - r)), 1),
    ]


def test_i34_rows_match_the_hand_built_clauses():
    case = _by_id()["I-34"]
    assert case.rule is None and case.rhs is None
    for r in list(range(2, 41)) + [999, 1000]:
        rows, reference = case.clauses(r), _reference_i34_clauses(r)
        assert [(c.rule, c.first, c.gf.num, c.gf.den) for c in rows] == [
            (c.rule, c.first, c.gf.num, c.gf.den) for c in reference
        ], r
        assert case.n_min(r) == 1, r


def _reference_tiling(k: int, weight: int, square: int = 1) -> CFinite:
    """v(m) = sum_i C(m-(k-1)i, i) * weight^i * square^(m-ki), as one series.

    The i-th term counts the tilings of m by squares and i k-minos, with
    the factor square per square and weight per k-mino.  Summed over i,
    weight^i x^(ki) / (1 - square x)^(i+1) is 1 / (1 - square x - weight x^k).
    Most of the paper's binomial sums are this one at some k, weights and
    argument m.
    """
    den = [1] + [0] * k
    den[1] -= square
    den[k] -= weight
    return CFinite((1,), den)


def test_tiling_sums_match_their_hand_built_denominators():
    weights = range(-3, 4)
    for k in range(1, 13):  # k = 1 puts both weights on x
        for weight in weights:
            for square in weights:
                assert _tiling(k, weight, square) == _reference_tiling(k, weight, square)
    assert _tiling(1, 2, 3) == CFinite((1,), (1, -5))


def test_i36_polynomials_are_determinants_of_rule_built_cases():
    # each printed polynomial is the multinomial expansion of det(M_n) over
    # one rule-built case's rule: I-04's at n = 6, I-08's at n = 4, I-02's at n = 5
    cases = _by_id()
    lhs = [pair[0] for pair in cases["I-36"].sweep(None, 1, 3)]
    assert lhs == [100, 0, 1]
    for value, (cid, size) in zip(lhs, (("I-04", 6), ("I-08", 4), ("I-02", 5))):
        rule = cases[cid].rule(None)
        spec = make_entries(rule, size)
        assert det_gf(rule).at(size) == det_prefixes(spec)[size] == value, cid
        assert det_trudi_partitions(spec) == value, cid
