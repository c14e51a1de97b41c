"""Sequence families: frozen values, recurrences, closed forms, validation."""

import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tridet import (
    FIXED_FAMILIES,
    PARAMETRIC_FAMILIES,
    SequenceKind,
    pieces_for,
    seq_range,
    seq_term,
    square_rmino_closed,
    tribonacci_explicit,
)
from tridet.sequences import (
    _CHUNK,
    FAMILIES,
    FAMILY_TABLE,
    MAX_R,
    family_den,
    order_refusal,
    seeds_and_lags,
    terms_at,
)
from tridet.series import tiling_den

# hand-unrolled from the defining recurrences
FROZEN = {
    ("fibonacci", None): [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55],
    ("tribonacci", None): [0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149],
    ("padovan", None): [1, 0, 0, 1, 0, 1, 1, 1, 2, 2, 3, 4, 5],
    ("gen-tribonacci", 4): [0, 0, 0, 1, 1, 2, 3, 6, 10, 18, 31, 55, 96, 169],
    ("gen-tribonacci", 5): [0, 0, 0, 0, 1, 1, 2, 3, 5, 9, 15, 26, 44, 75, 128, 218],
    ("gen-tribonacci", 6): [0, 0, 0, 0, 0, 1, 1, 2, 3, 5, 8, 14, 23, 39, 65, 109],
    ("gen-padovan", 4): [1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 5],
    ("square-rmino", 2): [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89],
    ("square-rmino", 3): [1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28],
    ("skip-tribonacci", 5): [0, 0, 0, 0, 1, 1, 1, 2, 3, 5, 8, 12, 19],
    ("k-step-fibonacci", 4): [0, 0, 0, 1, 1, 2, 4, 8, 15, 29, 56, 108, 208],
    ("q-sequence", 2): [1, 0, 1, 0, 1, 0, 1, 0, 1],
    ("q-sequence", 4): [1, 0, 0, 0, 1, 0, 1, 1, 2, 2, 4, 5, 8],
}

# lag sets restated independently of the implementation table
LAGS = {
    ("fibonacci", None): (1, 2),
    ("tribonacci", None): (1, 2, 3),
    ("padovan", None): (2, 3),
    ("gen-tribonacci", 5): (1, 2, 5),
    ("gen-padovan", 5): (2, 5),
    ("square-rmino", 4): (1, 4),
    ("skip-tribonacci", 7): (1, 4, 7),
    ("k-step-fibonacci", 5): (1, 2, 3, 4, 5),
    ("q-sequence", 5): (2, 3, 4, 5),
}


@pytest.mark.parametrize("family,r", sorted(FROZEN, key=str))
def test_frozen_prefixes(family, r):
    expected = FROZEN[(family, r)]
    assert seq_range(SequenceKind(family, r), 0, len(expected) - 1) == expected


@pytest.mark.parametrize("family,r", sorted(LAGS, key=str))
def test_recurrence_holds_beyond_the_seeds(family, r):
    kind = SequenceKind(family, r)
    lags = LAGS[(family, r)]
    for n in range(max(lags), 60):
        assert seq_term(kind, n) == sum(seq_term(kind, n - lag) for lag in lags)


def test_specializations_collapse_to_fixed_families():
    trib = seq_range(SequenceKind("tribonacci"), 0, 30)
    assert seq_range(SequenceKind("gen-tribonacci", 3), 0, 30) == trib
    assert seq_range(SequenceKind("k-step-fibonacci", 3), 0, 30) == trib
    assert seq_range(SequenceKind("skip-tribonacci", 3), 0, 30) == trib
    assert seq_range(SequenceKind("k-step-fibonacci", 2), 0, 30) == seq_range(
        SequenceKind("fibonacci"), 0, 30
    )
    assert seq_range(SequenceKind("gen-padovan", 3), 0, 30) == seq_range(
        SequenceKind("padovan"), 0, 30
    )


def test_two_step_alternator():
    # the r = 2 member of the two-step family alternates 1, 0
    kind = SequenceKind("q-sequence", 2)
    for m in range(0, 40):
        assert seq_term(kind, m) == (1 if m % 2 == 0 else 0)


def test_tribonacci_explicit_matches_recurrence():
    kind = SequenceKind("tribonacci")
    for n in range(2, 41):
        assert tribonacci_explicit(n) == seq_term(kind, n)


def test_tribonacci_explicit_rejects_small_index():
    with pytest.raises(ValueError):
        tribonacci_explicit(1)


def test_square_rmino_closed_matches_recurrence():
    for r in range(2, 9):
        kind = SequenceKind("square-rmino", r)
        for m in range(0, 31):
            assert square_rmino_closed(r, m) == seq_term(kind, m)


def test_square_rmino_closed_rejects_bad_arguments():
    with pytest.raises(ValueError):
        square_rmino_closed(1, 5)
    with pytest.raises(ValueError):
        square_rmino_closed(3, -1)


@pytest.mark.parametrize(
    "family,r",
    [
        ("tribonacci", 3),  # fixed family takes no order
        ("gen-tribonacci", None),
        ("gen-tribonacci", 2),
        ("gen-padovan", 2),
        ("skip-tribonacci", 4),  # must be odd
        ("skip-tribonacci", 1),
        ("square-rmino", 1),
        ("k-step-fibonacci", 1),
        ("q-sequence", 1),
        ("nonesuch", None),
    ],
)
def test_kind_validation(family, r):
    with pytest.raises(ValueError):
        SequenceKind(family, r)


def test_seq_term_rejects_negative_index():
    with pytest.raises(ValueError):
        seq_term(SequenceKind("fibonacci"), -1)


def test_seq_range_rejects_bad_bounds():
    with pytest.raises(ValueError):
        seq_range(SequenceKind("fibonacci"), -1, 3)
    with pytest.raises(ValueError):
        seq_range(SequenceKind("fibonacci"), 5, 2)


def test_repeated_queries_are_consistent():
    # the memo grows on demand; later short reads must agree with earlier ones
    kind = SequenceKind("gen-tribonacci", 5)
    first = seq_range(kind, 0, 40)
    assert seq_term(kind, 12) == first[12]
    assert seq_range(kind, 10, 20) == first[10:21]


@given(st.integers(3, 8), st.integers(0, 80))
def test_gen_tribonacci_recurrence_property(r, n):
    kind = SequenceKind("gen-tribonacci", r)
    if n >= r:
        assert seq_term(kind, n) == (
            seq_term(kind, n - 1) + seq_term(kind, n - 2) + seq_term(kind, n - r)
        )
    elif n == r - 1:
        assert seq_term(kind, n) == 1
    else:
        assert seq_term(kind, n) == 0


# each family's r-domain: None for a fixed family, else (smallest r, odd r only)
DOMAINS = {
    "fibonacci": None,
    "tribonacci": None,
    "padovan": None,
    "gen-tribonacci": (3, False),
    "gen-padovan": (3, False),
    "square-rmino": (2, False),
    "skip-tribonacci": (3, True),
    "k-step-fibonacci": (2, False),
    "q-sequence": (2, False),
}
IN_DOMAIN = [(f, None) for f, d in DOMAINS.items() if d is None] + [
    (f, r)
    for f, d in DOMAINS.items()
    if d is not None
    for r in range(d[0], 13)
    if not (d[1] and r % 2 == 0)
]


def test_family_names_come_from_the_table_in_order():
    assert FAMILIES == tuple(FAMILY_TABLE) == tuple(DOMAINS)
    assert FIXED_FAMILIES == ("fibonacci", "tribonacci", "padovan")
    assert FIXED_FAMILIES + PARAMETRIC_FAMILIES == FAMILIES


@pytest.mark.parametrize("family,r", IN_DOMAIN)
def test_family_table_invariants(family, r):
    seeds, lags = seeds_and_lags(SequenceKind(family, r))
    # make_entries and det_gf rely on a seed block exactly max(lags) long
    assert len(seeds) == max(lags)
    assert all(lag > 0 for lag in lags)
    assert len(set(lags)) == len(lags)
    domain = DOMAINS[family]
    if domain is None:
        with pytest.raises(ValueError, match="takes no r parameter"):
            SequenceKind(family, 3)
        return
    smallest, odd_only = domain
    if r == smallest:
        with pytest.raises(ValueError, match="requires"):
            SequenceKind(family, r - 1)
    if odd_only:
        with pytest.raises(ValueError, match="requires odd r"):
            SequenceKind(family, r + 1)


@pytest.mark.parametrize("family", PARAMETRIC_FAMILIES)
def test_orders_above_max_r_are_refused(family):
    fam = FAMILY_TABLE[family]
    largest = max(r for r in (MAX_R - 1, MAX_R) if not (fam.odd_only and r % 2 == 0))
    refused = min(r for r in (MAX_R + 1, MAX_R + 2) if not (fam.odd_only and r % 2 == 0))
    assert SequenceKind(family, largest).r == largest
    for r in (refused, 10**20 + 1):
        with pytest.raises(ValueError, match="requires r <= MAX_R = %d, got %d$" % (MAX_R, r)):
            SequenceKind(family, r)


@pytest.mark.parametrize("family,r", IN_DOMAIN)
def test_windowed_terms_match_one_plain_pass(family, r):
    # terms_at trims its window every _CHUNK steps; across several trims, at
    # several starts and strides, it gives the terms of one untrimmed pass
    kind = SequenceKind(family, r)
    terms, lags = seeds_and_lags(kind)
    while len(terms) < 4 * _CHUNK:
        terms.append(sum(terms[-lag] for lag in lags))
    for start, stride in ((0, 1), (5, 1), (3, 2), (1, 7), (2 * _CHUNK, 1), (_CHUNK - 1, _CHUNK)):
        count = (len(terms) - start + stride - 1) // stride
        assert terms_at(kind, start, stride, count) == terms[start::stride]
    assert seq_term(kind, len(terms) - 1) == terms[-1]
    assert seq_range(kind, _CHUNK - 2, 3 * _CHUNK + 1) == terms[_CHUNK - 2 : 3 * _CHUNK + 2]


def test_seq_term_holds_a_window_not_every_term():
    n = 50000
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    tracemalloc.start()
    try:
        value = seq_term(SequenceKind("fibonacci"), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == a
    # the window holds at most max(lags) + _CHUNK = 258 terms, none larger
    # than the result; every term up to n would take about n / 2 = 25000 times it
    assert peak < 2 * (2 + _CHUNK) * sys.getsizeof(value)


def _reference_family_den(kind: SequenceKind):
    """Q = 1 - sum x^lag, the denominator of the family's series."""
    lags = FAMILY_TABLE[kind.family].lags(kind.r)
    q = [1] + [0] * max(lags)
    for lag in lags:
        q[lag] -= 1
    return q


def test_family_den_is_the_hand_built_denominator_and_the_tiling_one():
    # every family at every in-domain order up to 40, and at 999 and 1000
    kinds = [SequenceKind(family) for family in FIXED_FAMILIES] + [
        SequenceKind(family, r)
        for family in PARAMETRIC_FAMILIES
        for r in list(range(2, 41)) + [999, 1000]
        if order_refusal(family, r) is None
    ]
    # three from 3, three from 2, skip-tribonacci odd only; six at 999, five at 1000
    assert len(kinds) == 3 + 3 * 38 + 3 * 39 - 19 + 6 + 5
    for kind in kinds:
        assert family_den(kind) == _reference_family_den(kind), kind
        # the family's strip tilings have the family's denominator
        assert tiling_den(pieces_for(kind).pieces) == family_den(kind), kind
