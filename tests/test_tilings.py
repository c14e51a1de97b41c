"""Tiling counts, exhaustive enumeration, and sequence correspondences."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tridet import (
    PieceSet,
    SequenceKind,
    count_tilings,
    enumerate_tilings,
    pieces_for,
    seq_term,
    uncolored,
)
from tridet.tilings import ENUMERATION_CAP

# piece length 1 with two colors plus an uncolored length 3
TWO_COLOR_SET = PieceSet(((1, 2), (3, 1)))

# counts for TWO_COLOR_SET at lengths 0..14, unrolled by hand from
# c(m) = 2c(m-1) + c(m-3)
TWO_COLOR_COUNTS = [
    1, 2, 4, 9, 20, 44, 97, 214, 472, 1041, 2296, 5064, 11169, 24634, 54332,
]


def test_piece_set_validation():
    with pytest.raises(ValueError):
        PieceSet(((1, 1), (1, 2)))  # duplicate length
    with pytest.raises(ValueError):
        PieceSet(((0, 1),))
    with pytest.raises(ValueError):
        PieceSet(((2, 0),))


def test_count_base_cases():
    squares_dominoes = uncolored(1, 2)
    assert count_tilings(0, squares_dominoes) == 1
    assert count_tilings(1, uncolored(2, 3)) == 0
    with pytest.raises(ValueError):
        count_tilings(-1, squares_dominoes)


def test_enumerate_matches_count():
    sets = [uncolored(1, 2), uncolored(2, 3), uncolored(1, 2, 3), TWO_COLOR_SET]
    for pieces in sets:
        for length in range(0, 11):
            tilings = enumerate_tilings(length, pieces)
            assert len(tilings) == count_tilings(length, pieces)
            assert len(set(tilings)) == len(tilings)
            colors = dict(pieces.pieces)
            for tiling in tilings:
                assert sum(plen for plen, _ in tiling) == length
                assert all(1 <= c <= colors[plen] for plen, c in tiling)


def test_enumerate_cap():
    assert len(enumerate_tilings(ENUMERATION_CAP, uncolored(2, 3))) == count_tilings(
        ENUMERATION_CAP, uncolored(2, 3)
    )
    with pytest.raises(ValueError):
        enumerate_tilings(ENUMERATION_CAP + 1, uncolored(1, 2))


def test_two_color_set_frozen_counts():
    for m, expected in enumerate(TWO_COLOR_COUNTS):
        assert count_tilings(m, TWO_COLOR_SET) == expected


def test_two_color_set_recurrence_and_closed_form():
    from tridet import binomial

    for m in range(3, 40):
        assert count_tilings(m, TWO_COLOR_SET) == (
            2 * count_tilings(m - 1, TWO_COLOR_SET) + count_tilings(m - 3, TWO_COLOR_SET)
        )
    for m in range(0, 25):
        closed = sum(
            2 ** (m - 3 * i) * binomial(m - 2 * i, i) for i in range(m // 3 + 1)
        )
        assert count_tilings(m, TWO_COLOR_SET) == closed


# (kind, index offset): tilings of length L correspond to term L + offset
CORRESPONDENCE = (
    [(SequenceKind("fibonacci"), 1)]
    + [(SequenceKind("tribonacci"), 2)]
    + [(SequenceKind("padovan"), 3)]
    + [(SequenceKind("gen-tribonacci", r), r - 1) for r in range(3, 9)]
    + [(SequenceKind("skip-tribonacci", r), r - 1) for r in (3, 5, 7)]
    + [(SequenceKind("k-step-fibonacci", r), r - 1) for r in range(2, 9)]
    + [(SequenceKind("gen-padovan", r), r) for r in range(3, 9)]
    + [(SequenceKind("q-sequence", r), r) for r in range(2, 9)]
    + [(SequenceKind("square-rmino", r), 0) for r in range(2, 9)]
)


@pytest.mark.parametrize("kind,offset", CORRESPONDENCE, ids=str)
def test_counts_match_sequence_terms(kind, offset):
    pieces = pieces_for(kind)
    for length in range(0, 21):
        assert count_tilings(length, pieces) == seq_term(kind, length + offset)


@given(st.integers(0, 60))
def test_square_domino_counts_are_fibonacci(length):
    assert count_tilings(length, uncolored(1, 2)) == seq_term(
        SequenceKind("fibonacci"), length + 1
    )


def _reference_count_tilings(length, pieces):
    """count_tilings stepped by its own recurrence, one cell at a time."""
    counts = [1] + [0] * length
    for cell in range(1, length + 1):
        total = 0
        for plen, colors in pieces.pieces:
            if plen <= cell:
                total += colors * counts[cell - plen]
        counts[cell] = total
    return counts[length]


@given(st.dictionaries(st.integers(1, 8), st.integers(1, 3), max_size=6))
def test_count_matches_the_stepped_recurrence(colors):
    pieces = PieceSet(tuple(sorted(colors.items())))
    for length in range(61):
        assert count_tilings(length, pieces) == _reference_count_tilings(length, pieces), length


def test_count_over_no_pieces_and_over_pieces_past_the_strip():
    empty = PieceSet(())
    assert [count_tilings(m, empty) for m in range(6)] == [1, 0, 0, 0, 0, 0]
    assert [_reference_count_tilings(m, empty) for m in range(6)] == [1, 0, 0, 0, 0, 0]
    # a piece far longer than the strip is left out, not laid into a denominator
    far = PieceSet(((1, 2), (10**12, 1)))
    assert count_tilings(7, far) == _reference_count_tilings(7, far) == 2**7
