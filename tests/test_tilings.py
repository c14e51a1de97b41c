"""Tiling counts, exhaustive enumeration, and sequence correspondences."""

import gc
import tracemalloc
from typing import List, Tuple

import pytest
from hypothesis import example, given, settings
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
from tridet import tilings
from tridet.series import CFinite, tiling_den
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


def _reference_count_den(length, pieces):
    """count_tilings' denominator as it was built from a dict of the pieces."""
    # a piece longer than the strip changes no coefficient up to x^length
    colors = {plen: c for plen, c in pieces.pieces if plen <= length}
    return [1] + [-colors.get(e, 0) for e in range(1, max(colors, default=0) + 1)]


@given(st.dictionaries(st.integers(1, 10), st.integers(1, 3), max_size=6), st.integers(0, 12))
@example({}, 0)  # no pieces
@example({}, 5)
@example({7: 2, 9: 1}, 4)  # every piece longer than the strip
def test_count_denominator_matches_the_dict_built_one(colors, length):
    pieces = PieceSet(tuple(colors.items()))  # drawn order
    reference = _reference_count_den(length, pieces)
    assert tiling_den([piece for piece in pieces.pieces if piece[0] <= length]) == reference
    expected = CFinite((1,), reference).coefficients(length, length)[0]
    assert count_tilings(length, pieces) == expected


def _reference_enumerate_tilings(length, pieces):
    """enumerate_tilings as a recursive walk, one frame per node of the tiling tree."""
    if length < 0:
        raise ValueError("length must be nonnegative, got %d" % length)
    if length > ENUMERATION_CAP:
        raise ValueError(
            "enumeration capped at length %d, got %d" % (ENUMERATION_CAP, length)
        )
    ordered = sorted(pieces.pieces)
    out: List[Tuple[Tuple[int, int], ...]] = []
    stack: List[Tuple[int, int]] = []

    def rec(remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(stack))
            return
        for plen, colors in ordered:
            if plen <= remaining:
                for color in range(1, colors + 1):
                    stack.append((plen, color))
                    rec(remaining - plen)
                    stack.pop()

    rec(length)
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=4),
    st.integers(0, 12),
)
@example({}, 0)
@example({2: 3, 1: 2}, 0)
@example({}, 5)
@example({6: 2, 5: 1}, 4)  # every piece longer than the strip
def test_enumeration_matches_the_recursive_walk(colors, length):
    pieces = PieceSet(tuple(colors.items()))  # drawn order, which enumeration sorts
    if count_tilings(length, pieces) > 2 ** (ENUMERATION_CAP - 1):
        with pytest.raises(ValueError, match="capped at 2\\^17 tilings"):
            enumerate_tilings(length, pieces)
    else:
        assert enumerate_tilings(length, pieces) == _reference_enumerate_tilings(length, pieces)


def test_enumeration_matches_the_recursive_walk_on_the_largest_benchmark_case():
    pieces = pieces_for(SequenceKind("k-step-fibonacci", 8))
    tilings = enumerate_tilings(18, pieces)
    assert len(tilings) == 128257
    assert tilings == _reference_enumerate_tilings(18, pieces)


def test_enumeration_refuses_counts_past_the_cap():
    # both would need more memory than a host has; refused before any tiling is built
    with pytest.raises(ValueError, match="got 387420489$"):
        enumerate_tilings(18, PieceSet(((1, 3),)))
    with pytest.raises(ValueError, match="got 776092140459190341$"):
        enumerate_tilings(18, PieceSet(((1, 9), (2, 9))))
    # every uncolored set within the length cap stays listable: 2^17 is its largest count
    assert len(enumerate_tilings(18, uncolored(*range(1, 19)))) == 2 ** 17


def test_enumeration_builds_only_levels_that_end_a_tiling():
    # no tiling of an odd strip by even pieces exists, yet the even levels below
    # it would hold 5^8 tilings of (2, 5) and 10^5 first pieces of (2, 10^5)
    tracemalloc.start()
    try:
        assert enumerate_tilings(17, PieceSet(((2, 5),))) == []
        assert enumerate_tilings(3, PieceSet(((2, 10**5),))) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.fixture
def collector_state():
    """Restores the collector's state after a test that switches it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_enumeration_leaves_the_collector_as_it_found_it(collector_state, enabled):
    pieces = PieceSet(((1, 2), (3, 1)))
    gc.enable()
    expected = enumerate_tilings(12, pieces)
    assert gc.isenabled()
    if not enabled:
        gc.disable()
    assert enumerate_tilings(12, pieces) == expected
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_enumeration_restores_the_collector_when_the_build_raises(
    collector_state, monkeypatch, enabled
):
    seen = []

    def failing_sorted(items):
        # sorted(pieces.pieces) gets a tuple before the pause, the level set inside it
        if isinstance(items, set):
            seen.append(gc.isenabled())
            raise RuntimeError("build interrupted")
        return sorted(items)

    monkeypatch.setattr(tilings, "sorted", failing_sorted, raising=False)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    with pytest.raises(RuntimeError, match="build interrupted"):
        enumerate_tilings(10, uncolored(1, 2))
    assert seen == [False]  # the collector was paused when the build raised
    assert gc.isenabled() == enabled
