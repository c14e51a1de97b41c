"""Counting and brute-force enumeration of linear tilings by colored pieces.

A piece set is a list of (length, colors) pairs with distinct lengths.
Counting reads one coefficient of 1 / series.tiling_den(pieces), which also
gives each family's denominator, by long division.  Enumeration fills a
level table, level m holding each tiling of a length-m strip as one tuple,
a first piece plus a tiling from a lower level; capped by length and count,
it is an independent oracle for the counts and for the families, whose
recurrence lags, read as piece lengths, give their tilings (pieces_for).
The garbage collector is paused while the table fills: its tuples of int
pairs cannot form a cycle, and the collector's passes over them (each of
the many new tuples counts toward a pass) took about half of a listing.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import List, Tuple

from .sequences import SequenceKind, seeds_and_lags
from .series import CFinite, tiling_den

# uncolored pieces give at most 2^17 tilings up to length 18, colored ones more,
# so the count is capped at 2^17 too: 0.04 s, 29 MB traced to list 2^17 (Python 3.11, 2-vCPU Xeon)
ENUMERATION_CAP = 18


@dataclass(frozen=True)
class PieceSet:
    """Pieces as (length, colors) pairs; lengths distinct, both positive."""

    pieces: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        lengths = [length for length, _ in self.pieces]
        if any(length < 1 for length in lengths):
            raise ValueError("piece lengths must be >= 1")
        if any(colors < 1 for _, colors in self.pieces):
            raise ValueError("piece color counts must be >= 1")
        if len(set(lengths)) != len(lengths):
            raise ValueError("piece lengths must be distinct")


def uncolored(*lengths: int) -> PieceSet:
    """Piece set with one color per length."""
    return PieceSet(tuple((length, 1) for length in lengths))


def count_tilings(length: int, pieces: PieceSet) -> int:
    """Number of ordered tilings of a 1 x length strip: [x^length] 1 / (1 - sum colors x^plen)."""
    if length < 0:
        raise ValueError("length must be nonnegative, got %d" % length)
    # a piece longer than the strip changes no coefficient up to x^length
    den = tiling_den([piece for piece in pieces.pieces if piece[0] <= length])
    return CFinite((1,), den).coefficients(length, length)[0]


def enumerate_tilings(length: int, pieces: PieceSet) -> List[Tuple[Tuple[int, int], ...]]:
    """All tilings as tuples of (piece length, color index) pairs, colors 1-based.

    Exhaustive: a length above ENUMERATION_CAP or a count above 2^(ENUMERATION_CAP - 1)
    is refused before any tiling is built.
    """
    if length > ENUMERATION_CAP:
        raise ValueError("enumeration capped at length %d, got %d" % (ENUMERATION_CAP, length))
    count = count_tilings(length, pieces)  # refuses a negative length
    if count > 2 ** (ENUMERATION_CAP - 1):
        raise ValueError(
            "enumeration capped at 2^%d tilings, got %d" % (ENUMERATION_CAP - 1, count))
    ordered = sorted(pieces.pieces)
    # the levels m that can end a whole tiling: a fixed start extends each of
    # their tilings to one of the whole strip, so none holds more than count
    ends = {length}
    for m in range(length, 0, -1):
        ends.update(m - plen for plen, _ in ordered if plen <= m and m in ends)
    levels = {0: [()]}
    # the table holds only tuples of int pairs, which cannot form a cycle, so the
    # collector's passes over its growing tuples free nothing: pause it while it fills
    enabled = gc.isenabled()
    gc.disable()
    try:
        for m in sorted(ends - {0}):
            firsts = [(((plen, color),), levels[m - plen]) for plen, colors in ordered
                      if plen <= m and levels[m - plen] for color in range(1, colors + 1)]
            levels[m] = [first + rest for first, rests in firsts for rest in rests]
    finally:
        if enabled:
            gc.enable()
    return levels[length]


def pieces_for(kind: SequenceKind) -> PieceSet:
    """Pieces whose tiling counts reproduce the family: its lags, all one color."""
    return uncolored(*seeds_and_lags(kind)[1])
