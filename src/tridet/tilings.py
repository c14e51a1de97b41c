"""Counting and brute-force enumeration of linear tilings by colored pieces.

A piece set is a list of (length, colors) pairs with distinct lengths.
Counting reads one coefficient of 1 / (1 - sum colors x^length) by the
long division every series uses (series.CFinite); enumeration is
exhaustive and capped, so it can serve as an independent oracle for the
counts and for the sequence families: each family's recurrence lags, read
as piece lengths, give its tilings (pieces_for).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .sequences import SequenceKind, seeds_and_lags
from .series import CFinite

# every length up to 18 gives 2^17 tilings, twice as many per unit of length:
# 0.3 s for one enumeration at the cap (Python 3.11, 2-vCPU Xeon)
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
    colors = {plen: c for plen, c in pieces.pieces if plen <= length}
    den = [1] + [-colors.get(e, 0) for e in range(1, max(colors, default=0) + 1)]
    return CFinite((1,), den).coefficients(length, length)[0]


def enumerate_tilings(length: int, pieces: PieceSet) -> List[Tuple[Tuple[int, int], ...]]:
    """All tilings as tuples of (piece length, color index) pairs, colors 1-based.

    Exhaustive search, so the strip length is capped at ENUMERATION_CAP.
    """
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


def pieces_for(kind: SequenceKind) -> PieceSet:
    """Pieces whose tiling counts reproduce the family: its lags, all one color."""
    return uncolored(*seeds_and_lags(kind)[1])
