"""Integer sequence families defined by linear recurrences over small seeds.

Every family is evaluated by forward iteration with a per-(family, r) memo,
so repeated term lookups are linear overall and never recurse.  Negative
indices are rejected; closed-form cross-checks live alongside the
recurrences so independent evaluations can be compared term by term.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .combinatorics import binomial

FIXED_FAMILIES = ("fibonacci", "tribonacci", "padovan")
PARAMETRIC_FAMILIES = (
    "gen-tribonacci",
    "gen-padovan",
    "square-rmino",
    "skip-tribonacci",
    "k-step-fibonacci",
    "q-sequence",
)
FAMILIES = FIXED_FAMILIES + PARAMETRIC_FAMILIES


@dataclass(frozen=True)
class SequenceKind:
    """Family tag plus the order parameter r for parameterized families."""

    family: str
    r: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError("unknown sequence family %r" % (self.family,))
        if self.family in FIXED_FAMILIES:
            if self.r is not None:
                raise ValueError("family %r takes no r parameter" % (self.family,))
            return
        r = self.r
        if r is None:
            raise ValueError("family %r requires r" % (self.family,))
        if self.family in ("gen-tribonacci", "gen-padovan"):
            if r < 3:
                raise ValueError("%s requires r >= 3, got %d" % (self.family, r))
        elif self.family == "square-rmino":
            # r = 2 admitted by extension: a_n = a_(n-1) + a_(n-2), all-ones seeds
            if r < 2:
                raise ValueError("square-rmino requires r >= 2, got %d" % r)
        elif self.family == "skip-tribonacci":
            if r < 3 or r % 2 == 0:
                raise ValueError("skip-tribonacci requires odd r >= 3, got %d" % r)
        elif self.family == "k-step-fibonacci":
            if r < 2:
                raise ValueError("k-step-fibonacci requires r >= 2, got %d" % r)
        elif self.family == "q-sequence":
            # r = 2 admitted by extension: Q_n = Q_(n-2), seeds 1, 0
            if r < 2:
                raise ValueError("q-sequence requires r >= 2, got %d" % r)


def seeds_and_lags(kind: SequenceKind) -> Tuple[List[int], List[int]]:
    """Seed block and recurrence lag list for a kind.

    Term n for n >= len(seeds) is the sum of terms n - lag over the lags.
    """
    fam, r = kind.family, kind.r
    if fam == "fibonacci":
        return [0, 1], [1, 2]
    if fam == "tribonacci":
        return [0, 0, 1], [1, 2, 3]
    if fam == "padovan":
        return [1, 0, 0], [2, 3]
    assert r is not None
    if fam == "gen-tribonacci":
        return [0] * (r - 1) + [1], [1, 2, r]
    if fam == "gen-padovan":
        return [1] + [0] * (r - 1), [2, r]
    if fam == "square-rmino":
        return [1] * r, [1, r]
    if fam == "skip-tribonacci":
        return [0] * (r - 1) + [1], [1, (r + 1) // 2, r]
    if fam == "k-step-fibonacci":
        return [0] * (r - 1) + [1], list(range(1, r + 1))
    if fam == "q-sequence":
        return [1] + [0] * (r - 1), list(range(2, r + 1))
    raise ValueError("unknown sequence family %r" % (fam,))


def extend_terms(terms: List[int], lags: Sequence[int], count: int) -> None:
    """Append the next count terms to a list that ends with the latest max(lags) terms."""
    back = [-lag for lag in lags]
    # the lagged terms as a tuple; itemgetter returns one only for two or more
    pick = itemgetter(*back) if len(back) > 1 else lambda window: (window[back[0]],)
    append = terms.append
    for _ in range(count):
        append(sum(pick(terms)))


_cache: Dict[Tuple[str, Optional[int]], List[int]] = {}
_cache_lock = threading.Lock()


def _terms_through(kind: SequenceKind, n: int) -> List[int]:
    key = (kind.family, kind.r)
    with _cache_lock:
        terms = _cache.get(key)
        if terms is None:
            seeds, _ = seeds_and_lags(kind)
            terms = _cache[key] = list(seeds)
        if len(terms) <= n:
            extend_terms(terms, seeds_and_lags(kind)[1], n + 1 - len(terms))
        return terms


def seq_term(kind: SequenceKind, n: int) -> int:
    """The n-th term of the family, n >= 0."""
    if n < 0:
        raise ValueError("sequence index must be nonnegative, got %d" % n)
    return _terms_through(kind, n)[n]


def seq_range(kind: SequenceKind, start: int, stop: int) -> List[int]:
    """Terms start..stop inclusive, computed in one forward pass."""
    if start < 0 or stop < start:
        raise ValueError("need 0 <= start <= stop, got %d..%d" % (start, stop))
    terms = _terms_through(kind, stop)
    return terms[start : stop + 1]


def tribonacci_explicit(n: int) -> int:
    """Tribonacci term by the double binomial sum, valid for n >= 2.

    Independent of the recurrence path, so the two can certify each other.
    """
    if n < 2:
        raise ValueError("explicit tribonacci form needs n >= 2, got %d" % n)
    total = 0
    for i in range(n // 2):
        for j in range(i + 1):
            total += binomial(i, j) * binomial(n - 2 - i - j, i)
    return total


def square_rmino_closed(r: int, m: int) -> int:
    """Closed binomial sum for the square-and-r-mino count, m >= 0."""
    if r < 2:
        raise ValueError("square-rmino requires r >= 2, got %d" % r)
    if m < 0:
        raise ValueError("sequence index must be nonnegative, got %d" % m)
    return sum(binomial(m - (r - 1) * i, i) for i in range(m // r + 1))
