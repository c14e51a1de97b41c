"""Integer sequence families defined by linear recurrences over small seeds.

FAMILY_TABLE is the one place each family is described: the orders r it
accepts, its seed block and its recurrence lags.  order_refusal reads the
orders as the one order rule, which SequenceKind raises and the identity
registry takes as each case's order domain.  Term n past the seeds is
the sum of the terms n - lag; read as piece lengths, the same lags give the
family's strip tilings (tilings.pieces_for), and their tiling denominator
(series.tiling_den) is the family's series denominator (family_den).
terms_at is the one stepper behind seq_term, seq_range and
determinant.make_entries: it runs forward from the seeds on every call in
a trimmed window, so nothing is kept between calls and one deep term holds
only the last few.  Negative indices are rejected; closed-form
cross-checks live alongside the recurrences so independent evaluations
can be compared term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .combinatorics import binomial
from .series import MAX_R, CFinite, tiling_den


class Family(NamedTuple):
    """One row of FAMILY_TABLE; seeds and lags map r (None if fixed) to fresh lists."""

    min_r: Optional[int]  # None: a fixed family, which takes no r
    odd_only: bool
    seeds: Callable[[Optional[int]], List[int]]
    lags: Callable[[Optional[int]], List[int]]


def _one_last(r: int) -> List[int]:
    return [0] * (r - 1) + [1]


def _one_first(r: int) -> List[int]:
    return [1] + [0] * (r - 1)


# every seed block is exactly max(lags) long, which the C-finite route needs
FAMILY_TABLE: Dict[str, Family] = {
    "fibonacci": Family(None, False, lambda r: [0, 1], lambda r: [1, 2]),
    "tribonacci": Family(None, False, lambda r: [0, 0, 1], lambda r: [1, 2, 3]),
    "padovan": Family(None, False, lambda r: [1, 0, 0], lambda r: [2, 3]),
    "gen-tribonacci": Family(3, False, _one_last, lambda r: [1, 2, r]),
    "gen-padovan": Family(3, False, _one_first, lambda r: [2, r]),
    # r = 2 admitted by extension: a_n = a_(n-1) + a_(n-2), all-ones seeds
    "square-rmino": Family(2, False, lambda r: [1] * r, lambda r: [1, r]),
    "skip-tribonacci": Family(3, True, _one_last, lambda r: [1, (r + 1) // 2, r]),
    "k-step-fibonacci": Family(2, False, _one_last, lambda r: list(range(1, r + 1))),
    # r = 2 admitted by extension: Q_n = Q_(n-2), seeds 1, 0
    "q-sequence": Family(2, False, _one_first, lambda r: list(range(2, r + 1))),
}

FAMILIES = tuple(FAMILY_TABLE)
FIXED_FAMILIES = tuple(f for f in FAMILIES if FAMILY_TABLE[f].min_r is None)
PARAMETRIC_FAMILIES = tuple(f for f in FAMILIES if f not in FIXED_FAMILIES)


def order_refusal(family: str, r: Optional[int]) -> Optional[str]:
    """Why family refuses the order r, or None when it takes r; fixed families take only None.

    The one statement of the order rule: FAMILY_TABLE's min_r and odd_only,
    and MAX_R above every family.
    """
    fam = FAMILY_TABLE.get(family)
    if fam is None:
        return "unknown sequence family %r" % (family,)
    if fam.min_r is None:
        return None if r is None else "family %r takes no r parameter" % (family,)
    if r is None:
        return "family %r requires r" % (family,)
    if r < fam.min_r or (fam.odd_only and r % 2 == 0):
        odd = "odd " if fam.odd_only else ""
        return "%s requires %sr >= %d, got %d" % (family, odd, fam.min_r, r)
    if r > MAX_R:
        return "%s requires r <= MAX_R = %d, got %d" % (family, MAX_R, r)
    return None


@dataclass(frozen=True)
class SequenceKind:
    """Family tag plus the order parameter r for parameterized families."""

    family: str
    r: Optional[int] = None

    def __post_init__(self) -> None:
        refusal = order_refusal(self.family, self.r)
        if refusal is not None:
            raise ValueError(refusal)


def seeds_and_lags(kind: SequenceKind) -> Tuple[List[int], List[int]]:
    """Seed block and recurrence lag list for a kind, from FAMILY_TABLE.

    Term n for n >= len(seeds) is the sum of terms n - lag over the lags.
    """
    fam = FAMILY_TABLE[kind.family]
    return fam.seeds(kind.r), fam.lags(kind.r)


def family_den(kind: SequenceKind) -> List[int]:
    """Q = 1 - sum x^lag, the denominator of the family's series: its lags as unit pieces."""
    return tiling_den([(lag, 1) for lag in FAMILY_TABLE[kind.family].lags(kind.r)])


def family_series(kind: SequenceKind) -> CFinite:
    """The family's terms as one series: seeds * Q mod x^L over Q = family_den."""
    return CFinite.from_head(family_den(kind), FAMILY_TABLE[kind.family].seeds(kind.r))


# terms_at steps the recurrence this many terms at a time between trims
_CHUNK = 256


def terms_at(kind: SequenceKind, start: int, stride: int, count: int) -> List[int]:
    """Terms start, start + stride, ... of the family, count of them, in one forward pass.

    The recurrence steps in a window that is trimmed to the last max(lags)
    terms after every _CHUNK steps, so besides the terms it returns it holds
    at most max(lags) + _CHUNK of them.
    """
    terms, lags = seeds_and_lags(kind)
    keep = max(lags)
    back = [-lag for lag in lags]
    # the lagged terms as a tuple; itemgetter returns one only for two or more
    pick = itemgetter(*back) if len(back) > 1 else lambda window: (window[back[0]],)
    append = terms.append
    top = start + (count - 1) * stride
    base = 0  # family index of terms[0]
    out: List[int] = []
    while True:
        for _ in range(min(top + 1 - base - len(terms), _CHUNK)):
            append(sum(pick(terms)))
        index = start + len(out) * stride
        out += terms[index - base : top + 1 - base : stride]
        if len(out) == count:
            return out
        # every later term lies past the last one, so older terms can go
        cut = len(terms) - keep
        del terms[:cut]
        base += cut


def seq_term(kind: SequenceKind, n: int) -> int:
    """The n-th term of the family, n >= 0, by one forward pass from the seeds."""
    if n < 0:
        raise ValueError("sequence index must be nonnegative, got %d" % n)
    return terms_at(kind, n, 1, 1)[0]


def seq_range(kind: SequenceKind, start: int, stop: int) -> List[int]:
    """Terms start..stop inclusive, computed in one forward pass from the seeds."""
    if start < 0 or stop < start:
        raise ValueError("need 0 <= start <= stop, got %d..%d" % (start, stop))
    return terms_at(kind, start, 1, stop + 1 - start)


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
    SequenceKind("square-rmino", r)  # refuses r outside the family's domain
    if m < 0:
        raise ValueError("sequence index must be nonnegative, got %d" % m)
    return sum(binomial(m - (r - 1) * i, i) for i in range(m // r + 1))
