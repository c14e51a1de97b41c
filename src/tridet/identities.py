"""Registry of determinant identities with exact pass/fail evaluation.

Each case pairs a determinant left side (an entry rule over a sequence
family, evaluated by the C-finite determinant route) with a right side
declared as one series (series.CFinite) from the paper's formula, never
from a left side's series: a family's series shifted, a tiling sum's
1 / (1 - s x - w x^k), a catalog entry, or a closed, floor or periodic
form given by its denominator and its first printed values (_printed).
The comment next to each case is the derivation from the printed formula
to the declared series.  Each case but I-36 is data: its clause rows
(entry rule row (family, start, stride, a0), series, first n), one for
most cases and two for I-34, which _case reads at r into Clauses; only
I-36, a hand-written sweep, names its family.  A case takes the orders r its
entry family takes in sequences.FAMILY_TABLE (read through
order_refusal), narrowed only where the paper narrows them: I-19b, I-20,
I-21, I-25 and I-26.  Every case is evaluated one way, by its sweep: the
(lhs, rhs) pairs for n = lo..hi at one r, built by _sweep from each
clause rule's determinant series (determinant.det_gf, a CFinite built
from the first L entries; no later entry is made) and its right side,
both read by CFinite.coefficients, O(n) terms per (case, r, clause).
evaluate, and for one-clause cases rule and rhs, are single-point views
of the same case.  check_sweeps yields the reports one (case, r) sweep at
a time, so a caller can write each sweep and drop it; check_all collects
them.  A report passes when the two integers are equal; failures are
data, never exceptions.  Only points inside a case's stated (r, n)
domain are checked, so none outside it is ever reported as passed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .combinatorics import binomial
from .determinant import EntryRule, det_gf
from .sequences import (
    FAMILY_TABLE,
    MAX_R,
    PARAMETRIC_FAMILIES,
    SequenceKind,
    family_series,
    order_refusal,
    seq_range,
    seq_term,
)
from .series import CFinite, gf_catalog, tiling_den

DEFAULT_R_SET = (2, 3, 4, 5, 6, 7, 8)
DEFAULT_N_MAX = 24

RhsFn = Callable[[Optional[int], int], int]
PairFn = Callable[[Optional[int], int], Tuple[int, int]]
SweepFn = Callable[[Optional[int], int, int], List[Tuple[int, int]]]
SeriesFn = Callable[[Optional[int]], CFinite]


class Clause(NamedTuple):
    """det(M_n) over rule equals coefficient n of gf for every n >= first.

    A clause has no last n, by choice: I-19b, true only below a bound, states
    it as its case's n_cap, and a reader of clauses bounds n by case.n_cap(r).
    """

    rule: EntryRule
    gf: CFinite
    first: int


ClausesFn = Callable[[Optional[int]], List[Clause]]
# rows read at r by _at: an entry rule (family, start, stride, a0), a clause (rule row, gf, first)
IntAt = Union[int, Callable[[int], int]]
RuleRow = Tuple[str, IntAt, int, int]
ClauseRow = Tuple[RuleRow, SeriesFn, IntAt]


@dataclass(frozen=True)
class IdentityCase:
    """One checkable identity over a stated (r, n) domain.

    Fixed cases (parameterized False, over a fixed family) run once with
    r = None; the rest run per accepted r, and accepts_r is the entry
    family's order domain from FAMILY_TABLE, narrowed where the paper
    narrows it.  clauses(r) is the identity as data, the list of its
    clauses at r; it is None only for I-36, whose three points have no entry
    rule.  sweep(r, lo, hi) is the one evaluation path: the (lhs, rhs) pairs
    for n = lo..hi, read from the clauses where there are any.  The rest
    are single-point views: evaluate(r, n) is sweep(r, n, n)[0], and
    rule/rhs, present for one-clause cases, give the entry rule at r and
    the right side at one n.
    """

    id: str
    description: str
    parameterized: bool
    accepts_r: Callable[[int], bool]
    n_min: Callable[[Optional[int]], int]
    n_cap: Callable[[Optional[int]], Optional[int]]
    sweep: SweepFn
    evaluate: PairFn
    clauses: Optional[ClausesFn] = None
    rule: Optional[Callable[[Optional[int]], EntryRule]] = None
    rhs: Optional[RhsFn] = None


class IdentityReport(NamedTuple):
    """Outcome of one (identity, r, n) check; passed means lhs == rhs exactly."""

    id: str
    r: Optional[int]
    n: int
    lhs: int
    rhs: int
    passed: bool


class VerificationSummary(NamedTuple):
    checked: int
    passed: int
    failed: int


def _neg1(k: int) -> int:
    return -1 if k % 2 else 1


def _twist(gf: CFinite) -> CFinite:
    """(-1)^(n-1) times each coefficient n."""
    return -gf.scale(-1)


def _x(k: int) -> CFinite:
    """The monomial x^k."""
    return CFinite((1,)).shift(k)


def _fam(family: str, r: Optional[int] = None) -> CFinite:
    return family_series(SequenceKind(family, r))


def _tiling(k: int, weight: int, square: int = 1) -> CFinite:
    """v(m) = sum_i C(m-(k-1)i, i) * weight^i * square^(m-ki), as one series.

    The i-th term counts the tilings of m by squares and i k-minos, with
    the factor square per square and weight per k-mino.  Summed over i,
    weight^i x^(ki) / (1 - square x)^(i+1) is 1 / (1 - square x - weight x^k).
    Most of the paper's binomial sums are this one at some k, weights and
    argument m.
    """
    return CFinite((1,), tiling_den([(1, square), (k, weight)]))


def _printed(den: Sequence[int], formula: Callable[[int], int], terms: int) -> CFinite:
    """The series over den that starts with the printed formula at n = 0..terms-1.

    It is the formula at every n exactly when den's recurrence holds for the
    formula from n = terms on; each use names why it does.
    """
    return CFinite.from_head(den, [formula(n) for n in range(terms)])


def _sweep(clauses: ClausesFn, r: Optional[int], lo: int, hi: int) -> List[Tuple[int, int]]:
    """(lhs, rhs) for n = lo..hi, one expansion of det_gf(rule) and one of gf per clause.

    Each n reports its first failing clause that covers it (first <= n),
    else its first covering clause.
    """
    swept = [
        (first, list(zip(det_gf(rule).coefficients(lo, hi), gf.coefficients(lo, hi))))
        for rule, gf, first in clauses(r)
    ]
    if len(swept) == 1:
        return swept[0][1]
    out = []
    for i, n in enumerate(range(lo, hi + 1)):
        covering = [pairs[i] for first, pairs in swept if first <= n]
        out.append(next((p for p in covering if p[0] != p[1]), covering[0]))
    return out


def _at(value, r: Optional[int]):
    """value, or value(r) where it is a function of r: start, first and n_cap."""
    return value(r) if callable(value) else value


def _case(
    id: str,
    description: str,
    *,
    rule: Optional[RuleRow] = None,
    gf: Optional[SeriesFn] = None,
    n_min: IntAt = 1,
    clauses: Optional[List[ClauseRow]] = None,
    family: Optional[str] = None,
    sweep: Optional[SweepFn] = None,
    narrow: Optional[Callable[[int], bool]] = None,
    n_cap: Optional[IntAt] = None,
) -> IdentityCase:
    """A case from clause rows (rule, gf and n_min spell one), or from a sweep over family.

    The case takes the orders its entry family takes in FAMILY_TABLE, and of
    those only the ones narrow accepts; n_min(r) is the rows' smallest first.
    """
    rows = [(rule, gf, n_min)] if rule is not None else clauses
    clauses_fn = rule_fn = rhs = None
    n_min_fn = lambda r: 1
    if rows is not None:
        (family,) = {row[0] for row, _, _ in rows}
        entry = lambda row, r: EntryRule(SequenceKind(family, r), _at(row[1], r), *row[2:])
        clauses_fn = lambda r: [
            Clause(entry(row, r), fn(r), _at(first, r)) for row, fn, first in rows
        ]
        sweep = partial(_sweep, clauses_fn)
        n_min_fn = lambda r: min(_at(first, r) for _, _, first in rows)
        if len(rows) == 1:
            ((row, fn, _),) = rows
            rule_fn = partial(entry, row)
            rhs = lambda r, n: fn(r).coefficients(n, n)[0]
    assert sweep is not None and family is not None
    return IdentityCase(
        id=id,
        description=description,
        parameterized=family in PARAMETRIC_FAMILIES,
        accepts_r=lambda r: order_refusal(family, r) is None and (narrow is None or narrow(r)),
        n_min=n_min_fn,
        n_cap=lambda r: _at(n_cap, r),
        sweep=sweep,
        evaluate=lambda r, n: sweep(r, n, n)[0],
        clauses=clauses_fn,
        rule=rule_fn,
        rhs=rhs,
    )


# right sides, one helper per case where a lambda would be unreadable

def _sum_i09(n: int) -> int:
    total = 0
    for i in range(n):
        b = binomial(n - 1 - i, i // 2)
        if b == 0:
            continue
        e = n - 1 - i - i // 2
        assert e >= 0, "exponent went negative with a live binomial"
        total += 2**e * b
    return total


def _gf_i20_i21(r: int) -> CFinite:
    # v(m) = 0 below h = ceil(r/2), F(2m-r+1) from h to r (plus 1 at m = r
    # for odd r), then v(m) = 3v(m-1) - v(m-2) + v(m-h), with - v(m-h-1)
    # added for even r
    h = (r + 1) // 2
    fib = _fam("fibonacci").coefficients(0, r + 1)
    head = [0] * h + [fib[2 * m - r + 1] for m in range(h, r + 1)]
    den = [1, -3, 1] + [0] * (h - 1)
    den[h] -= 1
    if r % 2 == 1:
        head[r] += 1
    else:
        den[h + 1] += 1
    return _twist(CFinite.from_head(den, head))


def _gf_i23(r: int) -> CFinite:
    if r % 2 == 1:
        return _twist(gf_catalog("i23", r))
    # the convolution sum_i h(i) h(n-1-i) of the half-order square-and-r-mino
    # count h is [x^(n-1)] of the square of h's series
    half = _fam("square-rmino", r // 2)
    return _twist((half * half).shift(1))


def _gf_i25(r: int) -> CFinite:
    # the pattern is 1, 2, 1 at n = 0, 1, 2 and 0 on to n = m - 1, m = (r-1)/2;
    # each residue class mod m changes sign by (-1)^(m-1) per period
    m = (r - 1) // 2
    return CFinite.from_head([1] + [0] * (m - 1) + [_neg1(m)], [1, 2, 1] + [0] * (m - 3))


def _gf_i34(r: int) -> CFinite:
    # the signed (r-1)-step value at n - 2; at r = 2 the one-step count, 1 at every n
    return _twist((_fam("k-step-fibonacci", r - 1) if r > 2 else CFinite((1,), (1, -1))).shift(2))


def _sweep_i36(r: Optional[int], lo: int, hi: int) -> List[Tuple[int, int]]:
    """The three fixed identities are the points n = 1, 2, 3."""
    # each polynomial is the multinomial expansion of det(M_n) over a case's
    # rule: I-04's at n = 6 (100), I-08's at n = 4 (0) and I-02's at n = 5 (1)
    t = seq_range(SequenceKind("tribonacci"), 0, 10)
    pairs = [
        (t[2] ** 3 + 2 * t[2] * t[6] + t[4] ** 2 + t[10], 100),
        (t[3] ** 4 - 3 * t[3] ** 2 * t[4] + 2 * t[3] * t[5] + t[4] ** 2 - t[6], 0),
        (
            t[2] ** 5
            - 4 * t[2] ** 3 * t[3]
            + 3 * t[2] ** 2 * t[4]
            + 3 * t[2] * t[3] ** 2
            - 2 * t[2] * t[5]
            - 2 * t[3] * t[4]
            + t[6],
            seq_term(SequenceKind("padovan"), 7),
        ),
    ]
    return pairs[lo - 1 : hi]


def registry() -> List[IdentityCase]:
    """All identity cases, in id order; 37 in total."""
    i04 = _case(
        "I-04",
        "even-indexed tribonacci entries with a0 = -1: closed form via c(n) = 3c(n-1) + 2c(n-2)",
        rule=("tribonacci", 0, 2, -1),
        # c(2) = 1, c(3) = 2, then c(n) = 3c(n-1) + 2c(n-2)
        gf=lambda r: CFinite.from_head((1, -3, -2), (1, 2)).shift(2),
        n_min=2,
    )
    i13 = _case(
        "I-13",
        "odd-indexed tribonacci entries from index 5: constant 4",
        rule=("tribonacci", 5, 2, 1),
        gf=lambda r: CFinite((4,), (1, -1)),
        n_min=3,
    )
    cases = [
        _case(
            "I-01",
            "tribonacci entries from index 0: signed Fibonacci value",
            rule=("tribonacci", 0, 1, 1),
            gf=lambda r: _twist(_fam("fibonacci").shift(2)),
            n_min=2,
        ),
        _case(
            "I-02",
            "tribonacci entries from index 2: signed Padovan value",
            rule=("tribonacci", 2, 1, 1),
            gf=lambda r: _twist(_fam("padovan").shift(-2)),
        ),
        _case(
            "I-03",
            "tribonacci entries with a0 = -1: floor((2^n + 6) / 14)",
            rule=("tribonacci", 0, 1, -1),
            # 2^n mod 14 has period 3 from n = 1, so (1 - 2x)(1 - x^3)
            # annihilates the floor from n = 5
            gf=lambda r: _printed((1, -2, 0, -1, 2), lambda n: (2**n + 6) // 14, 5),
        ),
        i04,
        _case(
            "I-05",
            "tribonacci entries from index 1: signed sum of C(n-2-2i, i)",
            rule=("tribonacci", 1, 1, 1),
            # f(n-2), f(m) = sum_i C(m-2i, i); the empty sum f(-1) = 0 serves n = 1
            gf=lambda r: _twist(_tiling(3, 1).shift(2)),
        ),
        _case(
            "I-06",
            "tribonacci entries from index 1 with a0 = -1: sum of C(2n-4-2i, i)",
            rule=("tribonacci", 1, 1, -1),
            # f(2n-4), f(m) = sum_i C(m-2i, i): the even half of x^4 f
            gf=lambda r: _tiling(3, 1).shift(4).multisect(2),
            n_min=2,
        ),
        _case(
            "I-07",
            "odd-indexed tribonacci entries from index 1: signed floor(4 * 3^(n-3))",
            rule=("tribonacci", 1, 2, 1),
            # geometric with ratio 3 from n = 3
            gf=lambda r: _twist(
                _printed((1, -3), lambda n: 4 * 3 ** (n - 3) if n >= 3 else 4 // 3 ** (3 - n), 4)
            ),
        ),
        _case(
            "I-08",
            "tribonacci entries from index 3: identically zero from n = 4",
            rule=("tribonacci", 3, 1, 1),
            gf=lambda r: CFinite(()),
            n_min=4,
        ),
        _case(
            "I-09",
            "odd-indexed tribonacci entries from index 3: signed power-of-two binomial sum",
            rule=("tribonacci", 3, 2, 1),
            # even and odd i split the sum into A(n-1) + A(n-2), where
            # A(m) = sum_j 2^(m-3j) C(m-2j, j) obeys A(m) = 2A(m-1) + A(m-3); so does the sum
            gf=lambda r: _twist(_printed((1, -2, 0, -1), _sum_i09, 3)),
        ),
        _case(
            "I-10",
            "tribonacci entries from index 4: period-3 pattern of 0 and +-1",
            rule=("tribonacci", 4, 1, 1),
            # (-1)^n, (-1)^(n+1), 0 by n mod 3, so v(n) = -v(n-3)
            gf=lambda r: _printed((1, 0, 0, 1), lambda n: (_neg1(n), _neg1(n + 1), 0)[n % 3], 3),
            n_min=2,
        ),
        _case(
            "I-11",
            "even-indexed tribonacci entries from index 4: 4 up to alternating sign",
            rule=("tribonacci", 4, 2, 1),
            gf=lambda r: _twist(CFinite((4,), (1, -1))),
            n_min=3,
        ),
        _case(
            "I-12",
            "tribonacci entries from index 5: sum of C(n+2+i, n+1-2i)",
            rule=("tribonacci", 5, 1, 1),
            # g(m) = sum_i C(m+i, m-1-2i) at m = n + 2: g(m) = 3g(m-1) - 2g(m-2) + g(m-3)
            gf=lambda r: _printed(
                (1, -3, 2, -1),
                lambda n: sum(binomial(n + 2 + i, n + 1 - 2 * i) for i in range((n + 1) // 2 + 1)),
                3,
            ),
        ),
        i13,
        _case(
            "I-14",
            "order-r tribonacci entries from index 0: signed Fibonacci value",
            rule=("gen-tribonacci", 0, 1, 1),
            gf=lambda r: _twist(_fam("fibonacci").shift(r - 1)),
            n_min=lambda r: r - 1,
        ),
        _case(
            "I-15",
            "order-r tribonacci entries from index r-2: signed square-and-r-mino count",
            rule=("gen-tribonacci", lambda r: r - 2, 1, 1),
            gf=lambda r: _twist(_fam("square-rmino", r).shift(2)),
            n_min=2,
        ),
        _case(
            "I-16",
            "order-r tribonacci entries from index r-1: signed order-r Padovan value",
            rule=("gen-tribonacci", lambda r: r - 1, 1, 1),
            gf=lambda r: _twist(_fam("gen-padovan", r).shift(1 - r)),
        ),
        _case(
            "I-17",
            "order-r tribonacci entries from index r: signed indicator of n = r",
            rule=("gen-tribonacci", lambda r: r, 1, 1),
            gf=lambda r: _twist(_x(r)),
            n_min=3,
        ),
        _case(
            "I-18",
            "order-r tribonacci entries from index r+1: alternating sum of C(n-(r-2)i, i)",
            rule=("gen-tribonacci", lambda r: r + 1, 1, 1),
            # the sign (-1)^(ri) is the weight (-1)^r per (r-1)-mino
            gf=lambda r: _tiling(r - 1, _neg1(r)),
            n_min=2,
        ),
        _case(
            "I-19",
            "odd-indexed order-r entries from index r+1: 4 up to sign (odd r), binomial sum with boundary terms (even r)",
            rule=("gen-tribonacci", lambda r: r + 1, 2, 1),
            # even r: u(n-1), u(m) = sum_i C(m-(r/2-1)i, i), plus the boundary
            # tilings the sum misses: all-dominoes (n = 1) and the single long
            # piece (2n = r)
            gf=lambda r: _twist(
                CFinite((4,), (1, -1))
                if r % 2 == 1
                else _tiling(r // 2, 1).shift(1) + _x(1) + _x(r // 2)
            ),
            n_min=lambda r: r if r % 2 == 1 else 1,
        ),
        _case(
            "I-19b",
            "odd-indexed order-r entries from index r+1, n below r: 1 or 3 up to sign",
            rule=("gen-tribonacci", lambda r: r + 1, 2, 1),
            # constant from n = (r+1)/2
            gf=lambda r: _twist(
                _printed((1, -1), lambda n: 3 if n >= (r + 1) // 2 else 1, (r + 3) // 2)
            ),
            narrow=lambda r: r % 2 == 1,
            n_min=2,
            n_cap=lambda r: r - 1,
        ),
        _case(
            "I-20",
            "odd-indexed order-r entries from index 1, odd r: signed auxiliary three-term sequence",
            rule=("gen-tribonacci", 1, 2, 1),
            gf=_gf_i20_i21,
            narrow=lambda r: r % 2 == 1,
        ),
        _case(
            "I-21",
            "odd-indexed order-r entries from index 1, even r: signed auxiliary four-term sequence",
            rule=("gen-tribonacci", 1, 2, 1),
            gf=_gf_i20_i21,
            narrow=lambda r: r % 2 == 0,
        ),
        _case(
            "I-22",
            "odd-indexed order-r entries from index 1: signed series coefficient",
            rule=("gen-tribonacci", 1, 2, 1),
            gf=lambda r: _twist(gf_catalog("i22", r)),
        ),
        _case(
            "I-23",
            "odd-indexed order-r entries from index r: signed series coefficient (odd r) or half-order convolution (even r)",
            rule=("gen-tribonacci", lambda r: r, 2, 1),
            gf=_gf_i23,
        ),
        _case(
            "I-24",
            "odd-indexed tribonacci entries from index 3: series coefficient of (x - x^2) / (1 + 2x + x^3)",
            rule=("tribonacci", 3, 2, 1),
            gf=lambda r: gf_catalog("i24", 3),
        ),
        _case(
            "I-25",
            "odd-indexed order-r entries from index r+2, odd r >= 7: residue-class sign pattern",
            rule=("gen-tribonacci", lambda r: r + 2, 2, 1),
            gf=_gf_i25,
            narrow=lambda r: r >= 7 and r % 2 == 1,
            n_min=lambda r: (r + 3) // 2,
        ),
        _case(
            "I-26",
            "odd-indexed order-5 entries from index 7: zero at even n, +-2 at odd n",
            rule=("gen-tribonacci", lambda r: r + 2, 2, 1),
            # v(n) = -v(n-2)
            gf=lambda r: _printed(
                (1, 0, 1), lambda n: 0 if n % 2 == 0 else 2 * _neg1((n - 1) // 2), 2
            ),
            narrow=lambda r: r == 5,
            n_min=4,
        ),
        # I-27 restates I-13: the same rule and right side
        dataclasses.replace(
            i13,
            id="I-27",
            description="odd-indexed tribonacci entries from index 5: constant 4, order-3 route",
        ),
        _case(
            "I-28",
            "even-indexed order-r entries from index 0: series coefficient",
            rule=("gen-tribonacci", 0, 2, 1),
            gf=lambda r: gf_catalog("i28", r),
        ),
        _case(
            "I-29",
            "even-indexed order-r entries from index 0 with a0 = -1: series coefficient",
            rule=("gen-tribonacci", 0, 2, -1),
            gf=lambda r: gf_catalog("i29", r),
        ),
        _case(
            "I-30",
            "order-r entries from index r+2: series coefficient",
            rule=("gen-tribonacci", lambda r: r + 2, 1, 1),
            gf=lambda r: gf_catalog("i30", r),
        ),
        _case(
            "I-31",
            "even-indexed tribonacci entries from index 0: signed difference of weighted binomial sums",
            rule=("tribonacci", 0, 2, 1),
            # a(n-2) - a(n-3), a(m) = sum_i C(m-2i, i) 2^i 3^(m-3i)
            gf=lambda r: _twist(_tiling(3, 2, 3) * CFinite((0, 0, 1, -1))),
            n_min=3,
        ),
        _case(
            "I-32",
            "skip-tribonacci entries with a0 = -1: sum of C(2n-r-1-(r-1)i, i)",
            rule=("skip-tribonacci", lambda r: (r - 1) // 2, 1, -1),
            # v(2n-r-1), v(M) = sum_i C(M-(r-1)i, i): the even half of x^(r+1) v
            gf=lambda r: _tiling(r, 1).shift(r + 1).multisect(2),
            n_min=lambda r: (r + 1) // 2,
        ),
        _case(
            "I-33",
            "r-step Fibonacci entries with a0 = -1: floor((2^n + 2^r - 2) / (2^(r+1) - 2))",
            rule=("k-step-fibonacci", 0, 1, -1),
            # 2^n mod (2^(r+1) - 2) has period r from n = 1, so
            # (1 - 2x)(1 - x^r) annihilates the floor from n = r + 2
            gf=lambda r: _printed(
                [1, -2] + [0] * (r - 2) + [-1, 2],
                lambda n: (2**n + 2**r - 2) // (2 ** (r + 1) - 2),
                r + 2,
            ),
        ),
        _case(
            "I-34",
            "r-step Fibonacci entries: signed (r-1)-step value and signed spaced-piece count, two clauses",
            clauses=[
                # from n = r - 1, and n >= 1 at any r
                (("k-step-fibonacci", 0, 1, 1), _gf_i34, lambda r: max(r - 1, 1)),
                # signed spaced-piece count at n + r - 1
                (("k-step-fibonacci", lambda r: r - 1, 1, 1),
                 lambda r: _twist(_fam("q-sequence", r).shift(1 - r)), 1),
            ],
        ),
        # I-35 restates I-04: the same rule and right side
        dataclasses.replace(
            i04,
            id="I-35",
            description="even-indexed tribonacci entries with a0 = -1: recurrence c(n) = 3c(n-1) + 2c(n-2)",
        ),
        _case(
            "I-36",
            "three fixed polynomial identities in tribonacci terms: 100, 0, and a Padovan value",
            family="tribonacci",
            sweep=_sweep_i36,
            n_cap=3,
        ),
    ]
    assert [c.id for c in cases] == sorted(c.id for c in cases)
    return cases


def check_sweeps(
    r_set: Sequence[int] = DEFAULT_R_SET,
    n_max: int = DEFAULT_N_MAX,
    ids: Optional[Sequence[str]] = None,
    fail_fast: bool = False,
) -> Iterator[List[IdentityReport]]:
    """The reports of check_all, one in-domain (case, r) sweep at a time.

    Each item is the nonempty list of one sweep's reports in n order; with
    fail_fast, the sweep holding the first failure ends at it and nothing
    follows.  Unknown ids, an r above MAX_R and an r below the smallest
    order any family takes raise ValueError when the first item is asked for.
    """
    too_big = [r for r in r_set if r > MAX_R]
    if too_big:
        raise ValueError("r_set holds r = %d, above MAX_R = %d" % (max(too_big), MAX_R))
    lowest = min(fam.min_r for fam in FAMILY_TABLE.values() if fam.min_r is not None)
    if min(r_set, default=lowest) < lowest:
        raise ValueError("r_set holds r = %d, below the smallest order %d" % (min(r_set), lowest))
    cases = registry()
    if ids is not None:
        known = {c.id for c in cases}
        unknown = sorted(set(ids) - known)
        if unknown:
            raise ValueError("unknown identity ids: %s" % ", ".join(unknown))
        wanted = set(ids)
        cases = [c for c in cases if c.id in wanted]
    for case in cases:
        for r in sorted(set(r_set)) if case.parameterized else [None]:
            if r is not None and not case.accepts_r(r):
                continue
            cap = case.n_cap(r)
            ns = range(case.n_min(r), (n_max if cap is None else min(n_max, cap)) + 1)
            if not ns:
                continue
            reports = [
                IdentityReport(case.id, r, n, lhs, rhs, lhs == rhs)
                for n, (lhs, rhs) in zip(ns, case.sweep(r, ns[0], ns[-1]), strict=True)
            ]
            if fail_fast and not all(report.passed for report in reports):
                yield reports[: next(i for i, rep in enumerate(reports) if not rep.passed) + 1]
                return
            yield reports


def check_all(
    r_set: Sequence[int] = DEFAULT_R_SET,
    n_max: int = DEFAULT_N_MAX,
    ids: Optional[Sequence[str]] = None,
    fail_fast: bool = False,
) -> Tuple[List[IdentityReport], VerificationSummary]:
    """Check every in-domain (case, r, n) with n <= n_max, one sweep per (case, r).

    Reports come back ordered by (id, r, n) with fixed cases first at
    r = None; fixed cases run once regardless of r_set.
    """
    reports = [rep for sweep in check_sweeps(r_set, n_max, ids, fail_fast) for rep in sweep]
    passed = sum(1 for report in reports if report.passed)
    return reports, VerificationSummary(len(reports), passed, len(reports) - passed)
