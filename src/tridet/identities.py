"""Registry of determinant identities with exact pass/fail evaluation.

Each case pairs a determinant left side (an entry rule over a sequence
family, evaluated by the C-finite determinant route) with an independently
coded right side: a closed form, an auxiliary recurrence, a series
coefficient, or one of the paper's binomial sums.  Every case is evaluated
one way, by its sweep: the (lhs, rhs) pairs for n = lo..hi at one r, from
one determinant sequence and one pass over the right side, O(n) terms per
(case, r).  A binomial sum is a seeded recurrence (_seeded): the paper's sum
gives the first few values and the short recurrence it obeys by Pascal's
rule, named next to each case, gives the rest.  evaluate, rule and rhs are
single-point views of the same case.  A report passes when the two integers
are equal; failures are data, never exceptions.  Checks outside a case's
stated (r, n) domain are refused rather than silently passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .combinatorics import binomial
from .determinant import EntryRule, det_sequence, make_entries
from .sequences import SequenceKind, seeds_and_lags, seq_term
from .series import expand_rational, gf_catalog, rational_coefficients

DEFAULT_R_SET = (2, 3, 4, 5, 6, 7, 8)
DEFAULT_N_MAX = 24

_FIB = SequenceKind("fibonacci")
_TRIB = SequenceKind("tribonacci")
_PAD = SequenceKind("padovan")

RhsFn = Callable[[Optional[int], int], int]
TermsFn = Callable[[Optional[int], int, int], List[int]]
PairFn = Callable[[Optional[int], int], Tuple[int, int]]
SweepFn = Callable[[Optional[int], int, int], List[Tuple[int, int]]]


@dataclass(frozen=True)
class IdentityCase:
    """One checkable identity over a stated (r, n) domain.

    Fixed cases (parameterized False) run once with r = None; the rest run
    per accepted r.  sweep(r, lo, hi) is the one evaluation path: the
    (lhs, rhs) pairs for n = lo..hi.  The rest are single-point views:
    evaluate(r, n) is sweep(r, n, n)[0], and rule/rhs, present for
    determinant-vs-right-side cases, give the entry rule at r and the right
    side at one n.
    """

    id: str
    description: str
    parameterized: bool
    accepts_r: Callable[[int], bool]
    n_min: Callable[[Optional[int]], int]
    n_cap: Callable[[Optional[int]], Optional[int]]
    sweep: SweepFn
    evaluate: PairFn
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


@dataclass(frozen=True)
class _Terms:
    """A right side written once for n = lo..hi; called as (r, n) it gives one n."""

    terms: TermsFn

    def __call__(self, r: Optional[int], n: int) -> int:
        return self.terms(r, n, n)[0]


def _neg1(k: int) -> int:
    return -1 if k % 2 else 1


def _alternate(values: List[int], lo: int) -> List[int]:
    """(-1)^(n-1) times each value, the values running over n = lo, lo + 1, ..."""
    return [_neg1(n - 1) * v for n, v in enumerate(values, lo)]


def _coeffs(family: str, r: int, lo: int, hi: int) -> List[int]:
    """Catalog series coefficients of x^lo..x^hi, from one expansion."""
    return expand_rational(gf_catalog(family, r), hi)[lo - 1 :]


def _seeded(
    paper_sum: Callable[[int], int], steps: Sequence[Tuple[int, int]], top: int
) -> List[int]:
    """v(0..top) of a sum that obeys v(m) = sum of c * v(m - lag) over steps (lag, c).

    The first max(lag) values come from the sum itself, the rest from the
    recurrence, so each value costs len(steps) products, not a fresh sum.
    """
    order = max(lag for lag, _ in steps)
    v = [paper_sum(m) for m in range(min(order, top + 1))]
    for m in range(order, top + 1):
        v.append(sum(c * v[m - lag] for lag, c in steps))
    return v


def _tiling_sums(k: int, weight: int, square: int, top: int) -> List[int]:
    """v(0..top) of v(m) = sum_i C(m-(k-1)i, i) * weight^i * square^(m-ki).

    The i-th term counts the tilings of m by squares and i k-minos, with
    the factor square per square and weight per k-mino, so by Pascal's rule
    v(m) = square * v(m-1) + weight * v(m-k).  Most of the paper's binomial
    sums are this one at some k, weights and argument m.
    """

    def paper_sum(m: int) -> int:
        return sum(
            binomial(m - (k - 1) * i, i) * weight**i * square ** (m - k * i)
            for i in range(m // k + 1)
        )

    return _seeded(paper_sum, ((1, square), (k, weight)), top)


def _case(
    id: str,
    description: str,
    *,
    rule: Optional[Callable[[Optional[int]], EntryRule]] = None,
    rhs: Optional[RhsFn] = None,
    sweep: Optional[SweepFn] = None,
    r_ok: Optional[Callable[[int], bool]] = None,
    n_min=1,
    n_cap=None,
) -> IdentityCase:
    if sweep is None:
        assert rule is not None and rhs is not None
        if isinstance(rhs, _Terms):
            terms = rhs.terms
        else:
            def terms(r: Optional[int], lo: int, hi: int) -> List[int]:
                return [rhs(r, n) for n in range(lo, hi + 1)]

        def sweep(r: Optional[int], lo: int, hi: int) -> List[Tuple[int, int]]:
            # one determinant sequence serves every n for this (case, r)
            dets = det_sequence(make_entries(rule(r), hi))
            return list(zip(dets[lo:], terms(r, lo, hi)))

    n_min_fn = n_min if callable(n_min) else (lambda r, _v=n_min: _v)
    n_cap_fn = n_cap if callable(n_cap) else (lambda r, _v=n_cap: _v)
    return IdentityCase(
        id=id,
        description=description,
        parameterized=r_ok is not None,
        accepts_r=r_ok if r_ok is not None else (lambda r: False),
        n_min=n_min_fn,
        n_cap=n_cap_fn,
        sweep=sweep,
        evaluate=lambda r, n: sweep(r, n, n)[0],
        rule=rule,
        rhs=rhs,
    )


def _trib_rule(start: int, stride: int, a0: int) -> Callable[[Optional[int]], EntryRule]:
    return lambda r: EntryRule(_TRIB, start, stride, a0)


def _gt_rule(start_of: Callable[[int], int], stride: int, a0: int) -> Callable[[Optional[int]], EntryRule]:
    return lambda r: EntryRule(SequenceKind("gen-tribonacci", r), start_of(r), stride, a0)


def _odd(r: int) -> bool:
    return r >= 3 and r % 2 == 1


def _even(r: int) -> bool:
    return r >= 4 and r % 2 == 0


def _any_r(r: int) -> bool:
    return r >= 3


# right sides, one helper per case where a lambda would be unreadable

def _rhs_i04(r: Optional[int], lo: int, hi: int) -> List[int]:
    c = [1, 2]  # c(2), c(3)
    while len(c) < hi - 1:
        c.append(3 * c[-1] + 2 * c[-2])
    return c[lo - 2 : hi - 1]


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


def _rhs_i09(r: Optional[int], lo: int, hi: int) -> List[int]:
    # even and odd i split the sum into A(n-1) + A(n-2), where
    # A(m) = sum_j 2^(m-3j) C(m-2j, j) obeys A(m) = 2A(m-1) + A(m-3); so does the sum
    return _alternate(_seeded(_sum_i09, ((1, 2), (3, 1)), hi)[lo:], lo)


def _rhs_i10(r: Optional[int], n: int) -> int:
    m = n % 3
    if m == 0:
        return _neg1(n)
    if m == 1:
        return _neg1(n + 1)
    return 0


def _rhs_i12(r: Optional[int], lo: int, hi: int) -> List[int]:
    def paper_sum(n: int) -> int:
        return sum(binomial(n + 2 + i, n + 1 - 2 * i) for i in range((n + 1) // 2 + 1))

    # g(m) = sum_i C(m+i, m-1-2i) at m = n + 2: g(m) = 3g(m-1) - 2g(m-2) + g(m-3)
    return _seeded(paper_sum, ((1, 3), (2, -2), (3, 1)), hi)[lo:]


def _rhs_i19(r: Optional[int], lo: int, hi: int) -> List[int]:
    assert r is not None
    if r % 2 == 1:
        return [4 * _neg1(n - 1) for n in range(lo, hi + 1)]
    # the sum of C(n-1-(r/2-1)i, i) is u(n-1), u(m) = u(m-1) + u(m-r/2)
    u = _tiling_sums(r // 2, 1, 1, hi - 1)
    out = []
    for n in range(lo, hi + 1):
        # boundary tilings not covered by the sum: all-dominoes (n = 1) and
        # the single long piece (2n = r)
        total = u[n - 1] + (n == 1) + (2 * n == r)
        out.append(_neg1(n - 1) * total)
    return out


def _rhs_i20(r: int, lo: int, hi: int) -> List[int]:
    h = (r + 1) // 2
    vals = [0] * (hi + 1)
    for m in range(1, hi + 1):
        if m < h:
            v = 0
        elif m < r:
            v = seq_term(_FIB, 2 * m - r + 1)
        elif m == r:
            v = 1 + seq_term(_FIB, r + 1)
        else:
            v = 3 * vals[m - 1] - vals[m - 2] + vals[m - h]
        vals[m] = v
    return _alternate(vals[lo:], lo)


def _rhs_i21(r: int, lo: int, hi: int) -> List[int]:
    h = r // 2
    vals = [0] * (hi + 1)
    for m in range(1, hi + 1):
        if m < h:
            v = 0
        elif m <= r:
            v = seq_term(_FIB, 2 * m - r + 1)
        else:
            v = 3 * vals[m - 1] - vals[m - 2] + vals[m - h] - vals[m - h - 1]
        vals[m] = v
    return _alternate(vals[lo:], lo)


def _square(poly: List[int]) -> List[int]:
    out = [0] * (2 * len(poly) - 1)
    for i, a in enumerate(poly):
        for j, b in enumerate(poly):
            out[i + j] += a * b
    return out


def _rhs_i23(r: Optional[int], lo: int, hi: int) -> List[int]:
    assert r is not None
    if r % 2 == 1:
        return _alternate(_coeffs("i23", r, lo, hi), lo)
    # the convolution sum_i h(i) h(n-1-i) of the half-order square-and-r-mino
    # count h is [x^(n-1)] of (P/Q)^2, where P/Q is h's series from its seeds and lags
    seeds, lags = seeds_and_lags(SequenceKind("square-rmino", r // 2))
    q = [1] + [0] * max(lags)
    for lag in lags:
        q[lag] -= 1
    p = [sum(q[j] * seeds[i - j] for j in range(i + 1)) for i in range(len(seeds))]
    conv = rational_coefficients(_square(p), _square(q), hi - 1)[lo - 1 :]
    return _alternate(conv, lo)


def _rhs_i25(r: Optional[int], n: int) -> int:
    assert r is not None
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


def _rhs_i31(r: Optional[int], lo: int, hi: int) -> List[int]:
    # a(m) = sum_i C(m-2i, i) 2^i 3^(m-3i) obeys a(m) = 3a(m-1) + 2a(m-3)
    a = _tiling_sums(3, 2, 3, hi - 2)
    return _alternate([a[n - 2] - a[n - 3] for n in range(lo, hi + 1)], lo)


def _sweep_i34(r: Optional[int], lo: int, hi: int) -> List[Tuple[int, int]]:
    """Both clauses for n = lo..hi, one determinant sequence per clause.

    Each n reports its first failing clause, else its first clause.
    """
    assert r is not None
    ksf = SequenceKind("k-step-fibonacci", r)
    dets_a = det_sequence(make_entries(EntryRule(ksf, 0, 1, 1), hi))
    dets_b = det_sequence(make_entries(EntryRule(ksf, r - 1, 1, 1), hi))
    # the (r-1)-step family exists from r = 3; r = 2 has its one-step count below
    shorter = SequenceKind("k-step-fibonacci", r - 1) if r > 2 else None
    spaced = SequenceKind("q-sequence", r)
    out = []
    for n in range(lo, hi + 1):
        pairs = []
        if n >= r - 1:
            if shorter is None:
                # one-step count: a single all-squares tiling for n >= 2,
                # no tiling of negative length at n = 1
                rhs = 0 if n == 1 else _neg1(n - 1)
            else:
                rhs = _neg1(n - 1) * seq_term(shorter, n - 2)
            pairs.append((dets_a[n], rhs))
        rhs_b = _neg1(n - 1) * seq_term(spaced, n + r - 1)
        pairs.append((dets_b[n], rhs_b))
        out.append(next((p for p in pairs if p[0] != p[1]), pairs[0]))
    return out


def _sweep_i36(r: Optional[int], lo: int, hi: int) -> List[Tuple[int, int]]:
    """The three fixed identities are the points n = 1, 2, 3."""

    def t(k: int) -> int:
        return seq_term(_TRIB, k)

    pairs = [
        (t(2) ** 3 + 2 * t(2) * t(6) + t(4) ** 2 + t(10), 100),
        (t(3) ** 4 - 3 * t(3) ** 2 * t(4) + 2 * t(3) * t(5) + t(4) ** 2 - t(6), 0),
        (
            t(2) ** 5
            - 4 * t(2) ** 3 * t(3)
            + 3 * t(2) ** 2 * t(4)
            + 3 * t(2) * t(3) ** 2
            - 2 * t(2) * t(5)
            - 2 * t(3) * t(4)
            + t(6),
            seq_term(_PAD, 7),
        ),
    ]
    return pairs[lo - 1 : hi]


def registry() -> List[IdentityCase]:
    """All identity cases, in id order; 37 in total."""
    # I-27 restates I-13 and I-35 restates I-04: one rule and right side each
    const_4 = dict(rule=_trib_rule(5, 2, 1), rhs=lambda r, n: 4, n_min=3)
    even_neg = dict(rule=_trib_rule(0, 2, -1), rhs=_Terms(_rhs_i04), n_min=2)
    cases = [
        _case(
            "I-01",
            "tribonacci entries from index 0: signed Fibonacci value",
            rule=_trib_rule(0, 1, 1),
            rhs=lambda r, n: _neg1(n - 1) * seq_term(_FIB, n - 2),
            n_min=2,
        ),
        _case(
            "I-02",
            "tribonacci entries from index 2: signed Padovan value",
            rule=_trib_rule(2, 1, 1),
            rhs=lambda r, n: _neg1(n - 1) * seq_term(_PAD, n + 2),
        ),
        _case(
            "I-03",
            "tribonacci entries with a0 = -1: floor((2^n + 6) / 14)",
            rule=_trib_rule(0, 1, -1),
            rhs=lambda r, n: (2**n + 6) // 14,
        ),
        _case(
            "I-04",
            "even-indexed tribonacci entries with a0 = -1: closed form via c(n) = 3c(n-1) + 2c(n-2)",
            **even_neg,
        ),
        _case(
            "I-05",
            "tribonacci entries from index 1: signed sum of C(n-2-2i, i)",
            rule=_trib_rule(1, 1, 1),
            # f(n-2), f(m) = f(m-1) + f(m-3); the empty sum f(-1) = 0 serves n = 1
            rhs=_Terms(
                lambda r, lo, hi: _alternate(([0] + _tiling_sums(3, 1, 1, hi - 2))[lo - 1 :], lo)
            ),
        ),
        _case(
            "I-06",
            "tribonacci entries from index 1 with a0 = -1: sum of C(2n-4-2i, i)",
            rule=_trib_rule(1, 1, -1),
            # f(2n-4), f(m) = f(m-1) + f(m-3)
            rhs=_Terms(lambda r, lo, hi: _tiling_sums(3, 1, 1, 2 * hi - 4)[2 * lo - 4 :: 2]),
            n_min=2,
        ),
        _case(
            "I-07",
            "odd-indexed tribonacci entries from index 1: signed floor(4 * 3^(n-3))",
            rule=_trib_rule(1, 2, 1),
            rhs=lambda r, n: _neg1(n - 1)
            * (4 * 3 ** (n - 3) if n >= 3 else 4 // 3 ** (3 - n)),
        ),
        _case(
            "I-08",
            "tribonacci entries from index 3: identically zero from n = 4",
            rule=_trib_rule(3, 1, 1),
            rhs=lambda r, n: 0,
            n_min=4,
        ),
        _case(
            "I-09",
            "odd-indexed tribonacci entries from index 3: signed power-of-two binomial sum",
            rule=_trib_rule(3, 2, 1),
            rhs=_Terms(_rhs_i09),
        ),
        _case(
            "I-10",
            "tribonacci entries from index 4: period-3 pattern of 0 and +-1",
            rule=_trib_rule(4, 1, 1),
            rhs=_rhs_i10,
            n_min=2,
        ),
        _case(
            "I-11",
            "even-indexed tribonacci entries from index 4: 4 up to alternating sign",
            rule=_trib_rule(4, 2, 1),
            rhs=lambda r, n: 4 * _neg1(n - 1),
            n_min=3,
        ),
        _case(
            "I-12",
            "tribonacci entries from index 5: sum of C(n+2+i, n+1-2i)",
            rule=_trib_rule(5, 1, 1),
            rhs=_Terms(_rhs_i12),
        ),
        _case(
            "I-13",
            "odd-indexed tribonacci entries from index 5: constant 4",
            **const_4,
        ),
        _case(
            "I-14",
            "order-r tribonacci entries from index 0: signed Fibonacci value",
            rule=_gt_rule(lambda r: 0, 1, 1),
            rhs=lambda r, n: _neg1(n - 1) * seq_term(_FIB, n - r + 1),
            r_ok=_any_r,
            n_min=lambda r: r - 1,
        ),
        _case(
            "I-15",
            "order-r tribonacci entries from index r-2: signed square-and-r-mino count",
            rule=_gt_rule(lambda r: r - 2, 1, 1),
            rhs=lambda r, n: _neg1(n - 1)
            * seq_term(SequenceKind("square-rmino", r), n - 2),
            r_ok=_any_r,
            n_min=2,
        ),
        _case(
            "I-16",
            "order-r tribonacci entries from index r-1: signed order-r Padovan value",
            rule=_gt_rule(lambda r: r - 1, 1, 1),
            rhs=lambda r, n: _neg1(n - 1)
            * seq_term(SequenceKind("gen-padovan", r), n + r - 1),
            r_ok=_any_r,
        ),
        _case(
            "I-17",
            "order-r tribonacci entries from index r: signed indicator of n = r",
            rule=_gt_rule(lambda r: r, 1, 1),
            rhs=lambda r, n: _neg1(n - 1) * (1 if n == r else 0),
            r_ok=_any_r,
            n_min=3,
        ),
        _case(
            "I-18",
            "order-r tribonacci entries from index r+1: alternating sum of C(n-(r-2)i, i)",
            rule=_gt_rule(lambda r: r + 1, 1, 1),
            # h(n) = h(n-1) + (-1)^r h(n-r+1)
            rhs=_Terms(lambda r, lo, hi: _tiling_sums(r - 1, _neg1(r), 1, hi)[lo:]),
            r_ok=_any_r,
            n_min=2,
        ),
        _case(
            "I-19",
            "odd-indexed order-r entries from index r+1: 4 up to sign (odd r), binomial sum with boundary terms (even r)",
            rule=_gt_rule(lambda r: r + 1, 2, 1),
            rhs=_Terms(_rhs_i19),
            r_ok=_any_r,
            n_min=lambda r: r if r % 2 == 1 else 1,
        ),
        _case(
            "I-19b",
            "odd-indexed order-r entries from index r+1, n below r: 1 or 3 up to sign",
            rule=_gt_rule(lambda r: r + 1, 2, 1),
            rhs=lambda r, n: (3 if n >= (r + 1) // 2 else 1) * _neg1(n - 1),
            r_ok=_odd,
            n_min=2,
            n_cap=lambda r: r - 1,
        ),
        _case(
            "I-20",
            "odd-indexed order-r entries from index 1, odd r: signed auxiliary three-term sequence",
            rule=_gt_rule(lambda r: 1, 2, 1),
            rhs=_Terms(_rhs_i20),
            r_ok=_odd,
        ),
        _case(
            "I-21",
            "odd-indexed order-r entries from index 1, even r: signed auxiliary four-term sequence",
            rule=_gt_rule(lambda r: 1, 2, 1),
            rhs=_Terms(_rhs_i21),
            r_ok=_even,
        ),
        _case(
            "I-22",
            "odd-indexed order-r entries from index 1: signed series coefficient",
            rule=_gt_rule(lambda r: 1, 2, 1),
            rhs=_Terms(lambda r, lo, hi: _alternate(_coeffs("i22", r, lo, hi), lo)),
            r_ok=_any_r,
        ),
        _case(
            "I-23",
            "odd-indexed order-r entries from index r: signed series coefficient (odd r) or half-order convolution (even r)",
            rule=_gt_rule(lambda r: r, 2, 1),
            rhs=_Terms(_rhs_i23),
            r_ok=_any_r,
        ),
        _case(
            "I-24",
            "odd-indexed tribonacci entries from index 3: series coefficient of (x - x^2) / (1 + 2x + x^3)",
            rule=_trib_rule(3, 2, 1),
            rhs=_Terms(lambda r, lo, hi: _coeffs("i24", 3, lo, hi)),
        ),
        _case(
            "I-25",
            "odd-indexed order-r entries from index r+2, odd r >= 7: residue-class sign pattern",
            rule=_gt_rule(lambda r: r + 2, 2, 1),
            rhs=_rhs_i25,
            r_ok=lambda r: r >= 7 and r % 2 == 1,
            n_min=lambda r: (r + 3) // 2,
        ),
        _case(
            "I-26",
            "odd-indexed order-5 entries from index 7: zero at even n, +-2 at odd n",
            rule=_gt_rule(lambda r: r + 2, 2, 1),
            rhs=lambda r, n: 0 if n % 2 == 0 else 2 * _neg1((n - 1) // 2),
            r_ok=lambda r: r == 5,
            n_min=4,
        ),
        _case(
            "I-27",
            "odd-indexed tribonacci entries from index 5: constant 4, order-3 route",
            **const_4,
        ),
        _case(
            "I-28",
            "even-indexed order-r entries from index 0: series coefficient",
            rule=_gt_rule(lambda r: 0, 2, 1),
            rhs=_Terms(lambda r, lo, hi: _coeffs("i28", r, lo, hi)),
            r_ok=_any_r,
        ),
        _case(
            "I-29",
            "even-indexed order-r entries from index 0 with a0 = -1: series coefficient",
            rule=_gt_rule(lambda r: 0, 2, -1),
            rhs=_Terms(lambda r, lo, hi: _coeffs("i29", r, lo, hi)),
            r_ok=_any_r,
        ),
        _case(
            "I-30",
            "order-r entries from index r+2: series coefficient",
            rule=_gt_rule(lambda r: r + 2, 1, 1),
            rhs=_Terms(lambda r, lo, hi: _coeffs("i30", r, lo, hi)),
            r_ok=_any_r,
        ),
        _case(
            "I-31",
            "even-indexed tribonacci entries from index 0: signed difference of weighted binomial sums",
            rule=_trib_rule(0, 2, 1),
            rhs=_Terms(_rhs_i31),
            n_min=3,
        ),
        _case(
            "I-32",
            "skip-tribonacci entries with a0 = -1: sum of C(2n-r-1-(r-1)i, i)",
            rule=lambda r: EntryRule(
                SequenceKind("skip-tribonacci", r), (r - 1) // 2, 1, -1
            ),
            # v(2n-r-1), v(M) = v(M-1) + v(M-r)
            rhs=_Terms(
                lambda r, lo, hi: _tiling_sums(r, 1, 1, 2 * hi - r - 1)[2 * lo - r - 1 :: 2]
            ),
            r_ok=_odd,
            n_min=lambda r: (r + 1) // 2,
        ),
        _case(
            "I-33",
            "r-step Fibonacci entries with a0 = -1: floor((2^n + 2^r - 2) / (2^(r+1) - 2))",
            rule=lambda r: EntryRule(SequenceKind("k-step-fibonacci", r), 0, 1, -1),
            rhs=lambda r, n: (2**n + 2**r - 2) // (2 ** (r + 1) - 2),
            r_ok=lambda r: r >= 2,
        ),
        _case(
            "I-34",
            "r-step Fibonacci entries: signed (r-1)-step value and signed spaced-piece count, two clauses",
            sweep=_sweep_i34,
            r_ok=lambda r: r >= 2,
        ),
        _case(
            "I-35",
            "even-indexed tribonacci entries with a0 = -1: recurrence c(n) = 3c(n-1) + 2c(n-2)",
            **even_neg,
        ),
        _case(
            "I-36",
            "three fixed polynomial identities in tribonacci terms: 100, 0, and a Padovan value",
            sweep=_sweep_i36,
            n_cap=3,
        ),
    ]
    assert [c.id for c in cases] == sorted(c.id for c in cases)
    return cases


def _n_range(case: IdentityCase, r: Optional[int], n_max: int) -> range:
    """The in-domain n <= n_max of case at r; empty when r is outside its domain."""
    if case.parameterized != (r is not None) or (r is not None and not case.accepts_r(r)):
        return range(0)
    cap = case.n_cap(r)
    return range(case.n_min(r), (n_max if cap is None else min(n_max, cap)) + 1)


def check_identity(case: IdentityCase, r: Optional[int], n: int) -> IdentityReport:
    """Evaluate one case at one point; out-of-domain points raise."""
    if n not in _n_range(case, r, n):
        raise ValueError("(r=%r, n=%d) is outside the domain of %s" % (r, n, case.id))
    lhs, rhs = case.sweep(r, n, n)[0]
    return IdentityReport(case.id, r, n, lhs, rhs, lhs == rhs)


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
    cases = registry()
    if ids is not None:
        known = {c.id for c in cases}
        unknown = sorted(set(ids) - known)
        if unknown:
            raise ValueError("unknown identity ids: %s" % ", ".join(unknown))
        wanted = set(ids)
        cases = [c for c in cases if c.id in wanted]

    def sweeps() -> Iterator[IdentityReport]:
        for case in cases:
            for r in sorted(set(r_set)) if case.parameterized else [None]:
                ns = _n_range(case, r, n_max)
                if ns:
                    for n, (lhs, rhs) in zip(ns, case.sweep(r, ns[0], ns[-1]), strict=True):
                        yield IdentityReport(case.id, r, n, lhs, rhs, lhs == rhs)

    reports: List[IdentityReport] = []
    for report in sweeps():
        reports.append(report)
        if fail_fast and not report.passed:
            break
    passed = sum(1 for report in reports if report.passed)
    summary = VerificationSummary(len(reports), passed, len(reports) - passed)
    return reports, summary
