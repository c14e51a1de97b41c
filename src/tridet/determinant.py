"""Exact evaluators for Toeplitz-Hessenberg determinants.

The matrix is lower Hessenberg with constant diagonals: superdiagonal a0,
first column a1..an, entry (i, j) = a_(i-j+1) for j <= i.  Independent
evaluation routes cross-certify each other:

- det_recurrence / det_sequence: for a spec built by make_entries, the
  C-finite route.  The entries obey a linear recurrence with
  characteristic polynomial Q, the family's series denominator
  multisected at the rule's stride, so their series is the
  series.CFinite P/Q with P read off the first L entries, and the
  determinants are the coefficients of Q(-a0 x) / (Q(-a0 x) - x P(-a0 x))
  (L = order of the recurrence).  Both check every entry against Q in
  O(n*L) chunked steps.  det_recurrence then reads the one coefficient
  det(M_n) by Bostan-Mori halving in O(L^2 log n) integer products;
  det_sequence expands every coefficient in O(n*L) steps.  Each is
  cross-checked against the other and against det_prefixes.
- det_gf: the same num/den for an EntryRule, from Q and the rule's first
  L entries alone; no later entry is made or checked, since the rule
  generates them by Q's recurrence (the tests check that it does for
  every registry rule).  The registry's sweeps expand it.
- det_prefixes: first-row expansion in O(n^2), the oracle for the
  C-finite route and the route for specs without a rule.
- det_trudi_partitions, det_trudi_compositions: combinatorial expansions
  over partitions and over compositions.
- det_dense: fraction-free dense elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, List, Optional, Sequence, Tuple

from .combinatorics import compositions, multinomial, partitions
from .sequences import SequenceKind, extend_terms, family_den, seeds_and_lags
from .series import CFinite, multisected_den, rational_coefficients

# oracle caps, with one evaluation at the cap (tribonacci entries, Python 3.11, 2-vCPU Xeon)
TRUDI_PARTITION_CAP = 45  # p(45) = 89134 partitions, 20 % more per n: 0.9 s
COMPOSITION_CAP = 20  # 2^19 compositions, twice as many per n: 1.2 s
DENSE_CAP = 64  # O(n^3) Bareiss steps, 15 ms: a round bound on the matrix, not a time limit


@dataclass(frozen=True)
class HessenbergSpec:
    """Superdiagonal constant a0 plus the entry vector a1..an.

    n = 0 (empty entry vector) denotes the empty matrix, determinant 1.
    rule is the EntryRule make_entries drew the entries from, if any; it
    selects the C-finite route and takes no part in equality.
    """

    a0: int
    entries: Tuple[int, ...]
    rule: Optional[EntryRule] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.a0 == 0:
            raise ValueError("superdiagonal constant a0 must be nonzero")

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class EntryRule:
    """Entry vector template: a_i = term(start + (i-1)*stride) of a family."""

    kind: SequenceKind
    start: int
    stride: int
    a0: int

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            # convenience for fixed families; parameterized names still need r
            object.__setattr__(self, "kind", SequenceKind(self.kind))
        elif not isinstance(self.kind, SequenceKind):
            raise TypeError("kind must be a SequenceKind or a family name string")
        if self.start < 0:
            raise ValueError("start index must be nonnegative")
        if self.stride < 1:
            raise ValueError("stride must be positive")
        if self.a0 == 0:
            raise ValueError("superdiagonal constant a0 must be nonzero")


# make_entries steps the recurrence this many terms at a time between trims,
# and the recurrence check of the C-finite route takes this many entries at a time
_CHUNK = 256


def make_entries(rule: EntryRule, n: int) -> HessenbergSpec:
    """Materialize the first n entries of a rule as a HessenbergSpec.

    Steps the family recurrence in a local window, trimmed to the last L
    terms after each chunk, and keeps every stride-th term; the shared
    sequence memo is not touched.
    """
    if n < 1:
        raise ValueError("entry vector needs n >= 1, got %d" % n)
    seeds, lags = seeds_and_lags(rule.kind)
    keep = max(lags)
    start, stride = rule.start, rule.stride
    top = start + (n - 1) * stride
    terms = list(seeds)
    base = 0  # family index of terms[0]
    entries: List[int] = []
    while True:
        extend_terms(terms, lags, min(top + 1 - base - len(terms), _CHUNK))
        index = start + len(entries) * stride
        entries += terms[index - base : top + 1 - base : stride]
        if len(entries) == n:
            return HessenbergSpec(rule.a0, tuple(entries), rule)
        # every later entry lies past the last term, so older terms can go
        cut = len(terms) - keep
        del terms[:cut]
        base += cut


def det_prefixes(spec: HessenbergSpec) -> List[int]:
    """Determinants of all leading sections: [det(M_0), ..., det(M_n)].

    det(M_m) = sum_{k=1..m} (-a0)^(k-1) * a_k * det(M_(m-k)), det(M_0) = 1.
    One O(n^2) pass serves every prefix size at once; it uses nothing but
    the entries, which makes it the oracle for the C-finite route.
    """
    a0, a = spec.a0, spec.entries
    dets = [1]
    for m in range(1, len(a) + 1):
        acc = 0
        sign = 1
        for k in range(1, m + 1):
            acc += sign * a[k - 1] * dets[m - k]
            sign *= -a0
        dets.append(acc)
    return dets


def annihilator(rule: EntryRule) -> List[int]:
    """Coefficients q_0 = 1, q_1..q_L of a polynomial Q that annihilates the entries.

    sum_j q_j * a_(k+1-j) = 0 for every k >= L, where L is the family's
    largest lag (every family's seed block is exactly that long, so this
    holds from the first entry).  Q is the denominator of the family's
    series multisected at the rule's stride: 1 - sum x^lag for stride 1.
    """
    return multisected_den(family_den(rule.kind), rule.stride)


def _check_entries(spec: HessenbergSpec, q: List[int]) -> None:
    """Raise ValueError at the first entry a_(k+1), k >= L, with sum_j q_j a_(k+1-j) != 0.

    The residues are formed _CHUNK entries at a time: each nonzero q_j adds
    its multiple of one shifted slice to the block through a lazy map, so
    the Python-level work is per block and per q_j rather than per entry.
    """
    order = len(q) - 1
    a, n = spec.entries, spec.n
    lags = [(j, qj) for j, qj in enumerate(q) if j and qj]

    def residues(lo: int, hi: int) -> Iterable[int]:
        out: Iterable[int] = a[lo:hi]
        for j, qj in lags:
            shifted = a[lo - j : hi - j]
            if qj == 1:
                out = map(add, out, shifted)
            elif qj == -1:
                out = map(sub, out, shifted)
            else:
                out = map(add, out, map(mul, repeat(qj), shifted))
        return out

    for lo in range(order, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        if any(residues(lo, hi)):
            k = lo + next(i for i, v in enumerate(residues(lo, hi)) if v)
            raise ValueError(
                "entries do not satisfy the recurrence of %r at entry %d" % (spec.rule, k + 1)
            )


def _gf(a0: int, q: List[int], head: Sequence[int]) -> Tuple[List[int], List[int]]:
    """num, den with det(M_m) = [x^m] num/den, for entries whose series is P/Q.

    q is Q and head the first L = deg Q entries, which fix P.  The
    determinants are the coefficients of Q(-a0 x) / (Q(-a0 x) - x P(-a0 x)),
    whose denominator has constant term 1.
    """
    # P = (entries * Q) mod x^L
    scaled = CFinite.from_head(q, head).scale(-a0)
    num = list(scaled.den)
    den = num[:]
    for j, pj in enumerate(scaled.num):
        den[j + 1] -= pj
    return num, den


def det_gf(rule: EntryRule) -> Tuple[List[int], List[int]]:
    """num, den with det(M_m) = [x^m] num/den for every m, for the matrices of a rule.

    Built from the rule's annihilator and its first L entries only: no entry
    past a_L is made, so a sweep to any n costs no entries.
    """
    q = annihilator(rule)
    return _gf(rule.a0, q, make_entries(rule, len(q) - 1).entries)


def _rational(spec: HessenbergSpec) -> Tuple[List[int], List[int]]:
    """det_gf for a rule-built spec, read off its own entries after checking them.

    The first L entries fix num/den; every later entry is checked against Q.
    """
    q = annihilator(spec.rule)
    _check_entries(spec, q)
    return _gf(spec.a0, q, spec.entries[: len(q) - 1])


def _product_coeffs(f: List[int], g: List[int], parity: int) -> List[int]:
    """Coefficients parity, parity + 2, ... of the product f*g."""
    rg = g[::-1]
    last_g = len(g) - 1
    out = []
    for k in range(parity, len(f) + last_g, 2):
        lo, hi = max(0, k - last_g), min(k, len(f) - 1)
        out.append(sum(map(mul, f[lo : hi + 1], rg[last_g - k + lo : last_g - k + hi + 1])))
    return out


def det_sequence(spec: HessenbergSpec) -> List[int]:
    """[det(M_0), ..., det(M_n)]: C-finite for a make_entries spec, else det_prefixes.

    The C-finite route checks the entries against the rule's recurrence and
    expands num/den term by term in O(n*L) integer steps.  A rule-built spec
    whose entries break the recurrence raises ValueError.
    """
    if spec.rule is None:
        return det_prefixes(spec)
    num, den = _rational(spec)
    return rational_coefficients(num, den, spec.n)


def det_recurrence(spec: HessenbergSpec) -> int:
    """det(M_n): Bostan-Mori halving for a make_entries spec, else det_prefixes.

    The C-finite route checks the entries against the rule's recurrence in
    O(n*L), then reads [x^n] num/den in O(L^2 log n) integer products: each
    step multiplies num and den by den(-x), keeps the even half of the
    denominator and the half of the numerator with the parity of n, and
    halves n.  The denominator keeps constant term 1, so nothing is divided.
    A rule-built spec whose entries break the recurrence raises ValueError.
    """
    if spec.rule is None:
        return det_prefixes(spec)[spec.n]
    num, den = _rational(spec)
    n = spec.n
    while n:
        twin = [c if i % 2 == 0 else -c for i, c in enumerate(den)]
        num = _product_coeffs(num, twin, n % 2)
        den = _product_coeffs(den, twin, 0)
        n //= 2
    return num[0]


def det_trudi_partitions(spec: HessenbergSpec) -> int:
    """Determinant as a signed multinomial sum over partition multiplicity vectors."""
    n = spec.n
    if n == 0:
        return 1
    if n > TRUDI_PARTITION_CAP:
        raise ValueError("partition expansion capped at n = %d, got %d" % (TRUDI_PARTITION_CAP, n))
    a0, a = spec.a0, spec.entries
    total = 0
    for s in partitions(n):
        sigma = sum(s)
        term = (-a0) ** (n - sigma) * multinomial(s)
        for i, mult in enumerate(s):
            if mult:
                term *= a[i] ** mult
        total += term
    return total


def det_trudi_compositions(spec: HessenbergSpec) -> int:
    """Determinant as a signed weight sum over compositions; needs a0 in {1, -1}.

    For a0 = 1 each composition with m parts carries sign (-1)^(n-m); for
    a0 = -1 every weight is positive.
    """
    n = spec.n
    if n == 0:
        return 1
    if n > COMPOSITION_CAP:
        raise ValueError("composition expansion capped at n = %d, got %d" % (COMPOSITION_CAP, n))
    if spec.a0 not in (1, -1):
        raise ValueError("composition expansion requires a0 in {1, -1}, got %d" % spec.a0)
    a = spec.entries
    total = 0
    for parts in compositions(n):
        weight = 1
        for x in parts:
            weight *= a[x - 1]
        if spec.a0 == 1 and (n - len(parts)) % 2 == 1:
            weight = -weight
        total += weight
    return total


def _dense_matrix(spec: HessenbergSpec) -> List[List[int]]:
    n = spec.n
    a0, a = spec.a0, spec.entries
    rows = []
    for i in range(n):
        row = [0] * n
        for j in range(i + 1):
            row[j] = a[i - j]
        if i + 1 < n:
            row[i + 1] = a0
        rows.append(row)
    return rows


def det_dense(spec: HessenbergSpec) -> int:
    """Determinant of the materialized matrix by fraction-free elimination.

    Bareiss updates keep every intermediate an integer; row swaps only flip
    the tracked sign.
    """
    n = spec.n
    if n == 0:
        return 1
    if n > DENSE_CAP:
        raise ValueError("dense evaluation capped at n = %d, got %d" % (DENSE_CAP, n))
    m = _dense_matrix(spec)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by the Bareiss identity
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
