"""Exact evaluators for Toeplitz-Hessenberg determinants.

The matrix is lower Hessenberg with constant diagonals: superdiagonal a0,
first column a1..an, entry (i, j) = a_(i-j+1) for j <= i.  Independent
evaluation routes cross-certify each other:

- det_recurrence / det_sequence: for a spec built by make_entries, the
  C-finite route.  The entries obey a linear recurrence with
  characteristic polynomial Q, so their series is P/Q and the
  determinants are the coefficients of Q(-a0 x) / (Q(-a0 x) - x P(-a0 x)),
  read off in O(n*L) integer steps (L = order of the recurrence).
- det_prefixes: first-row expansion in O(n^2), the oracle for the
  C-finite route and the route for specs without a rule.
- det_trudi_partitions, det_trudi_compositions: combinatorial expansions
  over partitions and over compositions.
- det_dense: fraction-free dense elimination.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import mul
from typing import Iterator, List, Optional, Tuple

from .combinatorics import compositions, multinomial, partitions
from .sequences import SequenceKind, extend_terms, seeds_and_lags

TRUDI_PARTITION_CAP = 45
COMPOSITION_CAP = 20
DENSE_CAP = 64


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


# make_entries steps the recurrence this many terms at a time between trims
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
    holds from the first entry).  For stride 1, Q = 1 - sum x^lag.  For
    stride s, Q(x^s) is the product of Q_1(w x) over the s-th roots of
    unity w, found from Newton power sums: the power sums of Q are those
    of Q_1 at multiples of s.
    """
    _, lags = seeds_and_lags(rule.kind)
    order = max(lags)
    base = [1] + [0] * order
    for lag in lags:
        base[lag] -= 1
    s = rule.stride
    if s == 1:
        return base
    # p_k = -k q_k - sum_{i<k} p_i q_(k-i) gives the power sums of base
    sums = [0]
    for k in range(1, s * order + 1):
        acc = -k * base[k] if k <= order else 0
        for i in range(max(1, k - order), k):
            acc -= sums[i] * base[k - i]
        sums.append(acc)
    # and k q_k = -sum_{i=1..k} p_i q_(k-i) recovers Q from p_s, p_2s, ...
    q = [1]
    for k in range(1, order + 1):
        acc = -sum(sums[s * i] * q[k - i] for i in range(1, k + 1))
        q.append(acc // k)
    return q


def _cfinite(spec: HessenbergSpec) -> Iterator[int]:
    """det(M_0), ..., det(M_n) of a rule-built spec, holding an L-term window."""
    q = annihilator(spec.rule)
    order = len(q) - 1
    a, n = spec.entries, spec.n
    # P = (entries * Q) mod x^L; the coefficients from x^L on must vanish
    p = [sum(map(mul, q[k::-1], a)) for k in range(min(n, order))]
    back = q[::-1]
    for k in range(order, n):
        if sum(map(mul, back, a[k - order : k + 1])):
            raise ValueError(
                "entries do not satisfy the recurrence of %r at entry %d" % (spec.rule, k + 1)
            )
    # numerator Q(-a0 x), denominator Q(-a0 x) - x P(-a0 x); the latter has constant term 1
    scale = [(-spec.a0) ** j for j in range(order + 1)]
    num = [qj * sj for qj, sj in zip(q, scale)]
    den = num[:]
    for j, pj in enumerate(p):
        den[j + 1] -= pj * scale[j]
    tail = den[:0:-1]  # den_L, ..., den_1, aligned with the window oldest first
    window = deque([0] * order, maxlen=order)
    for m in range(n + 1):
        d = (num[m] if m <= order else 0) - sum(map(mul, tail, window))
        window.append(d)
        yield d


def det_sequence(spec: HessenbergSpec) -> List[int]:
    """[det(M_0), ..., det(M_n)]: C-finite for a make_entries spec, else det_prefixes.

    A rule-built spec whose entries break the rule's recurrence raises
    ValueError.
    """
    if spec.rule is None:
        return det_prefixes(spec)
    return list(_cfinite(spec))


def det_recurrence(spec: HessenbergSpec) -> int:
    """det(M_n): the C-finite O(n*L) route for a make_entries spec, else det_prefixes.

    The C-finite route keeps only an L-term window of determinants.  A
    rule-built spec whose entries break the rule's recurrence raises
    ValueError.
    """
    if spec.rule is None:
        return det_prefixes(spec)[spec.n]
    return deque(_cfinite(spec), maxlen=1).pop()


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
