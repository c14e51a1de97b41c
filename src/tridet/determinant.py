"""Exact evaluators for Toeplitz-Hessenberg determinants.

The matrix is lower Hessenberg with constant diagonals: superdiagonal a0,
first column a1..an, entry (i, j) = a_(i-j+1) for j <= i.  Independent
evaluation routes cross-certify each other:

- det_gf: the C-finite route for an EntryRule.  The rule's entries obey a
  linear recurrence with characteristic polynomial Q, the family's series
  denominator multisected at the rule's stride, so their series is the
  series.CFinite P/Q with P read off the first L entries (L = deg Q), and
  the determinants are the coefficients of the series.CFinite
  Q(-a0 x) / (Q(-a0 x) - x P(-a0 x)).  No entry past a_L is made, since the
  rule generates them by Q's recurrence (the tests check that it does for
  every registry rule).  The registry's sweeps read it with coefficients.
- det_recurrence: det(M_n) alone.  For a spec built by make_entries, which
  is the only code that sets a spec's rule (so such a spec holds exactly
  its rule's entries), it is det_gf(spec.rule).at(n), the series' one-term
  read; other specs go to det_prefixes.
- det_prefixes: first-row expansion in O(n^2), the oracle for the
  C-finite route and the route for specs without a rule.
- det_trudi_partitions, det_trudi_compositions: combinatorial expansions
  over partitions and over compositions.
- det_dense: fraction-free dense elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .combinatorics import compositions, multinomial, partitions
from .sequences import SequenceKind, family_den, terms_at
from .series import CFinite, multisected_den

# oracle caps, with one evaluation at the cap (tribonacci entries, Python 3.11, 2-vCPU Xeon)
TRUDI_PARTITION_CAP = 45  # p(45) = 89134 partitions, 20 % more per n: 0.9 s
COMPOSITION_CAP = 20  # 2^19 compositions, twice as many per n: 1.2 s
DENSE_CAP = 64  # O(n^3) Bareiss steps, 15 ms: a round bound on the matrix, not a time limit


@dataclass(frozen=True)
class HessenbergSpec:
    """Superdiagonal constant a0 plus the entry vector a1..an.

    n = 0 (empty entry vector) denotes the empty matrix, determinant 1.
    rule is the EntryRule the entries were drawn from.  Only make_entries
    sets it; no constructor takes it and dataclasses.replace drops it, so a
    spec with a rule holds exactly that rule's entries.  It selects the
    C-finite route and takes no part in equality.
    """

    a0: int
    entries: Tuple[int, ...]
    rule: Optional[EntryRule] = field(default=None, init=False, compare=False, repr=False)

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


def make_entries(rule: EntryRule, n: int) -> HessenbergSpec:
    """The first n entries of a rule as a HessenbergSpec that carries the rule."""
    if n < 1:
        raise ValueError("entry vector needs n >= 1, got %d" % n)
    spec = HessenbergSpec(rule.a0, tuple(terms_at(rule.kind, rule.start, rule.stride, n)))
    object.__setattr__(spec, "rule", rule)
    return spec


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


def det_gf(rule: EntryRule) -> CFinite:
    """The series whose coefficient m is det(M_m), for the matrices of a rule.

    Built from the rule's annihilator Q and its first L = deg Q entries
    only, so a sweep or a one-term read at any n makes no later entry.  Its
    denominator is Q(-a0 x) - x P(-a0 x), constant term 1.
    """
    q = annihilator(rule)
    # P = (entries * Q) mod x^L
    head = terms_at(rule.kind, rule.start, rule.stride, len(q) - 1)
    scaled = CFinite.from_head(q, head).scale(-rule.a0)
    den = list(scaled.den)
    for j, pj in enumerate(scaled.num):
        den[j + 1] -= pj
    return CFinite(scaled.den, den)


def det_recurrence(spec: HessenbergSpec) -> int:
    """det(M_n): det_gf(spec.rule).at(n) for a make_entries spec, else det_prefixes.

    A spec with a rule holds exactly that rule's entries, so none is read.
    """
    if spec.rule is None:
        return det_prefixes(spec)[spec.n]
    return det_gf(spec.rule).at(spec.n)


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
