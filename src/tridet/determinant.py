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
  every registry rule).  The registry's sweeps read it with coefficients,
  tridet det's default route with at(n), making no entry at all.
- det_recurrence: det(M_n) alone.  For a spec built by make_entries, which
  is the only code that sets a spec's rule (so such a spec holds exactly
  its rule's entries), it is det_gf(spec.rule).at(n), the series' one-term
  read; other specs go to det_prefixes.
- det_prefixes: first-row expansion in O(n^2), the oracle for the
  C-finite route and the route for specs without a rule.
- det_trudi_partitions: combinatorial expansion over partitions, a tree
  walk with O(1) integer products per node over p(n) leaves.
- det_trudi_compositions: combinatorial expansion over compositions, a
  level table of 2^(n-1) weights, one product per composition.
- det_dense: fraction-free dense elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .sequences import SequenceKind, family_den, terms_at
from .series import CFinite, multisected_den

# oracle caps, with one evaluation at the cap (tribonacci entries, Python 3.11, 2-vCPU Xeon)
TRUDI_PARTITION_CAP = 45  # p(45) = 89134 partitions, 20 % more per n: 0.08 s
COMPOSITION_CAP = 20  # 2^19 compositions, twice as many per n: 0.05-0.07 s, 5.1 MB traced
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
        if not isinstance(self.kind, SequenceKind):
            raise TypeError("kind must be a SequenceKind")
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


def det_gf(rule: EntryRule) -> CFinite:
    """The series whose coefficient m is det(M_m), for the matrices of a rule.

    Q, the family's series denominator multisected at the rule's stride,
    gives sum_j q_j * a_(k+1-j) = 0 for every k >= L = deg Q, from the
    first entry on, since every seed block is L long.  Built from Q and the
    first L entries only, so no later entry is made.  Its denominator is
    Q(-a0 x) - x P(-a0 x), constant term 1.
    """
    q = multisected_den(family_den(rule.kind), rule.stride)
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


def _signed_powers(a0: int, n: int) -> List[int]:
    """[(-a0)^0, ..., (-a0)^n]."""
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * -a0)
    return powers


def det_trudi_partitions(spec: HessenbergSpec) -> int:
    """Determinant as a signed multinomial sum over partitions of n.

    A partition with s_i parts of size i and m parts in all contributes
    (-a0)^(n-m) * multinomial(s) * prod a_i^(s_i).  A walk adds parts in
    increasing size and carries the multinomial times the entry product, which
    grows by C(m + v, v) * a_i^v when v parts of size i join m earlier ones.
    It only enters a size that leaves the remaining weight 0 or larger than
    that size, so each of its nodes leads to one of the p(n) partitions.
    """
    n = spec.n
    if n == 0:
        return 1
    if n > TRUDI_PARTITION_CAP:
        raise ValueError("partition expansion capped at n = %d, got %d" % (TRUDI_PARTITION_CAP, n))
    a = spec.entries
    sign = _signed_powers(spec.a0, n)
    total = 0

    def walk(smallest: int, w: int, parts: int, coef: int) -> None:
        # coef = multinomial * entry product of the parts so far, all below smallest
        nonlocal total
        for size in range(smallest, w // 2 + 1):
            term, m, rem = coef, parts, w
            while rem >= size:
                m += 1
                rem -= size
                # term = coef * C(m, v) * a_size^v with v = m - parts; the division is exact
                term = term * m // (m - parts) * a[size - 1]
                if rem == 0:
                    total += sign[n - m] * term
                elif rem > size:
                    walk(size + 1, rem, m, term)
        # the whole remaining weight as one last part
        total += sign[n - parts - 1] * coef * (parts + 1) * a[w - 1]

    walk(1, n, 0, 1)
    return total


def det_trudi_compositions(spec: HessenbergSpec) -> int:
    """Determinant as a signed weight sum over compositions; needs a0 in {1, -1}.

    A composition of n weighs the product of (-a0)^(x-1) * a_x over its parts
    x: for a0 = 1 that is (-1)^(n-m) times the entry product, m being the
    number of parts; for a0 = -1 every sign is positive.  A level table holds,
    at level w < n, the weight of every composition of w, each a first part x
    times a weight from level w - x: 2^(n-1) weights, one product per
    composition, and those of n are summed as they are made.
    """
    n = spec.n
    if n == 0:
        return 1
    if n > COMPOSITION_CAP:
        raise ValueError("composition expansion capped at n = %d, got %d" % (COMPOSITION_CAP, n))
    if spec.a0 not in (1, -1):
        raise ValueError("composition expansion requires a0 in {1, -1}, got %d" % spec.a0)
    # part x weighs (-a0)^(x-1) * a_x
    part = [0] + [s * e for s, e in zip(_signed_powers(spec.a0, n), spec.entries)]
    levels = [[1]]
    for w in range(1, n):
        levels.append([weight * part[x] for x in range(1, w + 1) for weight in levels[w - x]])
    return sum(weight * part[x] for x in range(1, n + 1) for weight in levels[n - x])


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
