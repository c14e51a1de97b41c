"""C-finite series: num(x)/den(x) with integer coefficients and den(0) = 1.

A sequence that obeys a linear recurrence with constant coefficients from
some index on is the coefficient list of such a series (Zeilberger's
"C-finite ansatz", Ramanujan J. 31, 2013).  CFinite is that one value:
it is built from a denominator and the sequence's first terms
(from_head), shifted, scaled, added, multiplied and multisected in closed
form (multisected_den: a Graeffe step per factor 2 of the step, Newton
power sums for its odd part), and read out by division-free long division
(coefficients) or one term alone by Bostan-Mori halving (at).  A
determinant series (det_gf) and a declared right side are both this value.

The catalog holds the closed rational forms tied to the determinant
families checked in the identities module, keyed by the identity id they
certify.  It is one table, _CATALOG, keyed by (family, parity of r): each
num and den is a list of terms k x^e with e = a + b h + c r, h = ceil(r/2),
some carrying the factor (-1)^e.  gf_catalog reads the table at one r into
a plain CFinite and, like every sequence family, refuses r above MAX_R.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Sequence, Tuple

# the largest order r any sequence family or catalog entry accepts.  Cost
# grows with r: in process, verify --r-set 1000 takes 1.2 s and (bound lifted)
# --r-set 4000 16 s, det --kind k-step-fibonacci --r 1000 -n 10 0.2 s (Python
# 3.11, shared 2-vCPU host); r near 10**20 cannot even allocate its seed block
MAX_R = 1000


def _trim(coeffs: Sequence[int]) -> Tuple[int, ...]:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _plus(f: Sequence[int], g: Sequence[int]) -> List[int]:
    if len(f) < len(g):
        f, g = g, f
    return [a + b for a, b in zip(f, g)] + list(f[len(g) :])


def _convolve(
    f: Sequence[int], g: Sequence[int], first: int = 0, step: int = 1, stop: Optional[int] = None
) -> List[int]:
    """Coefficients first, first + step, ... of f*g, below stop; none if f or g is empty."""
    if not f or not g:
        return []
    rg = g[::-1]
    last_g = len(g) - 1
    end = len(f) + last_g if stop is None else min(stop, len(f) + last_g)
    out = []
    for k in range(first, end, step):
        lo, hi = max(0, k - last_g), min(k, len(f) - 1)
        out.append(sum(map(mul, f[lo : hi + 1], rg[last_g - k + lo : last_g - k + hi + 1])))
    return out


@dataclass(frozen=True)
class CFinite:
    """The power series num(x) / den(x); den(0) = 1, trailing zeros trimmed.

    Its coefficient sequence c_0, c_1, ... obeys sum_k den_k c_(n-k) = 0
    for every n >= len(num).  The zero series has num = ().
    """

    num: Tuple[int, ...]
    den: Tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "num", _trim(self.num))
        object.__setattr__(self, "den", _trim(self.den))
        if not self.den or self.den[0] != 1:
            raise ValueError(
                "denominator constant term must be 1, got %d" % (self.den[0] if self.den else 0)
            )

    @classmethod
    def from_head(cls, den: Sequence[int], head: Sequence[int]) -> "CFinite":
        """The series over den that starts with head: num = head * den mod x^len(head).

        It equals a sequence that begins with head and obeys den's
        recurrence at every n >= len(head).
        """
        return cls(_convolve(head, den, stop=len(head)), den)

    def shift(self, k: int) -> "CFinite":
        """x^k times the series; for k < 0, the series with its first -k coefficients dropped."""
        if k >= 0:
            return CFinite((0,) * k + self.num, self.den)
        # (series - head) / x^(-k) keeps den and has at most m numerator terms;
        # m <= 0 only past a polynomial's end
        m = max(len(self.num) + k, len(self.den) - 1)
        return CFinite.from_head(self.den, self.coefficients(-k, -k + m - 1))

    def scale(self, c: int) -> "CFinite":
        """The series at c*x: coefficient n times c^n."""
        return CFinite(
            [a * c**i for i, a in enumerate(self.num)], [a * c**i for i, a in enumerate(self.den)]
        )

    def __neg__(self) -> "CFinite":
        return CFinite([-a for a in self.num], self.den)

    def __add__(self, other: "CFinite") -> "CFinite":
        if self.den == other.den:
            return CFinite(_plus(self.num, other.num), self.den)
        num = _plus(_convolve(self.num, other.den), _convolve(other.num, self.den))
        return CFinite(num, _convolve(self.den, other.den))

    def __mul__(self, other: "CFinite") -> "CFinite":
        """The Cauchy product."""
        return CFinite(_convolve(self.num, other.num), _convolve(self.den, other.den))

    def multisect(self, s: int) -> "CFinite":
        """The series of coefficients 0, s, 2s, ... of this one, for s >= 1.

        Its denominator is multisected_den(den, s).  Its numerator has degree
        at most (deg num + (s - 1) deg den) / s, so that many terms and one
        more fix it by from_head.
        """
        if s == 1:
            return self
        den = multisected_den(self.den, s)
        terms = (len(self.num) - 1 + (s - 1) * (len(self.den) - 1)) // s + 1
        return CFinite.from_head(den, self.coefficients(0, s * (terms - 1))[::s])

    def coefficients(self, lo: int, hi: int) -> List[int]:
        """c_lo .. c_hi, 0 <= lo.

        c_m = num_m - sum_{k>=1} den_k * c_(m-k) is exact division-free long
        division.  The output is allocated first, so an oversized hi fails
        before any term is computed.
        """
        if lo < 0:
            raise ValueError("coefficient index must be nonnegative, got %d" % lo)
        num = self.num
        coeffs = [0] * (hi + 1)
        order = len(self.den) - 1
        tail = self.den[:0:-1]  # den_L, ..., den_1, aligned with the window oldest first
        window = deque([0] * order, maxlen=order)
        for m in range(hi + 1):
            c = (num[m] if m < len(num) else 0) - sum(map(mul, tail, window))
            window.append(c)
            coeffs[m] = c
        return coeffs[lo:]

    def at(self, n: int) -> int:
        """c_n, 0 <= n, by Bostan-Mori halving in O(L^2 log n) integer products.

        Each step multiplies num and den by den(-x), keeps the even half of
        the denominator and the half of the numerator with the parity of n,
        and halves n.  The denominator keeps constant term 1, so nothing is
        divided; over den = 1 the numerator can run out, and c_n is then 0.
        """
        if n < 0:
            raise ValueError("coefficient index must be nonnegative, got %d" % n)
        num, den = self.num, self.den
        while n:
            twin = _twin(den)
            num = _convolve(num, twin, n % 2, 2)
            den = _convolve(den, twin, 0, 2)
            n //= 2
        return num[0] if num else 0


def _twin(p: Sequence[int]) -> List[int]:
    """p(-x)."""
    return [c if i % 2 == 0 else -c for i, c in enumerate(p)]


def multisected_den(den: Sequence[int], s: int) -> List[int]:
    """R with R(x^s) = the product of den(w x) over the s-th roots of unity w, den(0) = 1.

    The coefficients 0, s, 2s, ... of any series over den obey R's
    recurrence.  Multisecting at 2t is multisecting at 2, then at t, and at
    2 R(x^2) = den(x) den(-x): each factor 2 of s is one O(L^2) Graeffe
    step, the one CFinite.at takes at each halving.  For the odd part of s
    that is left, R is found from Newton power sums: the power sums of R
    are those of den at multiples of s.
    """
    if s < 1:  # s = 0 would never leave the halving loop
        raise ValueError("multisection step must be positive, got %d" % s)
    q = list(den)
    while s % 2 == 0:
        q = _convolve(q, _twin(q), 0, 2)
        s //= 2
    if s == 1:
        return q
    order = len(q) - 1
    # the power sums of den are the coefficients of -x den'(x) / den(x)
    sums = CFinite([-k * c for k, c in enumerate(q)], q).coefficients(0, s * order)
    # and k R_k = -sum_{i=1..k} p_(s i) R_(k-i) recovers R
    out = [1]
    for k in range(1, order + 1):
        out.append(-sum(sums[s * i] * out[k - i] for i in range(1, k + 1)) // k)
    return out


def tiling_den(pieces: Sequence[Tuple[int, int]]) -> List[int]:
    """1 - sum w x^length over (length, w) pieces, length >= 1; pieces of one length add."""
    den = [1] + [0] * max((length for length, _ in pieces), default=0)
    for length, w in pieces:
        den[length] -= w
    return den


def expand_rational(gf: CFinite, terms: int) -> List[int]:
    """Coefficients of x^1 .. x^terms of the series gf."""
    if terms < 1:
        raise ValueError("terms must be positive, got %d" % terms)
    return gf.coefficients(1, terms)


# Each catalog term (a, b, c, k, s) is k x^e with e = a + b h + c r and
# h = ceil(r / 2), times (-1)^e when s is 1, so a signed term is k (-x)^e.
# Every exponent lies in 0..r; terms on one exponent add up (small r).
_ONE = (0, 0, 0, 1, 0)
# (3x - 2x^2 - (-x)^(r-2) - (-x)^(r-1) - 2(-x)^r)
#   / (1 - 2x + x^2 + (-x)^(r-2) + (-x)^(r-1) + (-x)^r), either parity
_I30 = (
    ((1, 0, 0, 3, 0), (2, 0, 0, -2, 0), (-2, 0, 1, -1, 1), (-1, 0, 1, -1, 1), (0, 0, 1, -2, 1)),
    (_ONE, (1, 0, 0, -2, 0), (2, 0, 0, 1, 0),
     (-2, 0, 1, 1, 1), (-1, 0, 1, 1, 1), (0, 0, 1, 1, 1)),
)
_CATALOG = {
    # (x^h + x^r) / (1 - 3x + x^2 - x^h)
    ("i22", 1): (
        ((0, 1, 0, 1, 0), (0, 0, 1, 1, 0)),
        (_ONE, (1, 0, 0, -3, 0), (2, 0, 0, 1, 0), (0, 1, 0, -1, 0)),
    ),
    # (x^h - x^(h+1) - x^r) / (1 - 3x + x^2 - x^h + x^(h+1))
    ("i22", 0): (
        ((0, 1, 0, 1, 0), (1, 1, 0, -1, 0), (0, 0, 1, -1, 0)),
        (_ONE, (1, 0, 0, -3, 0), (2, 0, 0, 1, 0), (0, 1, 0, -1, 0), (1, 1, 0, 1, 0)),
    ),
    # (x + x^h) / (1 - 2x + x^2 - x^h - x^r)
    ("i23", 1): (
        ((1, 0, 0, 1, 0), (0, 1, 0, 1, 0)),
        (_ONE, (1, 0, 0, -2, 0), (2, 0, 0, 1, 0), (0, 1, 0, -1, 0), (0, 0, 1, -1, 0)),
    ),
    # (x - x^2) / (1 + 2x + x^3), r = 3 only
    ("i24", 1): (((1, 0, 0, 1, 0), (2, 0, 0, -1, 0)), (_ONE, (1, 0, 0, 2, 0), (3, 0, 0, 1, 0))),
    # (-(-x)^h + (-x)^(h+1)) / (1 + 3x + x^2 - (-x)^h - (-x)^(h+1) + x^r)
    ("i28", 1): (
        ((0, 1, 0, -1, 1), (1, 1, 0, 1, 1)),
        (_ONE, (1, 0, 0, 3, 0), (2, 0, 0, 1, 0),
         (0, 1, 0, -1, 1), (1, 1, 0, -1, 1), (0, 0, 1, 1, 0)),
    ),
    # -(-x)^(h+1) / (1 + 3x + x^2 - 2(-x)^h + 3(-x)^(h+1) + x^r)
    ("i28", 0): (
        ((1, 1, 0, -1, 1),),
        (_ONE, (1, 0, 0, 3, 0), (2, 0, 0, 1, 0),
         (0, 1, 0, -2, 1), (1, 1, 0, 3, 1), (0, 0, 1, 1, 0)),
    ),
    # (x^h - x^(h+1)) / (1 - 3x + x^2 - 3x^h + x^(h+1) - x^r)
    ("i29", 1): (
        ((0, 1, 0, 1, 0), (1, 1, 0, -1, 0)),
        (_ONE, (1, 0, 0, -3, 0), (2, 0, 0, 1, 0),
         (0, 1, 0, -3, 0), (1, 1, 0, 1, 0), (0, 0, 1, -1, 0)),
    ),
    # x^(h+1) / (1 - 3x + x^2 - 2x^h + x^(h+1) + x^r)
    ("i29", 0): (
        ((1, 1, 0, 1, 0),),
        (_ONE, (1, 0, 0, -3, 0), (2, 0, 0, 1, 0),
         (0, 1, 0, -2, 0), (1, 1, 0, 1, 0), (0, 0, 1, 1, 0)),
    ),
    ("i30", 1): _I30,
    ("i30", 0): _I30,
}
GF_FAMILIES = tuple(dict.fromkeys(family for family, _ in _CATALOG))


def gf_catalog(family: str, r: int) -> CFinite:
    """Catalog entry for a family at order r, 3 <= r <= MAX_R.

    Families i23 and i24 exist only for odd r (i24 only at r = 3); the
    others accept any such r with parity-specific shapes.
    """
    if family not in GF_FAMILIES:
        raise ValueError("unknown gf family %r" % (family,))
    if family == "i24":
        if r != 3:
            raise ValueError("family i24 is defined only for r = 3, got %d" % r)
    elif r < 3:
        raise ValueError("gf families require r >= 3, got %d" % r)
    elif r > MAX_R:
        raise ValueError("gf families require r <= MAX_R = %d, got %d" % (MAX_R, r))
    elif (family, r % 2) not in _CATALOG:
        only = "even" if r % 2 else "odd"
        raise ValueError("family %s is defined only for %s r, got %d" % (family, only, r))
    h = (r + 1) // 2
    num, den = [0] * (r + 1), [0] * (r + 1)
    for poly, terms in zip((num, den), _CATALOG[family, r % 2]):
        for a, b, c, k, s in terms:
            e = a + b * h + c * r
            poly[e] += -k if s and e % 2 else k
    return CFinite(num, den)
