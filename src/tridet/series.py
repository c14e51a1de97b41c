"""Rational ordinary generating functions with exact coefficient extraction.

The catalog holds the closed rational forms tied to the determinant
families checked in the identities module, keyed by the identity id they
certify.  Monomials whose sign depends on the parity of an exponent are
expanded to signed integer coefficients at construction, so every entry is
a plain pair of integer polynomials.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Sequence, Tuple

GF_FAMILIES = ("i22", "i23", "i24", "i28", "i29", "i30")


@dataclass(frozen=True)
class IntPolynomial:
    """Dense coefficient vector c0..cd; trailing zeros are normalized away."""

    coeffs: Tuple[int, ...]

    @staticmethod
    def from_coeffs(values) -> "IntPolynomial":
        coeffs = list(values)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        return IntPolynomial(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0


@dataclass(frozen=True)
class RationalGF:
    """num(x) / den(x) as a formal power series; den must have den(0) = 1."""

    num: IntPolynomial
    den: IntPolynomial


def rational_coefficients(num: Sequence[int], den: Sequence[int], n: int) -> List[int]:
    """c_0 .. c_n of the series num/den, for den[0] == 1; num may be the longer.

    c_m = num_m - sum_{k>=1} den_k * c_(m-k) is exact division-free long
    division.  The output is allocated first, so an oversized n fails before
    any term is computed.
    """
    coeffs = [0] * (n + 1)
    order = len(den) - 1
    tail = den[:0:-1]  # den_L, ..., den_1, aligned with the window oldest first
    window = deque([0] * order, maxlen=order)
    for m in range(n + 1):
        c = (num[m] if m < len(num) else 0) - sum(map(mul, tail, window))
        window.append(c)
        coeffs[m] = c
    return coeffs


def expand_rational(gf: RationalGF, terms: int) -> List[int]:
    """Coefficients of x^1 .. x^terms of the series num/den (den(0) = 1)."""
    if terms < 1:
        raise ValueError("terms must be positive, got %d" % terms)
    den = gf.den.coeffs
    if den[0] != 1:
        raise ValueError("denominator constant term must be 1, got %d" % den[0])
    return rational_coefficients(gf.num.coeffs, den, terms)[1:]


def _poly(monomials: Dict[int, int]) -> IntPolynomial:
    top = max(monomials) if monomials else 0
    coeffs = [0] * (top + 1)
    for degree, coeff in monomials.items():
        coeffs[degree] += coeff
    return IntPolynomial.from_coeffs(coeffs)


def _add(monomials: Dict[int, int], degree: int, coeff: int) -> None:
    monomials[degree] = monomials.get(degree, 0) + coeff


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def gf_catalog(family: str, r: int) -> RationalGF:
    """Catalog entry for a family at order r.

    Families i23 and i24 exist only for odd r (i24 only at r = 3); the
    others accept any r >= 3 with parity-specific shapes.
    """
    if family not in GF_FAMILIES:
        raise ValueError("unknown gf family %r" % (family,))
    if family == "i24":
        if r != 3:
            raise ValueError("family i24 is defined only for r = 3, got %d" % r)
    elif r < 3:
        raise ValueError("gf families require r >= 3, got %d" % r)
    odd = r % 2 == 1
    num: Dict[int, int] = {}
    den: Dict[int, int] = {}

    if family == "i22":
        if odd:
            h = (r + 1) // 2
            _add(num, h, 1)
            _add(num, r, 1)
            _add(den, 0, 1)
            _add(den, 1, -3)
            _add(den, 2, 1)
            _add(den, h, -1)
        else:
            h = r // 2
            _add(num, h, 1)
            _add(num, h + 1, -1)
            _add(num, r, -1)
            _add(den, 0, 1)
            _add(den, 1, -3)
            _add(den, 2, 1)
            _add(den, h, -1)
            _add(den, h + 1, 1)
    elif family == "i23":
        if not odd:
            raise ValueError("family i23 is defined only for odd r, got %d" % r)
        h = (r + 1) // 2
        _add(num, 1, 1)
        _add(num, h, 1)
        _add(den, 0, 1)
        _add(den, 1, -2)
        _add(den, 2, 1)
        _add(den, h, -1)
        _add(den, r, -1)
    elif family == "i24":
        _add(num, 1, 1)
        _add(num, 2, -1)
        _add(den, 0, 1)
        _add(den, 1, 2)
        _add(den, 3, 1)
    elif family == "i28":
        if odd:
            h = (r + 1) // 2
            _add(num, h, -_sign(h))
            _add(num, h + 1, -_sign(h))
            _add(den, 0, 1)
            _add(den, 1, 3)
            _add(den, 2, 1)
            _add(den, h, -_sign(h))
            _add(den, h + 1, -_sign(h + 1))
            _add(den, r, 1)
        else:
            h = r // 2
            _add(num, h + 1, -_sign(h + 1))
            _add(den, 0, 1)
            _add(den, 1, 3)
            _add(den, 2, 1)
            _add(den, h, -2 * _sign(h))
            _add(den, h + 1, 3 * _sign(h + 1))
            _add(den, r, 1)
    elif family == "i29":
        if odd:
            h = (r + 1) // 2
            _add(num, h, 1)
            _add(num, h + 1, -1)
            _add(den, 0, 1)
            _add(den, 1, -3)
            _add(den, 2, 1)
            _add(den, h, -3)
            _add(den, h + 1, 1)
            _add(den, r, -1)
        else:
            h = r // 2
            _add(num, h + 1, 1)
            _add(den, 0, 1)
            _add(den, 1, -3)
            _add(den, 2, 1)
            _add(den, h, -2)
            _add(den, h + 1, 1)
            _add(den, r, 1)
    elif family == "i30":
        _add(num, 1, 3)
        _add(num, 2, -2)
        _add(num, r - 2, -_sign(r - 2))
        _add(num, r - 1, -_sign(r - 1))
        _add(num, r, -2 * _sign(r))
        _add(den, 0, 1)
        _add(den, 1, -2)
        _add(den, 2, 1)
        _add(den, r - 2, _sign(r - 2))
        _add(den, r - 1, _sign(r - 1))
        _add(den, r, _sign(r))

    return RationalGF(_poly(num), _poly(den))
