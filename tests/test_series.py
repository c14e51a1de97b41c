"""The C-finite series value, rational series expansion, and the series catalog."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tridet import (
    GF_FAMILIES,
    CFinite,
    expand_rational,
    gf_catalog,
)


def _gf(num, den):
    return CFinite(num, den)


def test_polynomial_normalization():
    gf = CFinite([1, 2, 0, 0], [1, -1, 0])
    assert gf.num == (1, 2)
    assert gf.den == (1, -1)
    zero = CFinite([0, 0])
    assert zero.num == () and zero.den == (1,)
    assert zero.coefficients(0, 3) == [0, 0, 0, 0]


def test_value_worked_examples():
    fib = CFinite.from_head((1, -1, -1), (0, 1))
    assert fib.num == (0, 1)
    assert fib.coefficients(0, 7) == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fib.coefficients(5, 7) == [5, 8, 13]
    assert fib.shift(2).coefficients(0, 4) == [0, 0, 0, 1, 1]
    assert fib.shift(-3).coefficients(0, 4) == [2, 3, 5, 8, 13]
    assert fib.scale(-2).coefficients(0, 4) == [0, -2, 4, -16, 48]
    assert fib.multisect(2).coefficients(0, 4) == [0, 1, 3, 8, 21]
    assert fib.multisect(3).den == (1, -4, -1)
    assert (fib + fib.shift(1)).coefficients(0, 5) == [0, 1, 2, 3, 5, 8]
    assert (fib * fib).coefficients(0, 5) == [0, 0, 1, 2, 5, 10]
    assert (-fib).coefficients(0, 3) == [0, -1, -1, -2]


def test_expand_worked_examples():
    # unrolled by hand from c_n = num_n - sum den_k c_(n-k)
    assert expand_rational(_gf([0, 1, -1], [1, 2, 0, 1]), 4) == [1, -3, 6, -13]
    assert expand_rational(_gf([0, 1], [1, -1]), 3) == [1, 1, 1]
    assert expand_rational(_gf([0, 0, 1, -1], [1, -3, -2]), 5) == [0, 1, 2, 8, 28]


def test_expand_validation():
    with pytest.raises(ValueError):
        expand_rational(_gf([0, 1], [1, -1]), 0)
    with pytest.raises(ValueError):
        expand_rational(_gf([0, 1], [2, -1]), 3)


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=6),
    st.lists(st.integers(-6, 6), min_size=0, max_size=5),
    st.integers(1, 30),
)
def test_expansion_inverts_convolution(num, den_tail, terms):
    gf = _gf(num, [1] + den_tail)
    coeffs = [num[0]] + expand_rational(gf, terms)
    den = gf.den
    # den * coeffs must reproduce num up to x^terms
    for n in range(terms + 1):
        conv = sum(
            den[k] * coeffs[n - k] for k in range(min(n, len(den) - 1) + 1)
        )
        assert conv == (num[n] if n < len(num) else 0)


# catalog polynomials at small orders, reduced by hand after cancellation
CATALOG_FROZEN = {
    ("i22", 3): ((0, 0, 1, 1), (1, -3)),
    ("i22", 4): ((0, 0, 1, -1, -1), (1, -3, 0, 1)),
    ("i22", 5): ((0, 0, 0, 1, 0, 1), (1, -3, 1, -1)),
    ("i23", 3): ((0, 1, 1), (1, -2, 0, -1)),
    ("i23", 5): ((0, 1, 0, 1), (1, -2, 1, -1, 0, -1)),
    ("i24", 3): ((0, 1, -1), (1, 2, 0, 1)),
    ("i28", 3): ((0, 0, -1, -1), (1, 3, 0, 2)),
    ("i28", 4): ((0, 0, 0, 1), (1, 3, -1, -3, 1)),
    ("i29", 3): ((0, 0, 1, -1), (1, -3, -2)),
    ("i29", 4): ((0, 0, 0, 1), (1, -3, -1, 1, 1)),
    ("i30", 3): ((0, 4, -3, 2), (1, -3, 2, -1)),
    ("i30", 4): ((0, 3, -3, 1, -2), (1, -2, 2, -1, 1)),
}


@pytest.mark.parametrize("family,r", sorted(CATALOG_FROZEN))
def test_catalog_polynomials(family, r):
    num, den = CATALOG_FROZEN[(family, r)]
    gf = gf_catalog(family, r)
    assert gf.num == num
    assert gf.den == den


# first coefficients of each catalog entry, frozen after independent
# verification against the matching determinant sequences
COEFF_FROZEN = {
    ("i22", 3): [0, 1, 4, 12, 36, 108, 324, 972],
    ("i22", 4): [0, 1, 2, 5, 14, 40, 115, 331],
    ("i22", 5): [0, 0, 1, 3, 9, 25, 69, 191],
    ("i22", 6): [0, 0, 1, 2, 5, 13, 35, 95],
    ("i23", 3): [1, 3, 6, 13, 29, 64, 141, 311],
    ("i23", 5): [1, 2, 4, 7, 12, 22, 41, 76],
    ("i24", 3): [1, -3, 6, -13, 29, -64, 141, -311],
    ("i28", 3): [0, -1, 2, -6, 20, -64, 204, -652],
    ("i28", 4): [0, 0, 1, -3, 10, -30, 90, -267],
    ("i28", 5): [0, 0, 1, -2, 5, -14, 40, -114],
    ("i29", 3): [0, 1, 2, 8, 28, 100, 356, 1268],
    ("i29", 4): [0, 0, 1, 3, 10, 32, 102, 325],
    ("i29", 5): [0, 0, 1, 2, 5, 16, 48, 142],
    ("i30", 3): [4, 9, 21, 49, 114, 265, 616, 1432],
    ("i30", 4): [3, 3, 1, -3, -8, -12, -12, -5],
}


@pytest.mark.parametrize("family,r", sorted(COEFF_FROZEN))
def test_catalog_coefficients(family, r):
    assert expand_rational(gf_catalog(family, r), 8) == COEFF_FROZEN[(family, r)]


def test_catalog_families_constant():
    assert GF_FAMILIES == ("i22", "i23", "i24", "i28", "i29", "i30")


@pytest.mark.parametrize(
    "family,r",
    [
        ("nonesuch", 3),
        ("i22", 2),
        ("i23", 4),  # odd orders only
        ("i23", 2),
        ("i24", 4),  # fixed at order 3
        ("i28", 2),
        ("i29", 2),
        ("i30", 2),
    ],
)
def test_catalog_domain_errors(family, r):
    with pytest.raises(ValueError):
        gf_catalog(family, r)


def test_catalog_denominators_have_unit_constant():
    rs = {"i22": range(3, 9), "i23": (3, 5, 7), "i24": (3,), "i28": range(3, 9),
          "i29": range(3, 9), "i30": range(3, 9)}
    for family in GF_FAMILIES:
        for r in rs[family]:
            gf = gf_catalog(family, r)
            assert gf.den[0] == 1
            # expansion must start cleanly: constant coefficient zero
            assert gf.num[0] == 0
