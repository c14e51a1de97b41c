"""The C-finite series value, rational series expansion, and the series catalog."""

from typing import Dict, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tridet import (
    GF_FAMILIES,
    CFinite,
    expand_rational,
    gf_catalog,
)
from tridet.sequences import (
    FIXED_FAMILIES,
    MAX_R,
    PARAMETRIC_FAMILIES,
    SequenceKind,
    family_den,
    order_refusal,
)
from tridet.series import _convolve, _plus, multisected_den


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


@given(
    st.lists(st.integers(-6, 6), max_size=6),
    st.lists(st.integers(-6, 6), max_size=5),
)
@example([], [3])
@example([3, 0, -2], [])
@example([3, 0, -2], [0, 0])
def test_one_term_read_matches_the_expansion(num, den_tail):
    # the zero series, and den trimmed to (1,), where the halving's
    # numerator runs out
    gf = _gf(num, [1] + den_tail)
    assert [gf.at(n) for n in range(41)] == [gf.coefficients(n, n)[0] for n in range(41)]


def test_one_term_read_refuses_a_negative_index():
    # the halving's n //= 2 stays at -1, so it would never end
    with pytest.raises(ValueError, match="nonnegative, got -1$"):
        CFinite.from_head((1, -1, -1), (0, 1)).at(-1)


def test_expansion_refuses_a_negative_low_index():
    # coeffs[lo:] would read the tail of the list: [1, 2] for Fibonacci at (-2, 3)
    with pytest.raises(ValueError, match="nonnegative, got -2$"):
        CFinite.from_head((1, -1, -1), (0, 1)).coefficients(-2, 3)


def _naive_product(f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@given(
    st.lists(st.integers(-9, 9), max_size=7),
    st.lists(st.integers(-9, 9), max_size=7),
    st.integers(0, 14),
    st.integers(1, 3),
    st.one_of(st.none(), st.integers(0, 16)),
)
@example([], [1, 2], 0, 1, None)  # an empty factor
@example([3, 0, -2], [], 1, 2, 5)
@example([1, 2], [3, 4], 0, 1, 10)  # stop past the end
@example([1, 2, 3], [4, -5, 6, 7], 0, 2, None)  # the halving's two parities
@example([1, 2, 3], [4, -5, 6, 7], 1, 2, None)
@example([5, 0, 1], [1, -1], 0, 1, 3)  # from_head's stop
def test_convolve_reads_the_naive_product(f, g, first, step, stop):
    assert _convolve(f, g, first, step, stop) == _naive_product(f, g)[first:stop:step]


def _reference_negative_shift(gf, k):
    """shift(k) for k < 0 with its numerator found by hand: (series - head) / x^(-k)."""
    head = gf.coefficients(0, -k - 1)
    return CFinite(_plus(gf.num[-k:], [-c for c in _convolve(head, gf.den, -k)]), gf.den)


@given(
    st.lists(st.integers(-6, 6), max_size=8),
    st.lists(st.integers(-6, 6), max_size=5),
    st.integers(-12, -1),
)
@example([], [], -3)  # the zero series
@example([1, 2, 3], [], -2)  # den = (1,), a polynomial
@example([1, 2, 3], [], -3)  # shifted to its end
@example([1, 2, 3], [], -12)  # and past it
@example([4, 0, 1], [0, 0, -1], -12)  # past len(num) over a longer den
def test_negative_shift_matches_the_hand_built_numerator(num, den_tail, k):
    gf = _gf(num, [1] + den_tail)
    shifted = gf.shift(k)
    assert shifted == _reference_negative_shift(gf, k)
    assert shifted.coefficients(0, 20) == gf.coefficients(-k, -k + 20)


def _reference_multisected_den(den, s):
    """multisected_den by Newton power sums alone, for every s, even ones too.

    den's power sums are stepped by their own double loop.
    """
    q = list(den)
    if s == 1:
        return q
    order = len(q) - 1
    # p_k = -k q_k - sum_{i<k} p_i q_(k-i) gives the power sums of den
    sums = [0]
    for k in range(1, s * order + 1):
        acc = -k * q[k] if k <= order else 0
        for i in range(max(1, k - order), k):
            acc -= sums[i] * q[k - i]
        sums.append(acc)
    # and k R_k = -sum_{i=1..k} p_(s i) R_(k-i) recovers R
    out = [1]
    for k in range(1, order + 1):
        out.append(-sum(sums[s * i] * out[k - i] for i in range(1, k + 1)) // k)
    return out


@given(
    st.one_of(
        st.lists(st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3)), max_size=12),  # sparse
        st.lists(st.integers(-6, 6), max_size=12),  # dense
    ),
    st.integers(1, 8),
)
@settings(max_examples=300)
@example([], 1)  # den = (1,)
@example([], 4)
@example([0, 2, 0], 3)  # a gap and a trailing zero
@example([0, 2, 0], 8)  # three Graeffe steps
@example([0] * 11 + [1], 6)  # 1 + x^12, one Graeffe step, then Newton
def test_multisected_den_matches_the_power_sum_loop(den_tail, s):
    den = [1] + den_tail
    assert multisected_den(den, s) == _reference_multisected_den(den, s)


@pytest.mark.parametrize("r", range(2, 13))
def test_multisected_den_matches_the_power_sum_loop_on_k_step_fibonacci(r):
    den = family_den(SequenceKind("k-step-fibonacci", r))
    for s in range(1, 7):
        assert multisected_den(den, s) == _reference_multisected_den(den, s), s


def test_multisected_den_matches_the_power_sum_loop_on_every_family():
    # every family at every in-domain order up to 40 with s = 1..8, and at
    # 999 and 1000 with the registry's even stride, where Graeffe steps run
    kinds = [SequenceKind(family) for family in FIXED_FAMILIES] + [
        SequenceKind(family, r)
        for family in PARAMETRIC_FAMILIES
        for r in range(2, 41)
        if order_refusal(family, r) is None
    ]
    for kind in kinds:
        den = family_den(kind)
        for s in range(1, 9):
            assert multisected_den(den, s) == _reference_multisected_den(den, s), (kind, s)
    large = [SequenceKind(family, r) for family in PARAMETRIC_FAMILIES for r in (999, 1000)
             if order_refusal(family, r) is None]
    assert len(large) == 11
    for kind in large:
        den = family_den(kind)
        assert multisected_den(den, 2) == _reference_multisected_den(den, 2), kind


def test_multisected_den_refuses_a_step_below_one():
    with pytest.raises(ValueError, match="multisection step must be positive, got 0"):
        multisected_den([1, -1, -1], 0)


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


# the catalog as it stood before the exponent table, one branch per family
# and parity, kept as the reference the table is compared against
def _poly(monomials: Dict[int, int]) -> List[int]:
    coeffs = [0] * (max(monomials) + 1)
    for degree, coeff in monomials.items():
        coeffs[degree] += coeff
    return coeffs


def _add(monomials: Dict[int, int], degree: int, coeff: int) -> None:
    monomials[degree] = monomials.get(degree, 0) + coeff


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _reference_gf_catalog(family: str, r: int) -> CFinite:
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

    return CFinite(_poly(num), _poly(den))


def _catalog_outcome(catalog, family, r):
    try:
        gf = catalog(family, r)
    except ValueError as exc:
        return str(exc)
    return gf.num, gf.den


def test_catalog_table_matches_the_branch_reference_at_every_r():
    # every family and an unknown name, at every r from below the domain to
    # one past MAX_R, where only the table refuses
    for family in GF_FAMILIES + ("nonesuch",):
        for r in range(-2, MAX_R + 2):
            expected = _catalog_outcome(_reference_gf_catalog, family, r)
            if r > MAX_R and not isinstance(expected, str):
                expected = "gf families require r <= MAX_R = %d, got %d" % (MAX_R, r)
            assert _catalog_outcome(gf_catalog, family, r) == expected, (family, r)
