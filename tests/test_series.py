"""Core truncated-series arithmetic: construction, ring laws, exponent surgery."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from qseries import mock as mock_mod
from qseries.claims import registry_by_id, verify
from qseries.partitions import RULESETS, count_dp
from qseries.products import (
    EtaQuotientSpec,
    PochhammerSpec,
    eta,
    eta_quotient,
    jacobi_cube,
    pochhammer,
    theta_f,
)
from qseries.series import (
    NonUnitError,
    SeriesError,
    TruncatedSeries,
    UnknownCoefficientError,
    div_binomial,
    make,
    mul_binomial,
)
from references import (
    agrees_by_coefficients,
    alternate_by_parity,
    coefficients_by_exponent,
    extract_ap_by_exponent,
)


def geometric(order):
    return make(0, [1] * order, order)


def series_from_poly(coeffs, order):
    return make(0, list(coeffs) + [0] * (order - len(coeffs)), order)


# independent oracle: partition counts by backtracking enumeration
def partitions_of(n):
    def go(v, rem):
        if rem == 0:
            return 1
        if v > rem:
            return 0
        return sum(go(v + 1, rem - k * v) for k in range(rem // v + 1))

    return go(1, n)


# independent oracle: pentagonal recurrence
def p_by_recurrence(top):
    p = [1]
    for n in range(1, top + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
    return p


def pentagonal_series(order):
    terms = {}
    m = 0
    while m * (3 * m - 1) // 2 < order or m * (3 * m + 1) // 2 < order:
        for e in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if e < order:
                terms[e] = 1 if m % 2 == 0 else -1
        m += 1
    return TruncatedSeries.from_terms(terms, order)


class TestMake:
    def test_identity_element(self):
        s = make(0, [1], 1)
        assert s.valuation == 0 and s.order == 1 and s.coeffs == (1,)

    def test_laurent(self):
        s = make(-1, [2, 0, 3], 2)
        assert s.coefficient(-1) == 2
        assert s.coefficient(0) == 0
        assert s.coefficient(1) == 3

    def test_empty(self):
        s = make(0, [], 0)
        assert s == TruncatedSeries.zero(0)
        assert s.coefficient(-5) == 0
        with pytest.raises(UnknownCoefficientError):
            s.coefficient(0)

    def test_length_mismatch(self):
        with pytest.raises(SeriesError):
            make(0, [1, 2], 1)

    def test_rejects_floats(self):
        with pytest.raises(SeriesError):
            make(0, [1.0], 1)

    def test_constructor_rejects_float_coefficient(self):
        with pytest.raises(SeriesError):
            TruncatedSeries(0, [1.0], 1)

    def test_from_terms_rejects_float_coefficient(self):
        with pytest.raises(SeriesError):
            TruncatedSeries.from_terms({0: 1.5}, 3)

    def test_from_terms_rejects_float_exponent(self):
        with pytest.raises(SeriesError, match="exponent 0.5"):
            TruncatedSeries.from_terms({0.5: 1}, 3)

    @pytest.mark.parametrize("build", [make, TruncatedSeries])
    def test_rejects_float_valuation(self, build):
        with pytest.raises(SeriesError, match="valuation 0.5"):
            build(0.5, [1], 1.5)

    @pytest.mark.parametrize("build", [make, TruncatedSeries])
    def test_rejects_float_order(self, build):
        with pytest.raises(SeriesError, match="order 1.0"):
            build(0, [1], 1.0)

    def test_from_terms_rejects_float_order(self):
        with pytest.raises(SeriesError, match="order 3.0"):
            TruncatedSeries.from_terms({0: 1}, 3.0)

    def test_zero_rejects_float_order(self):
        with pytest.raises(SeriesError, match="order 1.5"):
            TruncatedSeries.zero(1.5)

    def test_one_rejects_float_order(self):
        with pytest.raises(SeriesError, match="order 2.0"):
            TruncatedSeries.one(2.0)

    def test_monomial_rejects_float_order(self):
        with pytest.raises(SeriesError, match="order 3.0"):
            TruncatedSeries.monomial(1, 3.0)

    def test_monomial_rejects_float_exponent(self):
        with pytest.raises(SeriesError, match="exponent 1.0"):
            TruncatedSeries.monomial(1.0, 3)

    def test_shift_rejects_float_shift(self):
        with pytest.raises(SeriesError, match="shift 0.5"):
            make(0, [1, 2], 2).shift(0.5)

    def test_truncate_rejects_float_order(self):
        with pytest.raises(SeriesError, match="order 1.5"):
            make(0, [1, 2], 2).truncate(1.5)


class TestAdd:
    def test_cancellation(self):
        a = series_from_poly([1, 1], 10)
        b = series_from_poly([1, -1], 10)
        assert (a + b) == series_from_poly([2], 10)

    def test_zero_identity(self):
        s = make(0, [5, -3, 2], 3)
        assert s + TruncatedSeries.zero(3) == s

    def test_laurent_kept_valuation(self):
        a = make(-1, [1, 1], 1)
        b = make(-1, [-1, 0], 1)
        total = a + b
        assert total.valuation == -1
        assert total.coefficient(-1) == 0
        assert total.coefficient(0) == 1


class TestMul:
    def test_telescoping(self):
        n = 30
        out = geometric(n) * series_from_poly([1, -1], n)
        assert out == TruncatedSeries.one(n)

    def test_identity(self):
        s = make(0, [3, 1, 4, 1, 5], 5)
        assert s * TruncatedSeries.one(100) == s

    def test_partition_series_times_pentagonal_is_one(self):
        # oracle: pentagonal recurrence builds p(n)
        order = 50
        p = p_by_recurrence(order)
        ps = make(0, p[:order], order)
        assert ps * pentagonal_series(order) == TruncatedSeries.one(order)

    def test_order_rule(self):
        a = make(1, [1, 2], 3)   # known below q^3
        b = make(2, [5], 3)      # known below q^3
        out = a * b
        assert out.valuation == 3
        assert out.order == min(3 + 2, 3 + 1)


class TestInvert:
    def test_geometric(self):
        s = series_from_poly([1, -1], 20)
        assert s.invert() == geometric(20)

    def test_partition_counts(self):
        # oracle: backtracking enumeration of partitions
        order = 11
        inv = pentagonal_series(order).invert()
        assert inv.coefficients() == [partitions_of(n) for n in range(order)]

    def test_nonunit_rejected(self):
        with pytest.raises(NonUnitError):
            series_from_poly([2, 1], 5).invert()
        with pytest.raises(NonUnitError):
            TruncatedSeries.zero(5).invert()

    def test_laurent_inverse_valuation(self):
        s = make(1, [1, 1], 3)  # q + q^2
        inv = s.invert()
        assert inv.valuation == -1
        assert (s * inv).coefficient(0) == 1


class TestPow:
    def test_three_colored_partitions(self):
        # oracle: enumeration of 3-colored partitions for n <= 3
        def colored(n, colors):
            def go(v, ci, rem):
                if rem == 0:
                    return 1
                if v > rem:
                    return 0
                if ci == colors:
                    return go(v + 1, 0, rem)
                return sum(go(v, ci + 1, rem - k * v) for k in range(rem // v + 1))

            return go(1, 0, n)

        s = pentagonal_series(12) ** (-3)
        assert s.coefficients(4) == [colored(n, 3) for n in range(4)]
        assert s.coefficients(4) == [1, 3, 9, 22]

    def test_pow_one(self):
        s = make(0, [1, 7, 2], 3)
        assert s ** 1 == s

    def test_binomial_square(self):
        s = series_from_poly([1, -1], 10)
        assert (s ** 2).coefficients(3) == [1, -2, 1]

    def test_pow_zero(self):
        s = make(0, [1, 5], 2)
        assert (s ** 0) == TruncatedSeries.one(2)

    @pytest.mark.parametrize(
        "s",
        [
            pentagonal_series(40),
            make(2, [1, -3, 0, 5] + [1] * 30, 36),  # positive valuation
            make(-3, [-1, 2, 0, 0, 7] + [0] * 20, 22),  # Laurent, unit lead -1
            make(1, [2, 1] + [0] * 20, 23),  # non-unit lead: negative powers raise
            TruncatedSeries.zero(5),
        ],
    )
    @pytest.mark.parametrize("e", [1, 2, 3, 5, 8, 13, -1, -2, -7])
    def test_pow_equals_repeated_products(self, s, e):
        def repeated():
            if e > 0:
                r = s
                for _ in range(e - 1):
                    r = r * s
                return r
            r = s.invert()
            for _ in range(-e - 1):
                r = r / s
            return r

        try:
            expected = repeated()
        except SeriesError as exc:
            with pytest.raises(SeriesError) as info:
                s ** e
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            return
        got = s ** e
        assert (got.order, got) == (expected.order, expected)

    def test_pow_uses_logarithmically_many_products(self, monkeypatch):
        calls = []
        real = TruncatedSeries.__mul__

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
        s = series_from_poly([1, 1], 30)
        assert (s ** 1000).coefficients(3) == [1, 1000, 1000 * 999 // 2]
        assert len(calls) <= 20


class TestExtractAp:
    def test_direct_definition(self):
        s = make(0, [1, 2, 3, 4], 4)
        out = s.extract_ap(2, 1)
        assert out.coefficients() == [2, 4]
        assert out.order == 2

    def test_reassembly(self):
        s = make(0, list(range(1, 13)), 12)
        total = TruncatedSeries.zero(12)
        for r in range(3):
            total = total + s.extract_ap(3, r).substitute(3).shift(r)
        agree, diff = total.agrees_with(s)
        assert agree, diff

    def test_laurent_extraction(self):
        s = make(-1, [7, 0, 0, 5], 3)  # 7q^-1 + 5q^2
        out = s.extract_ap(3, 2)
        assert out.valuation == -1
        assert out.coefficient(-1) == 7
        assert out.coefficient(0) == 5


class TestSubstitute:
    def test_basic(self):
        s = series_from_poly([1, 1], 2)
        out = s.substitute(3)
        assert out.coefficient(0) == 1 and out.coefficient(3) == 1
        assert out.order == 6

    def test_identity_power(self):
        s = make(0, [4, 2], 2)
        assert s.substitute(1) is s

    def test_rejects_nonpositive(self):
        with pytest.raises(SeriesError):
            make(0, [1], 1).substitute(0)


class TestFormatting:
    def test_dense_with_laurent_part(self):
        from qseries.series import format_series

        s = make(-1, [2, 0, 3], 2)
        assert format_series(s) == "2q^-1 + 3q + O(q^2)"

    def test_sparse_beyond_dense_limit(self):
        from qseries.series import format_series

        s = TruncatedSeries.from_terms({0: 1, 51: -4}, 60)
        assert format_series(s) == "0:1 51:-4 (O(q^60))"

    def test_zero_series(self):
        from qseries.series import format_series

        assert format_series(TruncatedSeries.zero(5)) == "0 + O(q^5)"

    def test_repr_is_text_for_every_series(self):
        # 2^15000 has 4516 digits, past the interpreter's default limit of
        # 4300 on converting an int to text
        s = make(0, [1, 2**15000, -(2**15000)], 3)
        if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4516:
            assert repr(s) == "<TruncatedSeries 0:1 1:(4516 digits) 2:-(4516 digits) (O(q^3))>"
        else:
            assert repr(s).startswith("<TruncatedSeries 1 + 2")
        assert repr(make(0, [1, -2], 2)) == "<TruncatedSeries 1 - 2q + O(q^2)>"


class TestLaurentOps:
    def test_shift_roundtrip(self):
        s = make(0, [1, 2, 3], 3)
        assert s.shift(-2).shift(2) == s

    def test_alternate_parity(self):
        s = make(-1, [1, 1, 1, 1], 3)
        out = s.alternate()
        assert [out.coefficient(e) for e in range(-1, 3)] == [-1, 1, -1, 1]

    def test_alternate_involution(self):
        s = make(0, [5, -2, 7, 1], 4)
        assert s.alternate().alternate() == s


# -- randomized ring laws ----------------------------------------------------

small_series = st.builds(
    lambda val, coeffs: make(val, coeffs, val + len(coeffs)),
    st.integers(-4, 4),
    st.lists(st.integers(-9, 9), min_size=0, max_size=24),
)

unit_series = st.builds(
    lambda lead, coeffs: make(0, [lead] + coeffs, 1 + len(coeffs)),
    st.sampled_from([1, -1]),
    st.lists(st.integers(-9, 9), min_size=0, max_size=20),
)


def near_copy(base, shift, cut, bump):
    """``base`` with its valuation moved by ``shift`` zeros (coefficients kept
    in place), its order cut by ``cut``, and one coefficient bumped."""
    coeffs = list(base.coeffs)
    if bump is not None and coeffs:
        coeffs[bump % len(coeffs)] += 1
    if shift < 0:
        coeffs = [0] * -shift + coeffs
    else:
        coeffs = coeffs[shift:]
    val = base.valuation + shift
    order = max(base.order - cut, val)
    return make(val, (coeffs + [0] * order)[: order - val], order)


@settings(max_examples=300)
@given(
    small_series,
    st.integers(-4, 4),
    st.integers(0, 8),
    st.one_of(st.none(), st.integers(0, 30)),
    st.booleans(),
)
def test_agrees_with_matches_the_exponent_loop(a, shift, cut, bump, swap):
    # different valuations, cut orders (down to an empty overlap) and one
    # changed coefficient, either way round
    b = near_copy(a, shift, cut, bump)
    if swap:
        a, b = b, a
    assert a.agrees_with(b) == agrees_by_coefficients(a, b)


def shape(s: TruncatedSeries) -> tuple:
    return s.valuation, s.coeffs, s.order


@settings(max_examples=300)
@given(
    st.integers(-12, 12),
    st.lists(st.integers(-9, 9), max_size=30),
    st.integers(1, 7),
    st.integers(0, 6),
    st.one_of(st.none(), st.integers(-3, 40)),
)
def test_exponent_surgery_matches_the_coefficient_loops(val, coeffs, m, r, upto):
    # valuations on both sides of 0 and of the residue, every modulus up to 7
    s = make(val, coeffs, val + len(coeffs))
    r %= m
    assert shape(s.extract_ap(m, r)) == shape(extract_ap_by_exponent(s, m, r))
    assert shape(s.alternate()) == shape(alternate_by_parity(s))
    assert s.coefficients(upto) == coefficients_by_exponent(s, upto)


@pytest.mark.parametrize(
    "a, b, want",
    [
        (make(0, [], 0), make(5, [], 5), (True, None)),  # empty overlap
        (make(3, [1], 4), make(0, [0, 0, 0], 3), (True, None)),  # empty below the order
        (make(2, [1, 0], 4), make(0, [0, 0, 1, 0], 4), (True, None)),
        (make(1, [1, 2], 3), make(0, [1, 1, 2], 3), (False, 0)),
        (make(0, [0, 0, 1], 3), make(2, [2], 3), (False, 2)),
    ],
)
def test_agrees_with_pads_below_the_higher_valuation(a, b, want):
    assert a.agrees_with(b) == want == agrees_by_coefficients(a, b)
    assert b.agrees_with(a) == want


@settings(max_examples=150)
@given(small_series, small_series)
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=150)
@given(small_series, small_series)
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=150)
@given(small_series, small_series, small_series)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=150)
@given(small_series, small_series, small_series)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=150)
@given(small_series, small_series, small_series)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(unit_series)
def test_invert_two_sided(a):
    inv = a.invert()
    prod = a * inv
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(e) == 0 for e in range(1, prod.order))
    assert prod == inv * a


@settings(max_examples=60)
@given(unit_series, st.integers(1, 3))
def test_pow_inverse_pairing(a, e):
    prod = (a ** e) * (a ** (-e))
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(k) == 0 for k in range(1, prod.order))


@settings(max_examples=150)
@given(unit_series, st.integers(1, 24), st.sampled_from([1, -1, 2, -2]))
def test_binomial_kernel_matches_generic(a, e, c):
    factor = TruncatedSeries.from_terms({0: 1, e: c}, a.order)
    out = list(a.coeffs)
    mul_binomial(out, e, c)
    assert make(0, out, a.order) == a * factor
    div_binomial(out, e, c)
    assert out == list(a.coeffs)
    div_binomial(out, e, c)
    assert make(0, out, a.order) == a / factor


# naive per-coefficient oracles for the slice kernels
def naive_mul_binomial(xs, e, c):
    return [x + c * xs[i - e] if i >= e else x for i, x in enumerate(xs)]


def naive_div_binomial(xs, e, c):
    out = []
    for i, x in enumerate(xs):
        out.append(x - c * out[i - e] if i >= e else x)
    return out


def naive_product(a, b):
    order = min(a.order + b.valuation, b.order + a.valuation)
    terms = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            e = a.valuation + b.valuation + i + j
            if e < order:
                terms[e] = terms.get(e, 0) + x * y
    return order, terms


coeff_lists = st.lists(st.integers(-50, 50), max_size=40)
binomial_c = st.sampled_from([-2, -1, 1, 2])


@settings(max_examples=300)
@given(coeff_lists, st.integers(0, 45), binomial_c)
def test_mul_binomial_matches_naive_loop(xs, e, c):
    # e = 0 scales by 1 + c; e >= len leaves the list as it is
    out = list(xs)
    mul_binomial(out, e, c)
    assert out == naive_mul_binomial(xs, e, c)


@settings(max_examples=300)
@given(coeff_lists, st.integers(1, 45), binomial_c)
def test_div_binomial_matches_naive_loop_and_undoes_mul(xs, e, c):
    out = list(xs)
    div_binomial(out, e, c)
    assert out == naive_div_binomial(xs, e, c)
    out = list(xs)
    mul_binomial(out, e, c)
    div_binomial(out, e, c)
    assert out == xs


@pytest.mark.parametrize("e", [1, 2, 3, 6])
@pytest.mark.parametrize("delta", [-1, 0, 1])
@settings(max_examples=25)
@given(data=st.data(), c=binomial_c)
def test_div_binomial_on_both_sides_of_the_running_sum_rule(e, delta, data, c):
    # e * e < len takes running sums along each residue class when c = -1
    n = e * e + delta
    xs = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    out = list(xs)
    div_binomial(out, e, c)
    assert out == naive_div_binomial(xs, e, c)
    mul_binomial(out, e, c)
    assert out == xs


@pytest.mark.parametrize("e", [1, 2, 3, 6])
@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("c", [1, -1, 2])
@settings(max_examples=10)
@given(data=st.data())
def test_div_binomial_on_both_sides_of_the_doubled_running_sum_rule(e, delta, c, data):
    # (2e)^2 < len divides by 1 + q^e as (1 - q^e) / (1 - q^2e)
    n = 4 * e * e + delta
    xs = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    out = list(xs)
    div_binomial(out, e, c)
    assert out == naive_div_binomial(xs, e, c)
    mul_binomial(out, e, c)
    assert out == xs


@pytest.mark.parametrize("xs", [[], [7]])
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("c", [-2, -1, 1, 2])
def test_binomial_kernels_on_short_lists(xs, e, c):
    out = list(xs)
    mul_binomial(out, 0, c)
    assert out == [(1 + c) * x for x in xs]
    out = list(xs)
    mul_binomial(out, e, c)
    div_binomial(out, e, c)
    assert out == xs


@settings(max_examples=200)
@given(small_series, small_series | st.builds(
    TruncatedSeries.from_terms,
    st.dictionaries(st.integers(-4, 40), st.integers(-9, 9), max_size=4),
    st.integers(-4, 40),
))
def test_mul_matches_naive_convolution(a, b):
    order, terms = naive_product(a, b)
    for x, y in ((a, b), (b, a)):
        prod = x * y
        assert prod.order == order
        assert {e: c for e, c in prod.nonzero_items()} == {e: c for e, c in terms.items() if c}


# divisors leading with +1 or -1, with +-1 and +-2 terms after the lead
unit_divisors = st.builds(
    lambda val, lead, coeffs: make(val, [lead] + coeffs, val + 1 + len(coeffs)),
    st.integers(-4, 4).filter(bool),
    st.sampled_from([1, -1]),
    st.lists(st.integers(-2, 2), max_size=24),
)


def naive_quotient(a, b):
    # per-coefficient long division, valid below the shorter relative precision
    val = a.valuation - b.valuation
    length = min(len(a.coeffs), len(b.coeffs))
    out = []
    for n in range(length):
        s = a.coeffs[n]
        for k in range(1, n + 1):
            s -= b.coeffs[k] * out[n - k]
        out.append(s * b.coeffs[0])
    return val, val + length, out


@settings(max_examples=200)
@given(small_series.filter(lambda s: s.valuation), unit_divisors)
def test_div_matches_naive_long_division(a, b):
    val, order, coeffs = naive_quotient(a, b)
    quot = a / b
    if order <= val:
        assert (quot.valuation, quot.order, quot.coeffs) == (order, order, ())
    else:
        assert (quot.valuation, quot.order, list(quot.coeffs)) == (val, order, coeffs)


def test_binomial_divisor_needs_positive_exponent():
    with pytest.raises(SeriesError):
        div_binomial([1, 2, 3], 0, 1)
    with pytest.raises(SeriesError):
        mul_binomial([1, 2, 3], -1, 1)


@settings(max_examples=150)
@given(small_series, st.integers(1, 5))
def test_extract_substitute_roundtrip(s, m):
    total = None
    for r in range(m):
        piece = s.extract_ap(m, r).substitute(m).shift(r)
        total = piece if total is None else total + piece
    agree, diff = total.agrees_with(s)
    assert agree, diff


@settings(max_examples=100)
@given(small_series, small_series, st.integers(0, 12))
def test_truncation_stability(a, b, k):
    # computing at full order then truncating equals truncating first
    full = a * b
    cut = full.truncate(min(full.order, full.valuation + k))
    again = (a.truncate(a.order) * b).truncate(cut.order)
    assert cut == again


# -- the integer invariant is checked where values enter ---------------------

def assert_int_series(s):
    assert all(type(c) is int for c in s.coeffs), s
    assert len(s.coeffs) == s.order - s.valuation


@settings(max_examples=100, deadline=None)
@given(small_series, small_series, unit_series, unit_divisors, st.integers(-3, 3),
       st.integers(1, 4), st.data())
def test_every_operation_builds_int_coefficients(a, b, u, d, c, m, data):
    r = data.draw(st.integers(0, m - 1))
    k = data.draw(st.integers(-5, 5))
    cut = data.draw(st.integers(a.valuation - 2, a.order + 2))
    for s in (a + b, a - b, -a, a * b, a / d, u / d, a ** 2, u ** -2, a.scale(c), u.invert(),
              a.extract_ap(m, r), a.substitute(m), a.alternate(), a.shift(k), a.truncate(cut)):
        assert_int_series(s)


@pytest.mark.parametrize("order", [0, 1, 40])
def test_every_leaf_builds_int_coefficients(order):
    p = PochhammerSpec(-1, 1, 2)
    leaves = [
        eta(2, order),
        theta_f(1, 1, -1, 2, order),
        jacobi_cube(order),
        pochhammer(p, order),
        eta_quotient(EtaQuotientSpec({1: -2, 2: 3}, {p: -1}), order),
        eta_quotient({2: 2, 4: -1}, order),
        count_dp(RULESETS["thm3.2"], order),
    ]
    saved = dict(mock_mod._cache)
    try:
        mock_mod._cache.clear()
        for name in ("v", "lambda", "nu"):
            leaves.append(mock_mod.mock_series(name, order + 5))  # a miss
            leaves.append(mock_mod.mock_series(name, order))  # a cache hit
    finally:
        mock_mod._cache.clear()
        mock_mod._cache.update(saved)
    for s in leaves:
        assert_int_series(s)


def test_package_producers_skip_the_checking_constructor(monkeypatch):
    # the checking constructor is for values from outside; cached mock reads
    # and whole claim verifications build only through the trusted one
    table = registry_by_id()
    for name in ("v", "mu"):
        mock_mod.mock_series(name, 101)
    calls = 0
    checking = TruncatedSeries.__init__

    def counted(self, *args):
        nonlocal calls
        calls += 1
        checking(self, *args)

    monkeypatch.setattr(TruncatedSeries, "__init__", counted)
    for i in range(200):
        n = (7 * i) % 100
        mock_mod.mock_series("v" if i % 2 else "mu", n + 1).coefficient(n)
    reports = [verify(table[cid]) for cid in ("thm6.1.gf", "thm3.1")]
    assert [r.status for r in reports] == ["pass", "pass"]
    assert calls == 0
