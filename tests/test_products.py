"""q-products, theta functions, dissection lemmas, binomial congruences."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qseries import ntheory
from qseries.products import (
    DegenerateProductError,
    DivergenceError,
    DomainError,
    EtaQuotientSpec,
    PochhammerSpec,
    apply_pochhammer,
    eta,
    eta_quotient,
    jacobi_cube,
    phi,
    pochhammer,
    psi,
    theta_f,
)
from qseries.series import SeriesError, TruncatedSeries, div_binomial, mul_binomial
from references import (
    eta_quotient_flat,
    f1_p_dissection_final_term,
    f1_p_dissection_rhs,
    f1cubed_p_dissection_final_term,
    f1cubed_p_dissection_rhs,
    pochhammer_by_binomials,
    psi_p_dissection_final_term,
    psi_p_dissection_rhs,
    triple_product,
)

PENTAGONAL_16 = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]


def enumerate_partitions(n):
    def go(v, rem):
        if rem == 0:
            return 1
        if v > rem:
            return 0
        return sum(go(v + 1, rem - k * v) for k in range(rem // v + 1))

    return go(1, n)


class TestPochhammer:
    def test_infinite_is_pentagonal(self):
        s = pochhammer(PochhammerSpec(1, 1, 1), 16)
        assert s.coefficients() == PENTAGONAL_16

    def test_base_exponent_zero(self):
        # the q^0 factor is the constant 1 - sign, not a second term at q^0:
        # (-1;q)_inf = 2 (-q;q)_inf
        s = pochhammer(PochhammerSpec(-1, 0, 1), 40)
        assert s == pochhammer(PochhammerSpec(-1, 1, 1), 40).scale(2)
        assert s.coefficients()[:5] == [2, 2, 2, 4, 4]

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateProductError):
            PochhammerSpec(1, 0, 1)

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            PochhammerSpec(2, 1, 1)
        with pytest.raises(DomainError):
            PochhammerSpec(1, -1, 1)
        with pytest.raises(DomainError):
            PochhammerSpec(1, 1, 0)

    def test_one_domain_error(self):
        assert DomainError is ntheory.DomainError


def applied(coeffs, spec, power):
    out = list(coeffs)
    apply_pochhammer(out, spec, power)
    return out


def by_binomials(coeffs, spec, power):
    out = list(coeffs)
    pochhammer_by_binomials(out, spec, power)
    return out


class TestApplyPochhammer:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-10**6, 10**6), max_size=300),
        st.sampled_from([1, -1]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(-4, 4),
    )
    def test_matches_the_binomial_product(self, coeffs, sign, base_exp, step, power):
        spec = PochhammerSpec(sign, base_exp, step)
        assert applied(coeffs, spec, power) == by_binomials(coeffs, spec, power)

    @pytest.mark.parametrize("order", [1000, 2500])
    @pytest.mark.parametrize(
        "spec", [PochhammerSpec(1, 1, 1), PochhammerSpec(-1, 1, 2), PochhammerSpec(1, 2, 3)]
    )
    @pytest.mark.parametrize("power", [1, -1])
    def test_matches_the_binomial_product_at_depth(self, spec, power, order):
        one = [1] + [0] * (order - 1)
        assert applied(one, spec, power) == by_binomials(one, spec, power)

    @pytest.mark.parametrize("length", [0, 1, 2, 7])
    def test_power_zero_is_the_identity(self, length):
        coeffs = list(range(3, 3 + length))
        assert applied(coeffs, PochhammerSpec(-1, 1, 1), 0) == coeffs

    @pytest.mark.parametrize("power", [-2, -1, 1, 2])
    @pytest.mark.parametrize("length", [0, 1, 2, 5])
    def test_base_at_or_past_the_length_leaves_the_list(self, power, length):
        coeffs = [4, -1, 7, 2, 9][:length]
        assert applied(coeffs, PochhammerSpec(1, 5, 1), power) == coeffs

    @pytest.mark.parametrize("power", [-1, 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_step_at_or_past_the_length_applies_one_factor(self, sign, power):
        coeffs = [5, -2, 0, 3, 1, 8, -7]
        want = list(coeffs)
        (mul_binomial if power > 0 else div_binomial)(want, 2, -sign)
        for step in (7, 8, 100):
            assert applied(coeffs, PochhammerSpec(sign, 2, step), power) == want

    @pytest.mark.parametrize("length", [0, 1, 2])
    @pytest.mark.parametrize("power", [-3, -1, 1, 3])
    def test_short_lists(self, length, power):
        coeffs = [2, -5][:length]
        for spec in (PochhammerSpec(1, 1, 1), PochhammerSpec(-1, 1, 3)):
            assert applied(coeffs, spec, power) == by_binomials(coeffs, spec, power)

    def test_multiplies_a_list_that_is_not_one(self):
        # (q;q)_inf / (q;q)_inf leaves any series as it was
        coeffs = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 5, 8]
        spec = PochhammerSpec(1, 1, 1)
        assert applied(applied(coeffs, spec, 1), spec, -1) == coeffs
        assert applied(coeffs, spec, 2) == by_binomials(coeffs, spec, 2)

    @pytest.mark.parametrize("power", [1, 2])
    def test_base_exponent_zero_against_the_binomial_product(self, power):
        coeffs = [1, 2, 0, -1] + [0] * 60
        spec = PochhammerSpec(-1, 0, 3)
        assert applied(coeffs, spec, power) == by_binomials(coeffs, spec, power)

    @pytest.mark.parametrize("length", [0, 1, 5])
    def test_inverse_from_base_exponent_zero_is_refused(self, length):
        # (-1;q^k)_inf leads with 2, so no integer series inverts it
        with pytest.raises(SeriesError, match="no power series inverse"):
            applied([1] * length, PochhammerSpec(-1, 0, 2), -1)


class TestEta:
    def test_pentagonal_coefficients(self):
        assert eta(1, 16).coefficients() == PENTAGONAL_16

    def test_matches_product_form(self):
        assert eta(1, 120) == pochhammer(PochhammerSpec(1, 1, 1), 120)
        assert eta(3, 120) == pochhammer(PochhammerSpec(1, 3, 3), 120)

    def test_scaling(self):
        assert eta(2, 60) == eta(1, 30).substitute(2)

    def test_unit(self):
        s = eta(1, 40)
        assert s * s.invert() == TruncatedSeries.one(40)


class TestEtaQuotient:
    def test_partition_generating_function(self):
        s = eta_quotient({1: -1}, 7)
        assert s.coefficients() == [enumerate_partitions(n) for n in range(7)]
        assert s.coefficients() == [1, 1, 2, 3, 5, 7, 11]

    def test_odd_v_quotient_head(self):
        s = eta_quotient({4: 3, 1: -1, 2: -1}, 2)
        assert s.coefficients() == [1, 1]

    def test_even_lambda_quotient_head(self):
        s = eta_quotient({2: 3, 3: 2, 1: -3, 6: -1}, 2)
        assert s.coefficients() == [1, 3]

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            EtaQuotientSpec({0: 1})
        with pytest.raises(DomainError):
            EtaQuotientSpec({1: "x"})

    @pytest.mark.parametrize("order", [0, -2])
    def test_empty_order_is_zero(self, order):
        # the plan asks a folded quotient for order 0 when a q^k factor covers it
        assert eta_quotient({4: 3, 1: -1, 2: -1}, order) == TruncatedSeries.zero(order)

    def test_truncation_stability(self):
        spec = {4: 3, 1: -1, 2: -1}
        assert eta_quotient(spec, 100).truncate(40) == eta_quotient(spec, 40)


    def test_spec_takes_pochhammer_factors_that_start_at_q(self):
        EtaQuotientSpec({1: 1}, {PochhammerSpec(-1, 1, 2): -3})
        with pytest.raises(DomainError):
            EtaQuotientSpec({}, {PochhammerSpec(-1, 0, 2): 1})  # leads with 2
        with pytest.raises(DomainError):
            EtaQuotientSpec({}, {PochhammerSpec(1, 1, 2): "x"})

    @pytest.mark.parametrize("order", [1000, 1001, 1002])
    @pytest.mark.parametrize(
        "exponents, pochs",
        [
            ({6: 4, 9: 6, 3: -8, 18: -3}, {}),  # lemma2.4a's first term, g = 3
            ({12: 1, 18: 4, 3: -3, 36: -2}, {}),  # lemma2.4c's first term, g = 3
            ({6: 1}, {PochhammerSpec(-1, 3, 6): 2, PochhammerSpec(1, 6, 6): -1}),  # g = 3
            ({}, {PochhammerSpec(1, 4, 4): 1, PochhammerSpec(-1, 2, 4): 3}),  # g = 2
            ({2: 1, 1: -1}, {PochhammerSpec(-1, 1, 2): 2, PochhammerSpec(1, 2, 3): -1}),  # g = 1
            ({2: 3, 3: 2, 1: -3, 6: -1}, {}),  # thm6.1.gf's rhs, grids 1, 2, 3 and 6
            ({2: 5, 1: -2, 4: -2}, {}),  # eq2.4's rhs, grids 1, 2 and 4
            # triple.phi's rhs, grids 1 and 2
            ({}, {PochhammerSpec(-1, 1, 2): 2, PochhammerSpec(1, 2, 2): 1}),
        ],
    )
    def test_quotient_matches_factor_by_factor(self, exponents, pochs, order):
        out = [1] + [0] * (order - 1)
        for p, e in pochs.items():
            pochhammer_by_binomials(out, p, e)
        want = TruncatedSeries(0, out, order)
        for k, e in exponents.items():
            want = want * eta(k, order) ** e
        got = eta_quotient(EtaQuotientSpec(exponents, pochs), order)
        assert got.order == order and got == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.integers(1, 12), st.integers(-4, 4), max_size=5),
        st.dictionaries(
            st.builds(
                PochhammerSpec, st.sampled_from([1, -1]), st.integers(1, 12), st.integers(1, 12)
            ),
            st.integers(-3, 3),
            max_size=3,
        ),
        st.integers(-2, 200),
    )
    def test_grid_by_grid_matches_the_one_level_loop(self, exponents, pochs, order):
        spec = EtaQuotientSpec(exponents, pochs)
        got = eta_quotient(spec, order)
        assert got.order == order and got == eta_quotient_flat(spec, order)

    def test_huge_prime_index_is_dropped_not_factored(self):
        # 2^61 - 1 is prime: a design that factors indices hangs here
        big = 2**61 - 1
        assert eta_quotient({big: 2, 1: -1}, 50) == eta_quotient({1: -1}, 50)
        minus = PochhammerSpec(-1, 1, 1)
        spec = EtaQuotientSpec({2: 1}, {PochhammerSpec(1, big, big): -1, minus: 1})
        assert eta_quotient(spec, 50) == eta_quotient(EtaQuotientSpec({2: 1}, {minus: 1}), 50)

    def test_pochhammer_factor_to_the_zero_is_one(self):
        spec = EtaQuotientSpec({2: 1}, {PochhammerSpec(1, 1, 1): 0})
        assert eta_quotient(spec, 20) == eta(2, 20)

    @pytest.mark.parametrize(
        "exponents", [{10**9: 1}, {10**9: -2}, {10**9: 3, 2 * 10**9: -1}]
    )
    def test_index_far_above_the_order_allocates_only_the_order(self, exponents):
        # g = 10**9 expands one coefficient and spreads it into the result
        want = TruncatedSeries.one(5)
        for k, e in exponents.items():
            want = want * eta(k, 5) ** e
        tracemalloc.start()
        try:
            got = eta_quotient(exponents, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want == TruncatedSeries.one(5)
        assert peak < 100_000


class TestThetaF:
    def test_phi(self):
        s = theta_f(1, 1, 1, 1, 12)
        assert s.coefficients() == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0]

    def test_psi(self):
        s = theta_f(1, 1, 1, 3, 12)
        assert s.coefficients() == [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0]

    def test_f_neg_is_eta(self):
        assert theta_f(-1, 1, -1, 2, 200) == eta(1, 200)

    def test_divergent(self):
        with pytest.raises(DivergenceError):
            theta_f(1, 0, 1, 0, 10)


class TestJacobiCube:
    def test_triangular_weights(self):
        s = jacobi_cube(12)
        assert [s.coefficient(e) for e in (0, 1, 3, 6, 10)] == [1, -3, 5, -7, 9]

    def test_non_triangular_vanishes(self):
        assert jacobi_cube(12).coefficient(2) == 0

    def test_equals_eta_cubed(self):
        assert jacobi_cube(500) == eta(1, 500) ** 3

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9, 25])
    @pytest.mark.parametrize("order", [0, 1, 7, 50, 101])
    def test_scaled_equals_substitution(self, k, order):
        expected = jacobi_cube(-(-order // k)).substitute(k).truncate(order)
        assert jacobi_cube(order, k) == expected

    @pytest.mark.parametrize("k", [2, 3])
    def test_scaled_equals_eta_cubed(self, k):
        assert jacobi_cube(301, k) == eta(k, 301) ** 3

    def test_index_must_be_positive(self):
        with pytest.raises(DomainError):
            jacobi_cube(10, 0)


@pytest.mark.parametrize(
    "s1,a,s2,b",
    [(1, 1, 1, 1), (1, 1, 1, 3), (-1, 1, -1, 2), (1, 1, 1, 5), (1, 0, 1, 1)],
)
def test_triple_product_identity(s1, a, s2, b):
    assert theta_f(s1, a, s2, b, 400) == triple_product(s1, a, s2, b, 400)


class TestClassicalProductForms:
    def test_phi_quotient(self):
        assert phi(400) == eta_quotient({2: 5, 1: -2, 4: -2}, 400)

    def test_psi_quotient(self):
        assert psi(400) == eta_quotient({2: 2, 1: -1}, 400)

    def test_phi_neg_quotient(self):
        assert phi(400).alternate() == eta_quotient({1: 2, 2: -1}, 400)


class TestLemma24:
    ORDER = 500

    def test_dissection_a(self):
        lhs = eta_quotient({2: 1, 1: -2}, self.ORDER)
        rhs = (
            eta_quotient({6: 4, 9: 6, 3: -8, 18: -3}, self.ORDER)
            + eta_quotient({6: 3, 9: 3, 3: -7}, self.ORDER - 1).shift(1).scale(2)
            + eta_quotient({6: 2, 18: 3, 3: -6}, self.ORDER - 2).shift(2).scale(4)
        )
        assert lhs == rhs

    def test_dissection_b(self):
        lhs = eta_quotient({1: -1, 2: -1}, self.ORDER)
        rhs = (
            eta_quotient({9: 9, 3: -6, 6: -2, 18: -3}, self.ORDER)
            + eta_quotient({9: 6, 3: -5, 6: -3}, self.ORDER - 1).shift(1)
            + eta_quotient({9: 3, 18: 3, 3: -4, 6: -4}, self.ORDER - 2).shift(2).scale(3)
            + eta_quotient({18: 6, 3: -3, 6: -5}, self.ORDER - 3).shift(3).scale(-2)
            + eta_quotient({18: 9, 3: -2, 6: -6, 9: -3}, self.ORDER - 4).shift(4).scale(4)
        )
        assert lhs == rhs

    def test_dissection_c(self):
        lhs = eta_quotient({4: 1, 1: -1}, self.ORDER)
        rhs = (
            eta_quotient({12: 1, 18: 4, 3: -3, 36: -2}, self.ORDER)
            + eta_quotient({6: 2, 9: 3, 36: 1, 3: -4, 18: -2}, self.ORDER - 1).shift(1)
            + eta_quotient({6: 1, 18: 1, 36: 1, 3: -3}, self.ORDER - 2).shift(2).scale(2)
        )
        assert lhs == rhs


class TestPsiDissection:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_reconstructs_psi(self, p):
        assert psi_p_dissection_rhs(p, 300) == psi(300)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_excluded_residue_class(self, p):
        # the distinguished residue class is hit only by the final term
        rstar = ((p * p - 1) // 8) % p
        lhs = psi(300).extract_ap(p, rstar)
        final = psi_p_dissection_final_term(p, 300).extract_ap(p, rstar)
        assert lhs == final
        for m in range((p - 1) // 2):
            assert ((m * m + m) // 2) % p != rstar

    def test_rejects_non_prime(self):
        with pytest.raises(DomainError):
            psi_p_dissection_rhs(9, 50)
        with pytest.raises(DomainError):
            psi_p_dissection_rhs(2, 50)


class TestF1Dissection:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_reconstructs_eta(self, p):
        assert f1_p_dissection_rhs(p, 300) == eta(1, 300)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_excluded_residue_class(self, p):
        rstar = ((p * p - 1) // 24) % p
        lhs = eta(1, 300).extract_ap(p, rstar)
        final = f1_p_dissection_final_term(p, 300).extract_ap(p, rstar)
        assert lhs == final
        tstar = (p - 1) // 6 if p % 6 == 1 else (-p - 1) // 6
        for t in range(-(p - 1) // 2, (p - 1) // 2 + 1):
            if t != tstar:
                assert ((3 * t * t + t) // 2) % p != rstar

    def test_rejects_small_prime(self):
        with pytest.raises(DomainError):
            f1_p_dissection_rhs(3, 50)


class TestF1CubedDissection:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_reconstructs_cube(self, p):
        assert f1cubed_p_dissection_rhs(p, 300) == eta(1, 300) ** 3

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_excluded_residue_class(self, p):
        rstar = ((p * p - 1) // 8) % p
        lhs = (eta(1, 300) ** 3).extract_ap(p, rstar)
        final = f1cubed_p_dissection_final_term(p, 300).extract_ap(p, rstar)
        assert lhs == final
        for k in range(p):
            if k != (p - 1) // 2:
                assert (k * (k + 1) // 2) % p != rstar


class TestBinomialCongruences:
    # the congruences themselves are the registry's binom.* claims
    def test_non_congruence_detected(self):
        # l_1^2 is not congruent to l_3 mod 3
        lhs = eta(1, 50) ** 2
        rhs = eta(3, 50)
        assert any(c % 3 for c in (lhs - rhs).coeffs)
