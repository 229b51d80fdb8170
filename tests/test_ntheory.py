"""Legendre symbol, primality, and congruence-family index generation."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from qseries.ntheory import (
    DomainError,
    FamilyIndex,
    PreconditionError,
    family_indices,
    is_prime,
    legendre,
)
from references import qualifying_primes

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def squares_mod(p):
    return {x * x % p for x in range(1, p)}


class TestPrimality:
    def test_small_values(self):
        assert [n for n in range(2, 50) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        ]

    def test_edge_cases(self):
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)

    def test_agrees_with_a_sieve(self):
        limit = 20_000
        sieve = [False, False] + [True] * (limit - 2)
        for f in range(2, int(limit**0.5) + 1):
            if sieve[f]:
                sieve[f * f :: f] = [False] * len(range(f * f, limit, f))
        assert [is_prime(n) for n in range(limit)] == sieve

    @pytest.mark.parametrize(
        # strong pseudoprimes to the first 4, 11 and 12 prime bases
        "n", [3215031751, 3825123056546413051, 318665857834031151167461],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_mersenne_primes(self):
        assert is_prime(2**31 - 1)
        start = time.perf_counter()
        assert is_prime(2**61 - 1)
        assert time.perf_counter() - start < 0.01

    # a strong pseudoprime to all 13 bases, and a prime past the proven bound
    @pytest.mark.parametrize("n", [3317044064679887385961981, 2**89 - 1])
    def test_past_the_proven_bound_is_refused(self, n):
        with pytest.raises(PreconditionError, match=f"{n} is undecided.*3317044064679887385961981"):
            is_prime(n)

    def test_family_with_an_undecided_prime_is_refused(self):
        with pytest.raises(PreconditionError, match="undecided"):
            family_indices("thm3.3ii", 2**89 - 1, 0)


class TestLegendre:
    def test_examples(self):
        assert legendre(-2, 5) == -1   # squares mod 5 are {1, 4}
        assert legendre(-18, 5) == -1  # -18 = 2 mod 5
        assert legendre(0, 5) == 0
        for p in ODD_PRIMES:
            assert legendre(1, p) == 1

    def test_against_exhaustive_squares(self):
        for p in ODD_PRIMES:
            sq = squares_mod(p)
            for w in range(1, p):
                assert legendre(w, p) == (1 if w in sq else -1)

    def test_rejects_bad_modulus(self):
        with pytest.raises(DomainError):
            legendre(3, 2)
        with pytest.raises(DomainError):
            legendre(3, 9)

    @settings(max_examples=100)
    @given(st.integers(-500, 500), st.sampled_from(ODD_PRIMES))
    def test_depends_only_on_residue(self, w, p):
        assert legendre(w, p) == legendre(w % p, p)

    @settings(max_examples=100)
    @given(st.integers(1, 200), st.integers(1, 200), st.sampled_from(ODD_PRIMES))
    def test_multiplicative(self, a, b, p):
        if a % p and b % p:
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


class TestFamilyIndices:
    def test_v_mod2_family_p5(self):
        got = family_indices("thm3.3ii", 5, 0)
        assert got == [FamilyIndex(50, 10 * j + 19, 2) for j in range(1, 5)]

    def test_v_mod6_family_p5(self):
        got = family_indices("thm3.3iii", 5, 0)
        assert got == [FamilyIndex(150, 30 * j + 119, 6) for j in range(1, 5)]

    def test_sigma_family_p5(self):
        got = family_indices("thm4.3", 5, 0)
        assert got == [FamilyIndex(50, 10 * j + 23, 2) for j in range(1, 5)]

    def test_alpha_scaling(self):
        got = family_indices("thm3.3ii", 5, 1)
        assert got[0].A == 2 * 5**4
        assert got[0].B == 2 * 5**3 + (3 * 5**4 + 1) // 4

    def test_non_qualifying_prime_skipped(self):
        # (-2/3) = +1, so p = 3 never qualifies even though the statement
        # nominally allows p >= 3
        with pytest.raises(PreconditionError):
            family_indices("thm3.3ii", 3, 0)
        # (-18/11): -18 = 4 mod 11 is a square
        with pytest.raises(PreconditionError):
            family_indices("thm3.3iii", 11, 0)

    def test_composite_rejected(self):
        with pytest.raises(PreconditionError):
            family_indices("thm3.3ii", 15, 0)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            family_indices("thm9.9", 5, 0)

    def test_offsets_integral_for_qualifying_primes(self):
        for family in ("thm3.3ii", "thm3.3iii", "thm4.3"):
            for p in qualifying_primes(family, 50):
                for alpha in range(3):
                    for ix in family_indices(family, p, alpha):
                        assert ix.B > 0 and ix.A > 0


class TestQualifyingPrimes:
    def test_minus_two_scan(self):
        assert qualifying_primes("thm3.3ii", 30) == [5, 7, 13, 23, 29]

    def test_minus_eighteen_scan(self):
        got = qualifying_primes("thm3.3iii", 30)
        assert 5 in got and 11 not in got
