"""Mock theta coefficient streams: Hecke-type, incremental and reference
routes, frozen head coefficients, valuation schedules, structural relations.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from qseries import mock as mock_mod
from qseries.mock import (
    MockThetaId,
    _incremental,
    mock_series,
    mock_series_reference,
    valuation_schedule,
)
from qseries.products import eta_quotient, pochhammer, PochhammerSpec
from qseries.series import TruncatedSeries, div_binomial, mul_binomial

# frozen from the reference (from-scratch Pochhammer) route
HEADS = {
    MockThetaId.MU: [1, -1, 1, 2, -1, -4, 1, 5, -2, -5, 4, 7, -4, -11, 3, 13],
    MockThetaId.SIGMA: [0, 1, 1, 2, 3, 3, 5, 7, 8, 11, 14, 17, 22, 28, 33, 41],
    MockThetaId.BETA: [0, 1, 1, 2, 2, 3, 3, 5, 5, 7, 7, 10, 11, 14, 15, 19],
    MockThetaId.LAMBDA: [1, -1, 3, -5, 6, -7, 11, -16, 18, -21, 30, -40, 47, -56, 72, -92],
    MockThetaId.V: [0, 1, 1, 1, 2, 3, 3, 4, 5, 6, 8, 9, 11, 14, 16, 19],
    MockThetaId.NU: [0, 1, 3, 5, 8, 14, 22, 33, 51, 74, 105, 151, 210, 289, 398, 537],
    MockThetaId.PHI6: [1, -1, 2, -1, 1, -3, 3, -3, 4, -4, 6, -6, 5, -9, 11, -10],
    MockThetaId.PSI6: [0, 1, -1, 1, -2, 3, -2, 2, -4, 5, -5, 5, -7, 9, -8, 9],
}


@pytest.mark.parametrize("mock_id", list(MockThetaId))
def test_frozen_heads(mock_id):
    assert mock_series(mock_id, 16).coefficients() == HEADS[mock_id]


@pytest.mark.parametrize("mock_id", list(MockThetaId))
def test_incremental_matches_reference(mock_id):
    assert _incremental(mock_id, 100) == mock_series_reference(mock_id, 100)


@pytest.mark.parametrize("mock_id", list(MockThetaId))
def test_mock_series_matches_reference(mock_id):
    assert mock_series(mock_id, 100) == mock_series_reference(mock_id, 100)


HECKE = [MockThetaId.LAMBDA, MockThetaId.NU]


@pytest.mark.parametrize("mock_id", HECKE)
def test_hecke_route_matches_incremental_deep(mock_id):
    assert _incremental(mock_id, 3000) == mock_series(mock_id, 3000)


@pytest.fixture
def empty_cache(monkeypatch):
    """Start the memo of expansions empty, and put the old one back after."""
    monkeypatch.setattr(mock_mod, "_cache", {})


def extended_once(mock_id: MockThetaId, order: int) -> TruncatedSeries:
    """The stream below ``order``: a fresh expansion to half the order,
    extended once, cache untouched."""
    if mock_id in mock_mod._HECKE:
        return mock_mod._hecke(mock_id, mock_mod._hecke(mock_id, None, order // 2), order)
    return mock_mod._nested(mock_id, *mock_mod._nested(mock_id, None, None, order // 2), order)[0]


def test_nu_route_at_every_small_order(empty_cache):
    # a fresh expansion to half the order extended once, and the cached
    # expansion extended by one order at a time
    deep = _incremental(MockThetaId.NU, 300)
    for order in range(301):
        assert extended_once(MockThetaId.NU, order) == deep.truncate(order), order
        assert mock_mod._compute(MockThetaId.NU, order) == deep.truncate(order), order


@pytest.mark.parametrize("mock_id", list(MockThetaId))
def test_incremental_at_every_small_order(mock_id):
    # every order at or below the first term's valuation, and each valuation
    # gap of the nested sum, taken on its own, fresh and extended once
    for order in range(41):
        assert _incremental(mock_id, order) == mock_series_reference(mock_id, order), order
    deep = _incremental(mock_id, 400)
    for order in range(401):
        assert extended_once(mock_id, order) == deep.truncate(order), order


@pytest.mark.parametrize("mock_id", list(MockThetaId))
def test_nested_sum_keeps_windows_only_for_the_streams_it_resumes(mock_id):
    # _compute extends lambda and nu through _hecke, so their nested sum,
    # run only as a fresh cross-check, keeps none of its O(order^2) windows
    levels = mock_mod._nested(mock_id, None, None, 400)[1]
    assert any(map(any, levels)) == (mock_id not in HECKE)


def test_lambda_route_at_its_row_boundaries(empty_cache):
    # row n of the lambda numerator starts at q^(n(n+3)/2)
    deep = _incremental(MockThetaId.LAMBDA, 40 * 43 // 2 + 2)
    orders = {0, 1} | {n * (n + 3) // 2 + d for n in range(41) for d in (-1, 0, 1)}
    for order in sorted(o for o in orders if o >= 0):
        assert extended_once(MockThetaId.LAMBDA, order) == deep.truncate(order), order
        assert mock_mod._compute(MockThetaId.LAMBDA, order) == deep.truncate(order), order


@pytest.mark.parametrize("name", ["lambda", "nu"])
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 800), st.integers(0, 800))
def test_hecke_route_truncation_property(name, x, y):
    big, small = max(x, y), min(x, y)
    saved = dict(mock_mod._cache)
    try:
        mock_mod._cache.clear()
        deep = mock_series(name, big)
        mock_mod._cache.clear()
        assert deep.truncate(small) == mock_series(name, small)
    finally:
        mock_mod._cache.clear()
        mock_mod._cache.update(saved)


def fresh(mock_id: MockThetaId, order: int) -> TruncatedSeries:
    """The stream below ``order`` expanded from nothing, cache untouched."""
    if mock_id in mock_mod._HECKE:
        return mock_mod._hecke(mock_id, None, order)
    return mock_mod._nested(mock_id, None, None, order)[0]


REFERENCE_ORDER = 60


@cache
def reference(mock_id: MockThetaId) -> TruncatedSeries:
    return mock_series_reference(mock_id, REFERENCE_ORDER)


@st.composite
def ramps(draw):
    """Steps (id, order) and the step before which the memo is emptied: per
    id a nondecreasing run of orders, among them 0, 1, a term's valuation
    and its neighbours, and repeats; the ids' runs interleaved."""
    runs = {}
    for mock_id in MockThetaId:
        near = st.builds(
            lambda n, d, m=mock_id: max(valuation_schedule(m, n) + d, 0),
            st.integers(0, 12), st.sampled_from([-1, 0, 1]),
        )
        orders = draw(st.lists(
            st.one_of(st.sampled_from([0, 1]), near, st.integers(0, 400)), max_size=6
        ))
        runs[mock_id] = sorted(orders + orders[: draw(st.integers(0, 2))])  # a repeat or two
    turns = draw(st.permutations([m for m, orders in runs.items() for _ in orders]))
    steps = [(m, runs[m].pop(0)) for m in turns]
    return steps, draw(st.integers(0, len(steps)))


@settings(max_examples=40, deadline=None)
@given(ramps())
def test_every_step_of_a_ramp_equals_a_fresh_expansion(ramp):
    steps, clear_at = ramp
    saved = mock_mod._cache
    mock_mod._cache = {}
    try:
        for i, (mock_id, order) in enumerate(steps):
            if i == clear_at:
                mock_mod._cache.clear()
            got = mock_series(mock_id, order)
            assert got == fresh(mock_id, order), (mock_id, order)
            low = min(order, REFERENCE_ORDER)
            assert got.truncate(low) == reference(mock_id).truncate(low), (mock_id, order)
    finally:
        mock_mod._cache = saved


@pytest.mark.parametrize("mock_id", list(MockThetaId))
@pytest.mark.parametrize("big,small", [(50, 17), (200, 50)])
def test_truncation_stability(mock_id, big, small):
    assert mock_series(mock_id, big).truncate(small) == mock_series(mock_id, small)


class TestValuationSchedule:
    def test_examples(self):
        assert valuation_schedule(MockThetaId.V, 3) == 16
        assert valuation_schedule(MockThetaId.BETA, 0) == 1
        assert valuation_schedule(MockThetaId.LAMBDA, 7) == 7

    @pytest.mark.parametrize("mock_id", list(MockThetaId))
    def test_strictly_increasing(self, mock_id):
        values = [valuation_schedule(mock_id, n) for n in range(50)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            valuation_schedule(MockThetaId.MU, -1)

    @pytest.mark.parametrize("mock_id", list(MockThetaId))
    def test_name_and_id_agree(self, mock_id):
        for n in range(50):
            assert valuation_schedule(mock_id.value, n) == valuation_schedule(mock_id, n)

    def test_name_lookup(self):
        assert valuation_schedule("mu", 3) == 9
        with pytest.raises(KeyError):
            valuation_schedule("omega", 3)


@pytest.mark.parametrize("mock_id", list(MockThetaId))
def test_step_factors_rebuild_each_reference_term(mock_id):
    # the table's factors, applied from term 0 up, give each term of the sum
    order = 200
    sign = mock_mod._TERMS[mock_id][0]
    quotient = [1] + [0] * (order - 1)
    for n in range(12):
        nums, dens = mock_mod._step_factors(mock_id, n)
        for e, c in nums:
            mul_binomial(quotient, e, c)
        for e, c in dens:
            div_binomial(quotient, e, c)
        val = valuation_schedule(mock_id, n)
        term = TruncatedSeries(0, ([0] * val + quotient)[:order], order)
        assert term.scale(sign**n) == mock_mod.mock_term_reference(mock_id, n, order), n


class TestAccessors:
    def test_name_lookup(self):
        assert MockThetaId.from_name("LAMBDA") is MockThetaId.LAMBDA
        with pytest.raises(KeyError):
            MockThetaId.from_name("omega")

    def test_coefficient_convention(self):
        assert mock_series("v", 6).coefficient(5) == 3

    def test_cache_grows_consistently(self):
        # requests in any order must agree; the memo only ever grows
        a = mock_series("nu", 37)
        b = mock_series("nu", 120)
        c = mock_series("nu", 80)
        assert b.truncate(37) == a
        assert b.truncate(80) == c


class TestStructuralRelations:
    def test_mu_shifted_plus_four_v(self):
        # mu(-q^2) + 4 v(q) as two Pochhammer-product terms
        order = 400

        def poch(sign, a, step):
            return pochhammer(PochhammerSpec(sign, a, step), order)

        lhs = mock_series("mu", order // 2).alternate().substitute(2) + mock_series(
            "v", order
        ).scale(4)
        t1 = (
            poch(1, 4, 4) * poch(-1, 2, 4) ** 3
            / (poch(1, 2, 4) ** 2 * poch(-1, 4, 4) ** 2)
        )
        t2 = (
            poch(1, 8, 8) * poch(-1, 4, 4) / (poch(1, 4, 8) * poch(1, 2, 4))
        ).shift(1).scale(4)
        agree, diff = lhs.truncate(order).agrees_with(t1 + t2)
        assert agree, diff

    def test_nu_even_part_vs_sigma_twist(self):
        order = 400
        lhs = mock_series("nu", order // 2).substitute(2) - mock_series(
            "sigma", order
        ).alternate()
        rhs = eta_quotient({4: 2, 12: 2, 2: -2, 6: -1}, order - 1).shift(1)
        agree, diff = lhs.truncate(order - 1).agrees_with(rhs)
        assert agree, diff

    def test_sixth_order_triple_relation(self):
        order = 400
        sub = -(-order // 3) + 1
        lhs = (
            mock_series("phi6", sub).substitute(3)
            + mock_series("psi6", sub).substitute(3).shift(-1).scale(2)
            + mock_series("beta", order).scale(2)
        )
        rhs = eta_quotient({2: 1, 3: 5, 1: -2, 6: -3}, order)
        agree, diff = lhs.truncate(order - 1).agrees_with(rhs)
        assert agree, diff

    def test_twist_matches_resummation(self):
        # sign twisting the finished series equals summing with -q substituted
        order = 60
        twisted = mock_series("sigma", order).alternate()
        resummed = TruncatedSeries.zero(order)
        n = 0
        while valuation_schedule(MockThetaId.SIGMA, n) < order:
            # sigma(-q) term n: (-q)^((n+1)(n+2)/2) (q... with alternating signs
            # handled by building the term at q and twisting it; independence
            # comes from the reference Pochhammer route
            from qseries.mock import mock_term_reference

            resummed = resummed + mock_term_reference(
                MockThetaId.SIGMA, n, order
            ).alternate()
            n += 1
        assert twisted == resummed
