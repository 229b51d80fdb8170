"""Growth contracts: how an operation count grows with the size of its input.

Each contract counts operations through a monkeypatched wrapper at two
sizes and bounds the ratio of the two counts by the complexity the code
states.  A contract bounds a ratio of counts, never a wall time.
"""

from functools import partial

import pytest

from qseries import expr as expr_mod
from qseries import mock as mock_mod
from qseries import products
from qseries import series as series_mod
from qseries.claims import MAX_ORDER, within_cap
from qseries.expr import parse_expr
from qseries.mock import MockThetaId
from qseries.partitions import RULESETS, count_dp
from qseries.products import EtaQuotientSpec, PochhammerSpec
from counting import kernel_elements, pass_work
from references import eta_quotient_flat, mock_incremental

# trees of the given depth: a left-leaning product chain and a sum of d terms
TREES = {
    "product": lambda d: "*".join(["mock(v)"] + ["l(1)"] * (d - 1)),
    "sum": lambda d: "+".join(["mock(v)"] * d),
}


def planner_visits(text: str) -> int:
    """How often the bottom-up pass ``expr._facts`` runs while ``text`` is
    planned at order 3 and capped, as the commands plan and cap a read."""
    node = parse_expr(text)
    calls = 0
    real = expr_mod._facts

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr_mod, "_facts", counted)
        within_cap([(node, 3)], MAX_ORDER)
    return calls


@pytest.mark.parametrize("shape", TREES)
def test_planning_is_linear_in_depth(shape):
    # expr.plan visits each node once bottom-up, so a tree four times as deep,
    # with four times the nodes, costs four times the visits (199 and 799 here)
    small, big = (planner_visits(TREES[shape](d)) for d in (100, 400))
    assert big <= 4.5 * small


POCH = PochhammerSpec(1, 1, 1)  # poch(q,1) = (q;q)_inf
# Nested Euler and Cauchy sums: O(sqrt(N)) levels of O(N) work each, so twice
# the order costs about 2^1.5 = 2.83 times the work (2.86-2.91 measured, the
# level count rounding up; an O(N^2) sum reads 4).  lambda and nu are left
# out: their fresh nested sum is O(N^2) (references.mock_incremental).
SUMS = {
    "eta_quotient poch(q,1)^1": lambda n: products.eta_quotient(EtaQuotientSpec({}, {POCH: 1}), n),
    "eta_quotient poch(q,1)^-1": lambda n: products.eta_quotient(EtaQuotientSpec({}, {POCH: -1}), n),
    "count_dp thm6.1": lambda n: count_dp(RULESETS["thm6.1"], n),
    "count_dp thm3.2": lambda n: count_dp(RULESETS["thm3.2"], n),
    **{
        f"_incremental {m.value}": partial(mock_incremental, m)
        for m in (MockThetaId.MU, MockThetaId.SIGMA, MockThetaId.BETA,
                  MockThetaId.V, MockThetaId.PHI6, MockThetaId.PSI6)
    },
}


@pytest.mark.parametrize("name", SUMS)
def test_nested_sums_grow_as_n_to_the_one_and_a_half(name):
    small, big = (kernel_elements(SUMS[name], n) for n in (1000, 2000))
    assert small > 0
    assert big <= 3.0 * small, (small, big, big / small)


NESTED = (MockThetaId.MU, MockThetaId.SIGMA, MockThetaId.BETA,
          MockThetaId.V, MockThetaId.PHI6, MockThetaId.PSI6)


def ramp(mock_id: MockThetaId, n: int) -> None:
    """Read the stream at n/2 and then at n, from an empty memo."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mock_mod, "_cache", {})
        mock_mod.mock_series(mock_id, n // 2)
        mock_mod.mock_series(mock_id, n)


# A read at 2N after one at N extends the cached expansion over the new
# coefficients only, so the two reads together touch about what one fresh
# expansion to 2N does (0.97-1.00 measured at N = 1000).  Recomputing from
# q^0 read 1 + 2^-1.5, about 1.35.
@pytest.mark.parametrize("mock_id", NESTED, ids=[m.value for m in NESTED])
def test_extending_a_nested_sum_costs_one_fresh_expansion(mock_id):
    extended = kernel_elements(partial(ramp, mock_id), 2000)
    fresh = kernel_elements(partial(mock_mod._nested, mock_id, None, None), 2000)
    assert fresh > 0
    assert extended <= 1.2 * fresh, (extended, fresh, extended / fresh)


@pytest.mark.parametrize("mock_id", [MockThetaId.LAMBDA, MockThetaId.NU], ids=["lambda", "nu"])
def test_extending_a_hecke_quotient_pulls_only_the_new_range(mock_id):
    pulled = []
    real = series_mod.pull_quotient

    def recording(out, num, den):
        pulled.append((len(out), len(num)))
        return real(out, num, den)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mock_mod, "pull_quotient", recording)
        ramp(mock_id, 2000)
    assert pulled == [(0, 1000), (1000, 2000)]


EQ24 = {2: 5, 1: -2, 4: -2}  # eq2.4's rhs l(2)^5/(l(1)^2 l(4)^2), grids 1, 2 and 4
# count_dp's product for thm5.2: one Pochhammer factor per residue class mod 6
THM52 = EtaQuotientSpec({}, {
    PochhammerSpec(1, 1, 6): -1, PochhammerSpec(1, 3, 6): -1, PochhammerSpec(1, 5, 6): -1,
    PochhammerSpec(1, 2, 6): -2, PochhammerSpec(1, 4, 6): -2, PochhammerSpec(1, 6, 6): 1,
})


# eta_quotient expands the factors on a grid d at a d-th of the order, so it
# does less pass work than the one-level loop that runs every factor at full
# length (at N = 1000: 207 500 against 339 000 for eq2.4, 161 120 against
# 241 328 for thm5.2)
def test_grid_by_grid_cuts_the_pass_work_of_eq2_4():
    new, flat = (
        pass_work(partial(f, EQ24), 1000) for f in (products.eta_quotient, eta_quotient_flat)
    )
    assert new <= 0.65 * flat, (new, flat, new / flat)


def test_grid_by_grid_cuts_the_pass_work_of_count_dp():
    assert count_dp(RULESETS["thm5.2"], 300) == eta_quotient_flat(THM52, 300)  # the same product
    new = pass_work(partial(count_dp, RULESETS["thm5.2"]), 1000)
    flat = pass_work(partial(eta_quotient_flat, THM52), 1000)
    assert new <= 0.75 * flat, (new, flat, new / flat)


# eq2.8.phineg's rhs l(1)^2/l(2): expanding 1/l(2) in q^2 first would cost
# the free first multiplication by l(1) (120 500 against 89 000 at N = 1000),
# so the estimate keeps it flat
def test_a_denominator_grid_costs_no_free_multiplication():
    new, flat = (
        pass_work(partial(f, {1: 2, 2: -1}), 1000) for f in (products.eta_quotient, eta_quotient_flat)
    )
    assert new <= flat, (new, flat)


# each pass over a sparse pentagonal series is O(N^1.5) (about sqrt(N) terms
# times N), so twice the order costs about 2^1.5 = 2.83 times the work
# (207 500 and 584 000, 2.81)
def test_eta_quotient_passes_grow_as_n_to_the_one_and_a_half():
    small, big = (pass_work(partial(products.eta_quotient, EQ24), n) for n in (1000, 2000))
    assert small > 0
    assert big <= 3.0 * small, (small, big, big / small)
