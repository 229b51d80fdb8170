"""Partition counters: enumeration oracles against generating functions."""

import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qseries import partitions
from qseries.mock import mock_series
from qseries.partitions import (
    PartitionRuleSet,
    ResidueRule,
    RULESETS,
    count_dp,
    count_signed,
    iter_colored_partitions,
    theta_stream,
)
from qseries.products import PochhammerSpec, eta, phi, psi
from qseries.series import SeriesError, TruncatedSeries
from references import (
    colored_partitions_brute,
    distinct_colored_brute,
    overpartition_r,
    overpartitions_brute,
    p_classic,
    p_r,
    p_rd,
    partitions_brute,
    pochhammer_by_binomials,
    regular4,
    regular_brute,
)

P_FIRST = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


class TestRuleSetConstruction:
    def test_empty_rule_tuple_rejected(self):
        with pytest.raises(ValueError):
            PartitionRuleSet(())
        with pytest.raises(ValueError):
            PartitionRuleSet.from_map(0, {})

    def test_from_map_defaults(self):
        rs = PartitionRuleSet.from_map(3, {0: (2, True, False)})
        # callers read the rule for a part v as rules[v % len(rules)]
        assert rs.rules == (ResidueRule(2, True), ResidueRule(), ResidueRule())

    def test_negative_colors_rejected(self):
        with pytest.raises(ValueError):
            ResidueRule(colors=-1)


class TestCountSigned:
    def test_empty_partition(self):
        for rs in RULESETS.values():
            assert count_signed(rs, 0) == [1]

    def test_negative_is_zero(self):
        # no size 0..bound to count at a negative bound
        assert count_signed(RULESETS["thm3.2"], -1) == []

    def test_v_ruleset_head(self):
        # cross-checked against the odd part of v(q); equality is the
        # interpretation theorem for v
        counts = count_signed(RULESETS["thm3.2"], 5)
        assert counts == [1, 1, 3, 4, 6, 9]
        v = mock_series("v", 12)
        assert counts == [v.coefficient(2 * n + 1) for n in range(6)]

    def test_lambda_ruleset_head(self):
        counts = count_signed(RULESETS["thm6.1"], 3)
        assert counts == [1, 3, 6, 11]
        lam = mock_series("lambda", 7)
        assert counts == [lam.coefficient(2 * n) for n in range(4)]

    def test_unrestricted_is_p(self):
        assert count_signed(RULESETS["unrestricted"], 8) == P_FIRST[:9]

    def test_iterator_consistent(self):
        signed_unrestricted = PartitionRuleSet.from_map(1, {0: (1, False, True)})
        for rs in [*RULESETS.values(), signed_unrestricted]:
            counts = count_signed(rs, 13)
            for n in range(14):
                total = sum(sign for _, sign in iter_colored_partitions(rs, n))
                assert total == counts[n]

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.builds(ResidueRule, st.integers(0, 2), st.booleans(), st.booleans()),
            min_size=1, max_size=8,
        ),
        st.integers(0, 14),
    )
    def test_one_walk_equals_the_product_and_the_listing(self, rules, bound):
        rs = PartitionRuleSet(tuple(rules))
        counts = count_signed(rs, bound)
        assert counts == count_dp(rs, bound + 1).coefficients()
        # iter_colored_partitions walks each n on its own
        assert counts == [
            sum(sign for _, sign in iter_colored_partitions(rs, n)) for n in range(bound + 1)
        ]

    # the nodes the walk visits for each registry rule set at the claims'
    # bound 25: with every sign dropped, each node adds 1
    NODES_AT_25 = {"thm3.2": 27_638, "thm4.2": 58_199, "thm5.2": 40_560, "thm6.1": 106_269}

    @pytest.mark.parametrize("name", sorted(NODES_AT_25))
    def test_walk_visits_each_colored_partition_once(self, name):
        unsigned = PartitionRuleSet(
            tuple(ResidueRule(r.colors, r.distinct, False) for r in RULESETS[name].rules)
        )
        nodes = sum(count_signed(unsigned, 25))
        assert nodes == self.NODES_AT_25[name]
        # the unsigned product counts every colored partition of size <= 25 once
        assert nodes == sum(count_dp(unsigned, 26).coefficients())

    # the Python calls the walk makes at bound 25: only a node with room for
    # a later part is called to walk its children
    CALLS_AT_25 = {"thm3.2": 5_349, "thm4.2": 11_264, "thm5.2": 7_809, "thm6.1": 19_902}

    @pytest.mark.parametrize("name", sorted(CALLS_AT_25))
    def test_walk_calls_only_nodes_with_children(self, name):
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == count_signed.__code__.co_filename:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            count_signed(RULESETS[name], 25)
        finally:
            sys.setprofile(None)
        assert calls[0] == "count_signed"
        assert len(calls) - 1 == self.CALLS_AT_25[name]

    def test_cost_is_in_parts_not_in_the_bound(self):
        # the only parts are the multiples of 100: the walk keeps nothing
        # sized by the bound beside the list it returns
        rs = PartitionRuleSet((ResidueRule(1),) + (ResidueRule(0),) * 99)
        tracemalloc.start()
        try:
            counts = count_signed(rs, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == count_dp(rs, 2001).coefficients()
        assert peak <= 2 * sys.getsizeof(counts)

    def test_iterator_depth_is_not_n(self):
        # the walk recurses once per distinct part, so n = 400 is no RecursionError
        parts, sign = next(iter_colored_partitions(RULESETS["thm6.1"], 400))
        assert sum(value * mult for value, _, mult in parts) == 400

    def test_iterator_materialises_colors(self):
        rs = RULESETS["thm3.2"]
        seen = set(parts for parts, _ in iter_colored_partitions(rs, 2))
        assert ((1, 0, 2),) in seen           # 1+1
        assert ((2, 0, 1),) in seen           # 2 in first color
        assert ((2, 1, 1),) in seen           # 2 in second color
        assert len(seen) == 3


class TestCountDp:
    @pytest.mark.parametrize("name", ["thm3.2", "thm4.2", "thm5.2", "thm6.1"])
    def test_matches_enumeration(self, name):
        rs = RULESETS[name]
        assert count_signed(rs, 25) == count_dp(rs, 26).coefficients()

    def test_unrestricted_is_partition_series(self):
        assert count_dp(RULESETS["unrestricted"], 30).coefficients() == [
            p_classic(n) for n in range(30)
        ]

    def test_distinct_signed_is_pentagonal(self):
        assert count_dp(RULESETS["distinct.signed"], 60) == eta(1, 60)

    def test_signed_unrestricted_class(self):
        # a non-distinct signed class contributes 1/(1+q^v) per color
        rs = PartitionRuleSet.from_map(1, {0: (1, False, True)})
        assert count_signed(rs, 14) == count_dp(rs, 15).coefficients()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(RULESETS)), st.integers(0, 300))
    def test_equals_the_binomial_product_of_its_classes(self, name, order):
        assert count_dp(RULESETS[name], order) == classes_by_binomials(RULESETS[name], order)

    @pytest.mark.parametrize("name", sorted(RULESETS))
    def test_equals_the_binomial_product_at_depth(self, name):
        assert count_dp(RULESETS[name], 1000) == classes_by_binomials(RULESETS[name], 1000)


def classes_by_binomials(ruleset, order):
    """Per part value v and color: 1/(1 - q^v) for an ordinary part,
    1 + q^v for a distinct one, and the sign of q^v flipped when the class
    is signed by its number of parts."""
    if order <= 0:
        return TruncatedSeries.zero(order)
    m = len(ruleset.rules)
    out = [1] + [0] * (order - 1)
    for a, rule in enumerate(ruleset.rules):
        if rule.colors:
            plus = rule.distinct != rule.signed_by_count  # the factor has 1 + q^v
            power = rule.colors if rule.distinct else -rule.colors
            pochhammer_by_binomials(out, PochhammerSpec(-1 if plus else 1, a or m, m), power)
    return TruncatedSeries(0, out, order)


class TestClassicalFamilies:
    def test_p_classic_head(self):
        assert [p_classic(n) for n in range(11)] == P_FIRST

    def test_p_classic_matches_enumeration(self):
        assert [p_classic(n) for n in range(26)] == [partitions_brute(n) for n in range(26)]

    def test_p_classic_matches_series(self):
        series = p_r(1, 300)
        assert series.coefficients() == [p_classic(n) for n in range(300)]

    def test_p_classic_negative(self):
        assert p_classic(-4) == 0

    def test_p_r_rejects_zero(self):
        with pytest.raises(SeriesError):
            p_r(0, 10)

    def test_p_r_negative_one_is_pentagonal(self):
        assert p_r(-1, 80) == eta(1, 80)

    def test_p_r_negative_two_signed_enumeration(self):
        series = p_r(-2, 21)
        assert series.coefficients() == [
            distinct_colored_brute(n, 2, signed=True) for n in range(21)
        ]

    def test_p_r_colored_enumeration(self):
        series = p_r(3, 13)
        assert series.coefficients() == [colored_partitions_brute(n, 3) for n in range(13)]

    def test_overpartitions(self):
        series = overpartition_r(1, 16)
        assert series.coefficients(4) == [1, 2, 4, 8]
        assert series.coefficients() == [overpartitions_brute(n) for n in range(16)]

    def test_overpartitions_two_copies(self):
        series = overpartition_r(2, 13)
        assert series.coefficients() == [overpartitions_brute(n, 2) for n in range(13)]

    def test_distinct_two_copies(self):
        series = p_rd(2, 16)
        assert series.coefficients(4) == [1, 2, 3, 6]
        assert series.coefficients() == [distinct_colored_brute(n, 2) for n in range(16)]

    def test_regular4(self):
        series = regular4(26)
        assert series.coefficient(4) == 4
        assert series.coefficients() == [regular_brute(n, 4) for n in range(26)]

    def test_ramanujan_congruences(self):
        for mod, shift in ((5, 4), (7, 5), (11, 6)):
            for n in range(150):
                assert p_classic(mod * n + shift) % mod == 0


class TestThetaStream:
    def test_jacobi_scaled(self):
        s = theta_stream("JACOBI", 3, 20)  # a kind is read case-blind
        assert [s.coefficient(e) for e in (0, 3, 9, 18)] == [1, -3, 5, -7]
        assert all(s.coefficient(e) == 0 for e in range(20) if e not in (0, 3, 9, 18))

    def test_pentagonal_is_eta(self):
        assert theta_stream("pentagonal", 1, 100) == eta(1, 100)

    def test_square_phi_stream(self):
        s = theta_stream("phi", 3, 90)
        assert s == phi(30).alternate().substitute(3)

    def test_psi_stream(self):
        s = theta_stream("psi", 2, 30)
        assert [e for e, _ in s.nonzero_items()] == [0, 2, 6, 12, 20]

    @pytest.mark.parametrize("scale", range(1, 7))
    @pytest.mark.parametrize("order", [0, 1, 7, 50, 101])
    def test_every_kind_equals_its_eta_or_substitution(self, scale, order):
        sub = -(-order // scale)
        expected = {
            "pentagonal": eta(scale, order),
            "jacobi": eta(scale, order) ** 3,
            "phi": phi(sub).alternate().substitute(scale).truncate(order),
            "psi": psi(sub).substitute(scale).truncate(order),
        }
        for kind, series in expected.items():
            assert theta_stream(kind, scale, order) == series, kind

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            theta_stream("cubes", 1, 10)

    def test_each_kind_calls_the_generator_bound_on_the_module(self, monkeypatch):
        # a wrapper rebound on the module, as a tracer installs, sees every call
        calls = []

        def spy(name):
            return lambda *args: calls.append((name, args))

        for name in ("eta", "jacobi_cube", "theta_f"):
            monkeypatch.setattr(partitions, name, spy(name))
        expected = {
            "pentagonal": ("eta", (2, 9)),
            "jacobi": ("jacobi_cube", (9, 2)),
            "phi": ("theta_f", (-1, 2, -1, 2, 9)),
            "psi": ("theta_f", (1, 2, 1, 6, 9)),
        }
        assert set(expected) == set(partitions.THETA_STREAMS)
        for kind, call in expected.items():
            calls.clear()
            theta_stream(kind, 2, 9)
            assert calls == [call], kind
