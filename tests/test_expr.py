"""Claim-language parser, printer round-trips, and evaluation."""

import pytest
from hypothesis import example, given, settings, strategies as st

from qseries import expr as expr_mod
from qseries import mock as mock_mod
from qseries import partitions, products
from qseries.claims import registry, registry_by_id
from qseries.expr import (
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_NESTING,
    Alt,
    Ap,
    BinOp,
    Eta,
    Lit,
    Mock,
    Mono,
    ParseError,
    Pow,
    RulesetRef,
    Subst,
    Theta,
    UnknownSymbolError,
    eval_expr,
    parse_expr,
    plan,
    run,
    to_text,
    widest,
)
from qseries.products import PochhammerSpec, eta, eta_quotient, pochhammer
from qseries.series import NonUnitError, SeriesError, TruncatedSeries, format_series
from references import leaf_demands


class TestParse:
    def test_quotient_shape(self):
        node = parse_expr("l(4)^3 / (l(1)*l(2))")
        assert isinstance(node, BinOp) and node.op == "/"
        assert node.left == Pow(Eta(4), 3)
        assert node.right == BinOp("*", Eta(1), Eta(2))

    def test_extraction_shape(self):
        node = parse_expr("AP(mock(v), 2, 1)")
        assert node == Ap(Mock("v"), 2, 1)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("l(")
        assert err.value.position == 2

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse_expr("zeta(3)")
        with pytest.raises(UnknownSymbolError):
            parse_expr("mock(omega)")
        with pytest.raises(UnknownSymbolError):
            parse_expr("stream(cubes,1)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match=r"^unexpected character '\$' at offset 5$"):
            parse_expr("l(1) $")

    def test_trailing_whitespace(self):
        assert parse_expr("l(1)   ") == Eta(1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("l(1) l(2)")

    # a character no token starts with, at offset 0, in the middle, right after
    # a token and before trailing blanks; "_" and "." may only follow a name's
    # first letter, and a non-ASCII letter starts no name
    @pytest.mark.parametrize("char", ["$", "_", ".", "é"])
    @pytest.mark.parametrize(
        "template, offset",
        [
            ("{c}l(1)", 0),
            ("l(1) + {c} l(2)", 7),
            ("l(1){c}", 4),
            ("2{c}", 1),
            ("l(1)+{c}l(2)", 5),
            ("l(1) {c}  ", 5),
        ],
    )
    def test_bad_character_is_reported_at_its_offset(self, char, template, offset):
        with pytest.raises(ParseError) as err:
            parse_expr(template.format(c=char))
        assert str(err.value) == f"unexpected character {char!r} at offset {offset}"
        assert err.value.position == offset

    # a tab is a blank like a space, wherever it stands
    @pytest.mark.parametrize(
        "text, node",
        [
            ("\tl(1)", Eta(1)),
            ("l(1) + \t l(2)", BinOp("+", Eta(1), Eta(2))),
            ("l(1)\t", Eta(1)),
            ("l(1)+\tl(2)", BinOp("+", Eta(1), Eta(2))),
            ("l(1) \t  ", Eta(1)),
        ],
    )
    def test_tab_is_a_blank(self, text, node):
        assert parse_expr(text) == node

    def test_bad_character_after_a_tab(self):
        with pytest.raises(ParseError) as err:
            parse_expr("l(1)\t$")
        assert (str(err.value), err.value.position) == ("unexpected character '$' at offset 5", 5)

    # no token at all: the parser reads the end, which is the text's length
    @pytest.mark.parametrize("text", ["", " ", "   ", "\t", "\t \n"])
    def test_empty_or_blank_expression(self, text):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert str(err.value) == f"unexpected '' at offset {len(text)}"
        assert err.value.position == len(text)

    def test_precedence(self):
        node = parse_expr("1 + 2*3^2")
        assert eval_expr(node, 5).coefficient(0) == 19

    def test_negative_monomial_exponent(self):
        assert parse_expr("q^-1") == Mono(-1)

    def test_unary_minus(self):
        node = parse_expr("-q + 1")
        s = eval_expr(node, 5)
        assert s.coefficient(0) == 1 and s.coefficient(1) == -1

    def test_unary_minus_binds_looser_than_power(self):
        minus_square = BinOp("*", Lit(-1), Pow(Eta(1), 2))
        assert parse_expr("-l(1)^2") == minus_square == parse_expr("-(l(1)^2)")
        assert format_series(eval_expr(parse_expr("-l(1)^2"), 3)) == "-1 + 2q + q^2 + O(q^3)"
        assert eval_expr(parse_expr("-2^2"), 1).coefficient(0) == -4


class TestPrinterRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "l(4)^3/(l(1)*l(2))",
            "AP(mock(v),2,1)",
            "SUB(ALT(mock(mu)),2) + 4*mock(v)",
            "q*l(4)^2*l(12)^2/(l(2)^2*l(6))",
            "2*l(6)^3/(l(1)*l(2)) - q^-1*mock(psi6)",
            "poch(-q,4)*poch(-q^3,4)*poch(q^4,4)",
            "f(-q,-q^2)",
            "phi(-q^3)",
            "stream(jacobi,6)",
            "ruleset(thm3.2)",
            "1 - 2 - 3",
            "2^3",
            "(1+q)^-2",
            "(l(2)/l(1))^2",
            "(-l(1))^2",
            "-l(1)^2",
            "-(l(1)^2)",
            "-2^2",
            "--2",
            "l(1)*-l(2)^2",
        ],
    )
    def test_examples(self, text):
        node = parse_expr(text)
        assert parse_expr(to_text(node)) == node

    @pytest.mark.parametrize(
        "text",
        [
            "(l(2)/l(1))^2",
            "(-l(1))^2",
            "(l(1)*l(2))^3",
            "(1 + q)^-2",
            "(l(1)^2)^3",
            "(q^2)^3",
            "3*(l(2)/l(1)^2)^3",
        ],
    )
    def test_power_base_is_parenthesised_once(self, text):
        node = parse_expr(text)
        assert to_text(node) == text
        assert parse_expr(to_text(node)) == node

    def test_registry_expressions(self):
        for claim in registry():
            for node in (claim.lhs, claim.rhs, claim.expr):
                if node is not None:
                    assert parse_expr(to_text(node)) == node

    def test_subtraction_grouping(self):
        # 1 - (2 - 3) must not collapse to 1 - 2 - 3
        node = parse_expr("1 - (2 - 3)")
        assert eval_expr(node, 3).coefficient(0) == 2
        assert parse_expr(to_text(node)) == node


ATOMS = st.one_of(
    st.integers(0, 9).map(Lit),
    st.integers(-3, 6).map(Mono),
    st.integers(1, 12).map(Eta),
    st.sampled_from(["mu", "v", "psi6"]).map(Mock),
)


def negate(node):
    """The node a unary minus in front of ``node`` parses to."""
    return BinOp("*", Lit(-1), node)


def _compound(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(children, st.integers(-3, 4)).map(lambda t: Pow(t[0], t[1])),
        st.tuples(children, st.integers(1, 4), st.integers(0, 3)).map(
            lambda t: Ap(t[0], t[1], min(t[2], t[1] - 1))
        ),
        children.map(negate),
    )


random_exprs = st.recursive(ATOMS, _compound, max_leaves=12)


@settings(max_examples=200)
@given(random_exprs)
def test_roundtrip_random(node):
    assert parse_expr(to_text(node)) == node


class TestThetaAsF:
    """phi(c) = f(c, c) and psi(c) = f(c, c^3), at orders that are not multiples of k."""

    @pytest.mark.parametrize("name", ["phi", "psi"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("order", [0, 1, 7, 50, 101])
    def test_scaled_leaf_equals_its_substitution(self, name, k, order):
        qk = "q" if k == 1 else f"q^{k}"
        at = lambda text: eval_expr(parse_expr(text), order)
        assert at(f"{name}({qk})") == at(f"SUB({name}(q),{k})")
        assert at(f"{name}(-{qk})") == at(f"SUB(ALT({name}(q)),{k})")

    def test_parsed_as_f(self):
        assert parse_expr("phi(-q^3)") == Theta(-1, 3, -1, 3)
        assert parse_expr("psi(q^2)") == Theta(1, 2, 1, 6)
        assert to_text(parse_expr("phi(-q^3)")) == "f(-q^3,-q^3)"
        assert to_text(parse_expr("psi(-q^2)")) == "f(-q^2,-q^6)"

    @pytest.mark.parametrize("text, exponent", [("psi(q^334)", 1002), ("psi(-q^1000)", 3000)])
    def test_psi_beyond_the_exponent_limit_is_rejected(self, text, exponent):
        # psi(q^k) prints as f(q^k,q^3k), so 3k must be within the limit
        with pytest.raises(ParseError, match=f"^exponent {exponent} is beyond the limit") as err:
            parse_expr(text)
        assert err.value.position == 4

    @pytest.mark.parametrize("text", ["psi(q^333)", "phi(-q^1000)"])
    def test_theta_at_the_exponent_limit_round_trips(self, text):
        node = parse_expr(text)
        assert parse_expr(to_text(node)) == node


class TestEval:
    def test_eta_pentagonal(self):
        s = eval_expr(parse_expr("l(1)"), 13)
        assert s.coefficients(13) == eta(1, 13).coefficients()

    def test_sub_matches_eta(self):
        a = eval_expr(parse_expr("SUB(l(1),2)"), 40)
        b = eval_expr(parse_expr("l(2)"), 40)
        agree, diff = a.truncate(40).agrees_with(b)
        assert agree, diff

    def test_beta_quotient_constant(self):
        s = eval_expr(parse_expr("2*l(6)^3/(l(1)*l(2))"), 10)
        assert s.coefficient(0) == 2

    def test_ap_requests_deep_enough(self):
        s = eval_expr(parse_expr("AP(mock(v),2,1)"), 100)
        assert s.order >= 100

    def test_non_unit_divisor(self):
        with pytest.raises(NonUnitError):
            eval_expr(parse_expr("1/(2+q)"), 10)

    def test_unknown_ruleset(self):
        with pytest.raises(UnknownSymbolError) as err:
            parse_expr("ruleset(bogus)")
        assert str(err.value) == "unknown ruleset 'bogus' at offset 0"
        # a node built in code, not parsed, fails when it is evaluated
        with pytest.raises(KeyError):
            eval_expr(RulesetRef("bogus"), 10)

    def test_laurent_monomial(self):
        s = eval_expr(parse_expr("q^-1*mock(psi6)"), 30)
        assert s.coefficient(0) == 1  # psi6 starts at q^1


class TestInputBoundary:
    def test_deep_parentheses(self):
        text = "(" * 3000 + "1" + ")" * 3000
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.position == MAX_NESTING

    def test_deep_unary_minus(self):
        with pytest.raises(ParseError):
            parse_expr("-" * 3000 + "1")

    def test_long_chain_parses_and_evaluates(self):
        text = "+".join(["l(1)"] * 300) + "-" + "*".join(["q"] * 300)
        node = parse_expr(text)
        assert parse_expr(to_text(node)) == node
        assert eval_expr(node, 302) == eta(1, 302).scale(300) - TruncatedSeries.monomial(
            300, 302
        )

    def test_very_long_chain_is_rejected(self):
        with pytest.raises(ParseError, match=f"tree deeper than {MAX_DEPTH}"):
            parse_expr("+".join(["l(1)"] * 3000))

    def test_nesting_at_the_limit_parses(self):
        depth = MAX_NESTING - 1
        node = parse_expr("(" * depth + "q" + ")" * depth)
        assert node == Mono(1)

    @pytest.mark.parametrize(
        "text", ["l(1)^100000000", "q^-100000000", "phi(q^5000)", "SUB(l(1),100000000)"]
    )
    def test_exponent_limit(self, text):
        with pytest.raises(ParseError, match="beyond the limit"):
            parse_expr(text)

    def test_exponent_at_the_limit_parses(self):
        assert parse_expr(f"l(1)^-{MAX_EXPONENT}") == Pow(Eta(1), -MAX_EXPONENT)

    @pytest.mark.parametrize(
        "text",
        [
            "AP(l(1),0,0)", "AP(l(1),3,3)", "SUB(l(1),0)", "l(0)",
            "phi(q^0)", "psi(-q^0)", "poch(q,0)", "poch(q^0,1)", "f(q^0,-q^0)",
            "stream(phi,0)",
        ],
    )
    def test_degenerate_indices(self, text):
        with pytest.raises(ParseError):
            parse_expr(text)


class TestDemandPlan:
    def test_one_plan_node_and_one_table_of_stream_kinds(self):
        # both planning passes build Plan nodes; the theta-stream kinds are partitions.THETA_STREAMS
        assert not hasattr(expr_mod, "_Facts") and not hasattr(partitions, "ThetaStreamKind")

    def test_shift_is_exact(self):
        s = eval_expr(parse_expr("q^-20*mock(v)"), 100)
        assert s.order == 100 and s.valuation == -19  # v(q) starts at q^1
        assert leaf_demands(plan(parse_expr("q^-20*mock(v)"), 100)) == {Mock("v"): 120}

    def test_progression_demand(self):
        node = parse_expr("AP(AP(mock(lambda),6,2),6,2)")
        assert leaf_demands(plan(node, 60)) == {Mock("lambda"): 6 * (6 * 59 + 3 - 1) + 3}

    def test_substitution_demand(self):
        assert leaf_demands(plan(parse_expr("SUB(mock(nu),2)"), 401)) == {Mock("nu"): 201}

    def test_a_zeroth_power_is_the_constant_one(self, monkeypatch):
        # the base is never visited, so its scale 2^(10^8) is never raised
        node = parse_expr("(mock(v)*((2^1000)^1000)^100)^0")
        p = plan(node, 1)
        assert (p.node, p.kids) == (Lit(1), ())
        monkeypatch.setattr(mock_mod, "mock_series", None)
        assert eval_expr(node, 4) == TruncatedSeries.one(4)

    def test_eta_quotient_folds_to_its_factors(self):
        node = parse_expr("3*(l(3)^5/l(6))*(l(2)/l(1)^2)^3")
        assert leaf_demands(plan(node, 400)) == {Eta(1): 400, Eta(2): 400, Eta(3): 400, Eta(6): 400}

    def test_folded_quotient_matches_eta_quotient(self):
        s = eval_expr(parse_expr("-2*q^3*l(6)^3/(q*l(1)*l(2))^2"), 300)
        want = eta_quotient({6: 3, 1: -2, 2: -2}, 299).scale(-2).shift(1)
        assert s.order == 300 and s == want

    def test_divisor_valuation_shifts_the_demand(self):
        # dividing by (q*l(1))^2 shifts by q^-2, so both factors need N + 2
        assert leaf_demands(plan(parse_expr("mock(mu)/(q*l(1))^2"), 50)) == {
            Mock("mu"): 52, Eta(1): 52,
        }
        # a divisor starting at q^0 needs no extra order; its q^2 term shifts
        assert leaf_demands(plan(parse_expr("mock(mu)/(q^2*mock(v)+1)"), 50)) == {
            Mock("mu"): 50, Mock("v"): 48, Lit(1): 50,
        }

    def test_zero_below_valuation_needs_no_leaves(self):
        node = parse_expr("q^40*mock(beta)")
        assert leaf_demands(plan(node, 30)) == {}
        assert eval_expr(node, 30) == TruncatedSeries.zero(30)

    @pytest.mark.parametrize(
        "text, order",
        [
            ("q^2/(l(1)-1)", 2),  # the divisor's constant term cancels
        ],
    )
    def test_unproven_divisor_is_always_checked(self, text, order):
        node = parse_expr(text)
        assert leaf_demands(plan(node, order))  # the divisor is planned, not skipped
        with pytest.raises(NonUnitError):
            eval_expr(node, order)

    def test_mock_leaf_starts_at_its_first_term(self):
        starts = {}
        for m in mock_mod.MockThetaId:
            s = eval_expr(Mock(m.value), 10)
            assert s == mock_mod.mock_series(m, 10) and s.coeffs[0], m
            starts[m.value] = s.valuation
        assert starts == {
            "mu": 0, "sigma": 1, "beta": 1, "lambda": 0, "v": 1, "nu": 1, "phi6": 0, "psi6": 1,
        }

    @pytest.mark.parametrize(
        "text, order, value",
        [
            # v(q) = q + q^2 + ... starts at q^1, so the quotient has a q^1 term
            ("q^2/mock(v)", 2, {1: 1}),
            ("q^2*mock(v)^-1", 2, {1: 1}),
            ("mock(mu)+q^3/mock(v)", 3, {0: 1, 1: -1, 2: 2}),
            ("1/mock(v)", 6, {-1: 1, 0: -1, 2: -1, 4: 1}),
        ],
    )
    def test_mock_divisor_starts_at_its_valuation(self, text, order, value):
        node = parse_expr(text)
        assert leaf_demands(plan(node, order))  # the divisor is planned, not skipped
        s = eval_expr(node, order)
        assert s == TruncatedSeries.from_terms(value, order)
        for deeper in (order + 12, order + 24, order + 40):
            assert eval_expr(node, deeper).truncate(order) == s

    def test_unknown_ruleset_is_never_skipped(self):
        with pytest.raises(KeyError):
            eval_expr(BinOp("*", Mono(5), RulesetRef("bogus")), 3)
        # under ^0, which plans no child, the name is still refused: by the parser
        for text in ("q^5*ruleset(bogus)", "2*ruleset(bogus)^0"):
            with pytest.raises(UnknownSymbolError):
                parse_expr(text)

    def test_unit_divisor_is_checked_below_the_valuation(self, monkeypatch):
        # 1 + v(q) starts with 1, so q^5/(1 + v(q)) is O(q^5); v itself is
        # asked only at its valuation 1, where it is zero and never expanded
        monkeypatch.setattr(mock_mod, "mock_series", None)
        node = parse_expr("q^5/(mock(v)+1)")
        assert leaf_demands(plan(node, 3)) == {Lit(1): 1}
        assert eval_expr(node, 3) == TruncatedSeries.zero(3)

    @pytest.mark.parametrize(
        "text, order",
        [
            ("(q^3/mock(mu))*(q^3/mock(mu))", 4),
            ("(q^5/mock(mu))^2", 8),
            ("(q^5/stream(psi,2))^2", 1),
            ("(q^2/(1+mock(v)))^3", 5),
            ("(q^4/mock(lambda))*l(1)", 3),
        ],
    )
    def test_factor_zero_below_the_order_keeps_its_precision(self, text, order):
        # each factor is asked for at least its valuation, so a zero factor
        # still starts where the plan says and the product reaches the order
        node = parse_expr(text)
        s = eval_expr(node, order)
        assert s.order == order
        assert s == eval_expr(node, order + 12).truncate(order)

    def test_registry_mock_requests_match_the_plan(self, monkeypatch):
        requested: dict[str, int] = {}
        real = mock_mod.mock_series

        def record(name, order):
            requested[name] = max(requested.get(name, order), order)
            return real(name, order)

        monkeypatch.setattr(mock_mod, "mock_series", record)
        for claim in registry():
            if claim.lhs is None or "mock" not in to_text(claim.lhs) + to_text(claim.rhs):
                continue
            requested.clear()
            for node in (claim.lhs, claim.rhs):
                eval_expr(node, 120)
            planned = {}
            for node in (claim.lhs, claim.rhs):
                for leaf, o in leaf_demands(plan(node, 120)).items():
                    if isinstance(leaf, Mock):
                        planned[leaf.name] = max(planned.get(leaf.name, o), o)
            assert requested == planned, claim.id


SMALL_ATOMS = st.one_of(
    st.integers(1, 6).map(Eta),
    st.integers(-4, 4).map(Mono),
    st.sampled_from(["mu", "v", "psi6", "lambda"]).map(Mock),
)


def _small_compound(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(children, st.integers(-2, 3)).map(lambda t: Pow(t[0], t[1])),
        st.tuples(children, st.integers(1, 3), st.integers(0, 2)).map(
            lambda t: Ap(t[0], t[1], min(t[2], t[1] - 1))
        ),
        st.tuples(children, st.integers(1, 3)).map(lambda t: Subst(t[0], t[1])),
        children.map(Alt),
        children.map(negate),
    )


small_exprs = st.recursive(SMALL_ATOMS, _small_compound, max_leaves=6)


def _eval_or_none(node, order):
    try:
        return eval_expr(node, order)
    except SeriesError:  # a divisor without a unit leading coefficient
        return None


@settings(max_examples=150, deadline=None)
@given(small_exprs, st.integers(1, 20))
def test_eval_order_is_exact(node, order):
    small = _eval_or_none(node, order)
    big = _eval_or_none(node, order + 20)
    # an error at one order is an error at every order, never a silent result
    assert (small is None) == (big is None)
    if small is not None:
        assert small.order == order
        assert small == big.truncate(order)


def _plan_nodes(p):
    yield p.node
    for kid in p.kids:
        yield from _plan_nodes(kid)


@settings(max_examples=200, deadline=None)
@given(small_exprs, st.integers(1, 30))
@example(Subst(Mono(-4), 3), 1)  # its leaf q^-4 spans 5, the SUB node 13
def test_cap_bounds_every_series_built(node, order):
    p = plan(node, order)
    # SUB(e, k) substitutes into e at ceil(N/k), k*ceil(N/k) >= N, then truncates
    slack = max([n.power - 1 for n in _plan_nodes(p) if isinstance(n, Subst)], default=0)
    built = []
    real = expr_mod._apply
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr_mod, "_apply", lambda *args: built.append(real(*args)) or built[-1])
        try:
            run(p)
        except SeriesError:  # a divisor without a unit leading coefficient
            pass
    assert built and max(len(s.coeffs) for s in built) <= widest(p) + slack


def unfolded(node, order):
    """A product of integers, q^k, l(k) and poch powers, factor by factor."""
    if isinstance(node, Lit):
        return TruncatedSeries.one(order).scale(node.value)
    if isinstance(node, Mono):
        return TruncatedSeries.monomial(node.k, order)
    if isinstance(node, Eta):
        return eta(node.k, order)
    if isinstance(node, PochhammerSpec):
        return pochhammer(node, order)
    if isinstance(node, Pow):
        return unfolded(node.base, order) ** node.exponent
    left, right = unfolded(node.left, order), unfolded(node.right, order)
    if node.op in "+-":
        return left + right if node.op == "+" else left - right
    return left * right if node.op == "*" else left / right


def poch_factors(node):
    if isinstance(node, PochhammerSpec):
        return {node}
    children = [node.base] if isinstance(node, Pow) else []
    if isinstance(node, BinOp):
        children = [node.left, node.right]
    return set().union(*map(poch_factors, children))


def refuse_pochhammer(*args):
    raise AssertionError("a folded poch factor went through products.pochhammer")


FOLD_SIDES = ["triple.phi", "triple.psi", "triple.fneg", "triple.f15", "eq3.2"]


class TestPochhammerFold:
    @pytest.mark.parametrize("claim_id", FOLD_SIDES)
    def test_folded_side_equals_the_unfolded_product(self, claim_id, monkeypatch):
        node = registry_by_id()[claim_id].rhs
        want = unfolded(node, 400)
        monkeypatch.setattr(products, "pochhammer", refuse_pochhammer)
        assert eval_expr(node, 400) == want

    @pytest.mark.parametrize("claim_id", FOLD_SIDES)
    def test_leaf_demands_list_every_folded_poch(self, claim_id):
        node = registry_by_id()[claim_id].rhs
        pochs = poch_factors(node)
        demands = leaf_demands(plan(node, 400))
        # eq3.2's second term carries a q, so the factors only it has are asked for 399
        assert pochs and set(demands) == pochs and set(demands.values()) <= {399, 400}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["q", "-q"]), st.integers(1, 4), st.integers(1, 4),
                st.integers(-3, 3),
            ),
            min_size=1, max_size=3,
        ),
        st.dictionaries(st.integers(1, 4), st.integers(-3, 3), max_size=2),
        st.integers(1, 200),
    )
    def test_folded_quotient_property(self, pochs, etas, order):
        factors = [f"poch({s}^{a},{m})^{e}" for s, a, m, e in pochs]
        factors += [f"l({k})^{e}" for k, e in etas.items()]
        node = parse_expr("*".join(factors))
        assert eval_expr(node, order) == unfolded(node, order)

    def test_poch_leading_with_two_keeps_its_error(self):
        node = parse_expr("1/poch(-q^0,2)")
        assert plan(node, 5).node == node
        with pytest.raises(NonUnitError, match="^leading coefficient 2 is not \\+1 or -1$"):
            eval_expr(node, 5)

    def test_high_power_of_poch_stays_unfolded(self):
        node = parse_expr("poch(-q,1)^61*l(1)")
        assert plan(node, 60).node is node
        assert isinstance(plan(parse_expr("poch(-q,1)^60*l(1)"), 60).node, products.EtaQuotientSpec)
        assert eval_expr(node, 60) == unfolded(node, 60)

    def test_exponent_past_what_a_power_can_write_stays_unfolded(self):
        # folded, l(1)^(10^9) would cost 10^9 sparse products
        assert not isinstance(plan(parse_expr("(l(1)^1000)^2"), 3).node, products.EtaQuotientSpec)
        series = eval_expr(parse_expr("((l(1)^1000)^1000)^1000"), 3)
        assert series.coefficients() == [1, -10**9, 499999998500000000]
