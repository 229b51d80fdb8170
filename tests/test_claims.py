"""Claim registry, verification engine, claim files, and reports."""

import functools
import hashlib
import json
import random
import re
import time
from importlib import resources
from pathlib import Path

import pytest

from qseries import claims as claims_mod
from qseries import expr as expr_mod
from qseries import mock as mock_mod
from qseries import partitions
from qseries.claims import (
    MAX_ORDER,
    Claim,
    ClaimKind,
    VerificationReport,
    parse_claim_file,
    registry,
    registry_by_id,
    reports_to_csv,
    reports_to_json,
    tally,
    verify,
)
from qseries.expr import (
    Ap, BinOp, Expr, Mock, Mono, Plan, RulesetRef, eval_expr, parse_expr, to_text,
)
from qseries.ntheory import FAMILIES, PreconditionError, family_indices
from qseries.series import TruncatedSeries
import references
from references import leaf_demands

# the partition counts a recurrence's direct summation reads, as claim-language
# text, and the reference function each replaces (checked against brute force
# in test_partitions.py)
PARTITION_READS = {
    "l(4)/l(1)": references.regular4,
    **{f"(l(2)/l(1))^{k}": functools.partial(references.p_rd, k) for k in (2, 3)},
    "l(2)/l(1)^2": functools.partial(references.overpartition_r, 1),
    **{f"(l(2)/l(1)^2)^{k}": functools.partial(references.overpartition_r, k) for k in (2, 3)},
}

EXPECTED_DEFECTS = {
    "thm5.1", "thm5.2", "thm5.3", "eq5.3", "thm5.4", "thm5.5", "eq6.3",
}


class TestRegistry:
    def test_size_and_uniqueness(self):
        claims = registry()
        assert len(claims) >= 30
        ids = [c.id for c in claims]
        assert len(ids) == len(set(ids))

    def test_citations_present(self):
        assert all(c.cite for c in registry())

    def test_expected_ids_present(self):
        table = registry_by_id()
        for cid in ("thm3.1", "thm3.3i", "remark3.6", "eq3.2", "lemma2.4a",
                    "thm3.3ii.p5", "thm5.6", "thm6.4"):
            assert cid in table

    def test_every_kind_represented(self):
        kinds = {c.kind for c in registry()}
        assert kinds == set(ClaimKind)

    def test_defective_claims_are_annotated(self):
        table = registry_by_id()
        for cid in EXPECTED_DEFECTS:
            assert table[cid].notes, cid


class TestVerify:
    def test_identity_pass(self):
        r = verify(registry_by_id()["thm3.1"])
        assert r.status == "pass"
        assert r.order >= 500
        assert r.first_failure is None

    def test_congruence_pass(self):
        r = verify(registry_by_id()["thm3.3i"])
        assert r.status == "pass"

    def test_mu_mod4_pass(self):
        r = verify(registry_by_id()["remark3.6"])
        assert r.status == "pass"

    @pytest.mark.parametrize("cid, lhs, rhs", [("thm5.4", 1, 2), ("thm5.5", 5, 6)])
    def test_refuted_recurrence_direct_route_disagrees_at_zero(self, cid, lhs, rhs):
        # verify never reaches these routes: the series route fails first, at the same n
        claim = registry_by_id()[cid]
        assert claim.direct == tuple(claims_mod._DIRECT_ROUTES[cid][1:])
        lv, rv = _direct_sums(claim)
        assert len(lv) == len(rv) == claim.bound + 1
        assert claims_mod._first_difference(zip(lv, rv)) == {"n": 0, "lhs": lhs, "rhs": rhs}
        assert verify(claim).first_failure == {"n": 0, "lhs": lhs, "rhs": rhs}

    def test_engineered_counterexample(self):
        claim = Claim(
            "bad.identity", ClaimKind.IDENTITY,
            lhs=parse_expr("l(1)"), rhs=parse_expr("l(1) + q^7"), order=50,
        )
        r = verify(claim)
        assert r.status == "fail"
        assert r.first_failure["n"] == 7

    @pytest.mark.parametrize(
        "p, alpha, count",
        [(10**18 + 3, 0, None), (5, 3_000_000, None), (5, 0, int("9" * 4299))],
    )
    def test_hostile_family_is_skipped_at_once(self, p, alpha, count):
        # no primality test of p, no full power p^(2*alpha+2), no 4300-digit str()
        claim = Claim("huge.family", ClaimKind.CONGRUENCE_FAMILY, family="thm3.3ii", p=p,
                      alpha=alpha, count=5)
        start = time.perf_counter()
        r = verify(claim, count=count)
        assert time.perf_counter() - start < 1
        assert r.status == "skipped"
        assert "beyond the cap 50000" in r.message

    def test_non_qualifying_family_is_skipped(self):
        claim = Claim(
            "skip.family", ClaimKind.CONGRUENCE_FAMILY,
            family="thm3.3iii", p=11, alpha=0, count=2,
        )
        r = verify(claim)
        assert r.status == "skipped"
        assert "11" in r.message

    def test_oversized_request_is_skipped(self):
        claim = Claim(
            "huge.congruence", ClaimKind.CONGRUENCE,
            expr=parse_expr("mock(v)"), A=10**6, B=1, M=2, count=100,
        )
        r = verify(claim)
        assert r.status == "skipped"

    def test_count_override(self):
        claim = registry_by_id()["thm3.3i"]
        r = verify(claim, count=5)
        assert r.status == "pass"
        assert r.order < 120

    def test_order_override(self):
        r = verify(registry_by_id()["thm3.1"], order=60)
        assert r.status == "pass" and 60 <= r.order < 120

    def test_documented_defects_fail_where_recorded(self):
        table = registry_by_id()
        failures = {
            "thm5.1": 0, "thm5.3": 0, "eq5.3": 0, "thm5.4": 0,
            "thm5.5": 0, "eq6.3": 0,
        }
        for cid, first_n in failures.items():
            r = verify(table[cid])
            assert r.status == "fail", cid
            assert r.first_failure["n"] == first_n, cid
        r = verify(table["thm5.2"])
        assert r.status == "fail"
        assert r.first_failure["n"] == 1

    def test_corrected_variants_pass(self):
        table = registry_by_id()
        for cid in ("thm5.1.corrected", "thm5.3.corrected", "eq5.3.corrected",
                    "thm5.4.corrected", "thm5.5.corrected", "eq6.3.corrected"):
            assert verify(table[cid]).status == "pass", cid

    def test_recurrence_routes_agree(self):
        table = registry_by_id()
        for cid in ("thm3.4", "thm3.5", "thm4.4", "thm5.6", "thm6.2", "thm6.3", "thm6.4"):
            claim = table[cid]
            assert claim.bound == 60, cid
            lv, rv = _direct_sums(claim)
            assert lv == rv, cid
            series = verify(claim)
            assert series.status == "pass", cid

    def test_interpretation_walks_once_to_its_bound(self, monkeypatch):
        calls = []
        real = partitions.count_signed
        monkeypatch.setattr(
            partitions, "count_signed", lambda rs, bound: calls.append(bound) or real(rs, bound)
        )
        table = registry_by_id()
        assert verify(table["thm3.2"]).status == "pass"
        assert calls == [table["thm3.2"].bound]
        calls.clear()
        assert verify(table["thm3.2"], count=0).status == "pass"
        assert calls == [0]
        calls.clear()
        # the refuted claim still fails at n = 1, after one whole walk
        pinned = json.loads((Path(__file__).parent / "data" / "verify_all.json").read_text())
        (want,) = [r for r in pinned if r["id"] == "thm5.2"]
        report = verify(table["thm5.2"])
        assert json.dumps(_scrub(report)) == json.dumps(want)
        assert calls == [table["thm5.2"].bound]

    def test_report_determinism(self):
        claim = registry_by_id()["eq2.5.psi"]
        a = verify(claim).to_dict()
        b = verify(claim).to_dict()
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b



def _count_computes(monkeypatch) -> dict[str, int]:
    """Start the mock memo empty and count every expansion, a read that
    changes the cached order, per id."""
    counts: dict[str, int] = {}
    real = mock_mod._compute

    def counting(mock_id, order):
        before = mock_mod._cache.get(mock_id, (None,))[0]
        out = real(mock_id, order)
        if mock_mod._cache[mock_id][0] is not before:
            counts[mock_id.value] = counts.get(mock_id.value, 0) + 1
        return out

    monkeypatch.setattr(mock_mod, "_cache", {})
    monkeypatch.setattr(mock_mod, "_compute", counting)
    return counts


def _direct_sums(claim: Claim) -> tuple[list[int], list[int]]:
    """A recurrence's direct summation, fed from the reads its plan lists after both sides."""
    _, reads, _, _ = claims_mod._plan(claim, None, None, MAX_ORDER)
    coeffs = [eval_expr(node, o).coefficients() for node, o in reads[2:]]
    lhs, rhs = (claims_mod._direct_sum(claim.bound, coeffs, *side) for side in claim.direct)
    return lhs, rhs


def _requested_order(claim: Claim, status: str) -> int:
    if claim.kind in (ClaimKind.IDENTITY, ClaimKind.RECURRENCE):
        return claim.order
    if claim.kind is ClaimKind.CONGRUENCE:
        return claim.A * (claim.count - 1) + claim.B + 1
    if claim.kind is ClaimKind.CONGRUENCE_FAMILY:
        indices = family_indices(claim.family, claim.p, claim.alpha)
        return max(ix.A * (claim.count - 1) + ix.B for ix in indices) + 1
    return claim.dp_order if status == "pass" else claim.bound


def _scrub(report) -> dict:
    data = report.to_dict()
    data.pop("elapsed_ms")
    return data


REGISTRY_FILE = resources.files("qseries").joinpath("registry.claims")

# the seven records of published statements that do not hold, pinned as written
REFUTED_RECORD_SHA256 = {
    "thm5.1": "7c93ec0b335299cd1fdca09735ef11ed3388c64724e6712544a01dad03da3b01",
    "thm5.2": "04e47fea010c26afb9d9bb30ddc36d9767a5644e0b36386e54de327745cf1101",
    "thm5.3": "0c63d575065f090b87d6bee0d83887c280d43dedaec3836b7d880f3097b54395",
    "eq5.3": "d0482f71943f973cc7173f575d3d916738e2237904c25a7546218ac456fc9f17",
    "thm5.4": "ae6fab95ff9444d79e27895d549058ea71b6d251fd06f0e92b508618596527cf",
    "thm5.5": "751e5a4adf3489ba515f5259112de81ee5049f5dd0a0dbd455972581cf1f4c73",
    "eq6.3": "b4795c99fff09f720fd2302bd56c10e8924fea7ad88264e7cc65847d095abf72",
}


def _record_text(cid: str) -> str:
    """A registry record as written: its lines from ``[claim]`` to its last line
    before the next record, less the blank and comment lines that end it."""
    for block in REGISTRY_FILE.read_text("utf-8").split("[claim]\n")[1:]:
        lines = block.splitlines()
        while lines and (not lines[-1].strip() or lines[-1].lstrip().startswith("#")):
            lines.pop()
        if f"id={cid}" in lines:
            return "[claim]\n" + "\n".join(lines) + "\n"
    raise KeyError(cid)


def _raw_field(cid: str, key: str) -> str:
    fields = dict(line.split("=", 1) for line in _record_text(cid).splitlines()[1:])
    return fields[key]


class TestRegistryFile:
    @pytest.mark.parametrize("cid", sorted(REFUTED_RECORD_SHA256))
    def test_refuted_record_is_unchanged(self, cid):
        digest = hashlib.sha256(_record_text(cid).encode("utf-8")).hexdigest()
        assert digest == REFUTED_RECORD_SHA256[cid], f"{cid} is recorded as published"

    def test_pins_cover_the_expected_defects(self):
        assert set(REFUTED_RECORD_SHA256) == EXPECTED_DEFECTS

    def test_registry_is_the_packaged_claim_file(self):
        text = REGISTRY_FILE.read_text("utf-8")
        assert registry() == parse_claim_file(text, "registry.claims")
        assert len(registry()) == 77


class TestDissectionTexts:
    """The written-out lemma2.1-2.3 records against the term-by-term reference."""

    @pytest.mark.parametrize(
        "lemma, lhs, reference, p",
        [("lemma2.1", "psi(q)", references.psi_p_dissection_rhs, p) for p in (3, 5, 7)]
        + [("lemma2.2", "l(1)", references.f1_p_dissection_rhs, p) for p in (5, 7, 11)]
        + [("lemma2.3", "l(1)^3", references.f1cubed_p_dissection_rhs, p) for p in (3, 5, 7)],
    )
    def test_record_equals_the_reference(self, lemma, lhs, reference, p):
        claim = registry_by_id()[f"{lemma}.p{p}"]
        assert claim.lhs == parse_expr(lhs)
        assert eval_expr(claim.rhs, 1000) == reference(p, 1000)

    def test_texts_as_written(self):
        assert _raw_field("lemma2.1.p5", "rhs") == (
            "f(q^15,q^10) + q*f(q^20,q^5) + q^3*psi(q^25)"
        )
        assert _raw_field("lemma2.2.p5", "rhs") == (
            "q^5*f(-q^10,-q^65) + f(-q^40,-q^35) - q^2*f(-q^55,-q^20)"
            " + q^7*f(-q^70,-q^5) - q*l(25)"
        )
        assert _raw_field("lemma2.3.p3", "rhs") == (
            "stream(jacobi,1) - q*SUB(AP(stream(jacobi,1),3,1),3) - 3*q*l(9)^3"
        )

    def test_every_side_is_an_expression(self):
        for claim in registry():
            if claim.kind in (ClaimKind.IDENTITY, ClaimKind.RECURRENCE):
                for node in (claim.lhs, claim.rhs):
                    assert isinstance(node, Expr), claim.id
                    assert parse_expr(to_text(node)) == node, claim.id


class TestDemandPlan:
    def test_every_claim_has_leaf_demands(self):
        for claim in registry():
            target, _, plans, _ = claims_mod._plan(claim, None, None, MAX_ORDER)
            demands = [leaf_demands(p) for p in plans]
            assert target > 0 and all(demands), claim.id
            # every node is one completed Plan, never a bottom-up node left without its order
            stack = list(plans)
            while stack:
                p = stack.pop()
                assert type(p) is Plan and type(p.order) is int, claim.id
                stack.extend(p.kids)

    def test_cap_sees_the_enumeration_bound(self, monkeypatch):
        # the enumeration reads v at 2*12+1, past the generating-function order 5
        counts = _count_computes(monkeypatch)
        (claim,) = parse_claim_file(
            "[claim]\nid=i\ntype=interpretation\nmock=v\nruleset=thm3.2\n"
            "A=2\nB=1\nbound=12\norder=5\n"
        )
        r = verify(claim, max_order=20)
        assert r.status == "skipped" and "needs order 26" in r.message
        assert counts == {}
        r = verify(claim)
        assert (r.status, r.order) == ("pass", 5)

    def test_interpretation_reads_ap_of_its_mock_stream(self):
        target, _, plans, _ = claims_mod._plan(registry_by_id()["thm6.1"], None, None, MAX_ORDER)
        demands = [leaf_demands(p) for p in plans]
        assert (target, demands) == (200, [{Mock("lambda"): 399}, {RulesetRef("thm6.1"): 200}])

    def test_interpretation_plan_lists_both_routes(self):
        _, reads, _, _ = claims_mod._plan(registry_by_id()["thm6.1"], None, None, MAX_ORDER)
        assert reads == [(Ap(Mock("lambda"), 2, 0), 200), (RulesetRef("thm6.1"), 200)]

    def test_check_evaluates_exactly_the_planned_reads(self, monkeypatch):
        capped, evaluated = [], []
        real_cap, real_run = claims_mod.within_cap, claims_mod.run

        def cap(*args):
            capped[:] = real_cap(*args)
            return capped[:]

        def record(plan):
            evaluated.append(plan)
            return real_run(plan)

        monkeypatch.setattr(claims_mod, "within_cap", cap)
        monkeypatch.setattr(claims_mod, "run", record)
        for claim in registry():
            evaluated.clear()
            r = verify(claim)
            plans = capped
            # a failed comparison stops the check before the reads it no longer needs
            if r.message == "backtracking enumeration disagrees":
                plans = plans[:1]  # not the generating-function route
            elif r.status == "fail" and claim.kind is ClaimKind.RECURRENCE and not r.message:
                plans = plans[:2]  # the series route failed: not the direct summation
            assert len(evaluated) == len(plans), claim.id
            assert all(a is b for a, b in zip(evaluated, plans)), claim.id

    def test_failed_progression_stops_the_family_check(self, monkeypatch):
        evaluated = []
        real = claims_mod.run
        monkeypatch.setattr(claims_mod, "run", lambda p: evaluated.append(p.node) or real(p))
        claim = Claim(
            "f", ClaimKind.CONGRUENCE_FAMILY, family="thm3.3ii", p=5, count=3,
            expr=parse_expr("1/l(1)"),
        )
        r = verify(claim)  # p(29) = 4565 is odd
        assert (r.status, r.message) == ("fail", "progression j=1 (A=50, B=29, M=2)")
        assert evaluated == [parse_expr("AP(1/l(1),50,29)")]

    def test_recurrence_plan_lists_the_direct_reads(self):
        for claim in registry():
            if claim.kind is not ClaimKind.RECURRENCE:
                continue
            _, reads, _, _ = claims_mod._plan(claim, None, None, MAX_ORDER)
            progression, *counts = claim.direct_reads
            assert reads == [
                (claim.lhs, claim.order), (claim.rhs, claim.order),
                *((node, claim.bound + 1) for node in claim.direct_reads),
            ], claim.id
            # the lhs progression, then the partition counts the summation weighs
            assert isinstance(progression, Ap) and isinstance(progression.child, Mock)
            assert to_text(progression) in to_text(claim.lhs), claim.id
            assert set(counts) <= set(map(parse_expr, PARTITION_READS)), claim.id

    def test_family_indices_are_built_once_per_verify(self, monkeypatch):
        families = [c for c in registry() if c.kind is ClaimKind.CONGRUENCE_FAMILY]
        before = [verify(c).to_dict() for c in families]
        calls = []
        real = claims_mod.family_indices
        monkeypatch.setattr(
            claims_mod, "family_indices", lambda *args: calls.append(args) or real(*args)
        )
        for claim, want in zip(families, before):
            calls.clear()
            got = verify(claim).to_dict()
            assert calls == [(claim.family, claim.p, claim.alpha)], claim.id
            for report in (got, want):
                report.pop("elapsed_ms")
            assert got == want, claim.id

    @pytest.mark.parametrize("text", sorted(PARTITION_READS))
    def test_partition_read_is_the_partitions_function_it_replaces(self, text):
        assert eval_expr(parse_expr(text), 200) == PARTITION_READS[text](200)

    def test_congruence_plan_reads_each_progression(self):
        table = registry_by_id()
        _, reads, _, _ = claims_mod._plan(table["ramanujan.p5"], None, None, MAX_ORDER)
        assert reads == [(parse_expr("AP(1/l(1),5,4)"), 150)]
        # B = 59 is past A = 50: P(50n + 59) is q^-1*AP(mock(v),50,9)
        target, reads, plans, _ = claims_mod._plan(table["thm3.3ii.p5"], None, None, MAX_ORDER)
        assert reads == [
            (parse_expr(text), 10) for text in (
                "AP(mock(v),50,29)", "AP(mock(v),50,39)", "AP(mock(v),50,49)",
                "q^-1*AP(mock(v),50,9)",
            )
        ]
        deepest = max(leaf_demands(p)[Mock("v")] for p in plans)
        assert target == deepest == 50 * 9 + 59 + 1

    def test_within_cap_caps_the_deepest_leaf(self):
        reads = [(Mock("v"), 10), (parse_expr("AP(mock(v),2,1)*l(3)"), 10)]
        plans = claims_mod.within_cap(reads, 20)
        assert [(p.node, p.order) for p in plans] == reads
        with pytest.raises(PreconditionError, match="^needs order 20, beyond the cap 19; more$"):
            claims_mod.within_cap(reads, 19, "; more")
        with pytest.raises(PreconditionError, match="^needs order 30, beyond the cap 29$"):
            claims_mod.within_cap([(parse_expr("1"), 30)], 29)
        assert claims_mod.within_cap([], 0) == []

    def test_laurent_shift_keeps_the_requested_order(self):
        claim = Claim(
            "shifted", ClaimKind.IDENTITY,
            lhs=parse_expr("q^-20*mock(v)"), rhs=parse_expr("q^-20*mock(v)"), order=100,
        )
        r = verify(claim)
        assert r.status == "pass" and r.order == 100

    def test_cap_sees_the_deepest_leaf(self, monkeypatch):
        counts = _count_computes(monkeypatch)
        claim = Claim(
            "nested.ap", ClaimKind.CONGRUENCE,
            expr=parse_expr("AP(AP(mock(lambda),6,2),6,2)"), A=1, B=0, M=2, count=60,
        )
        r = verify(claim, max_order=100)
        assert r.status == "skipped"
        assert "2139" in r.message
        assert counts == {}

    @pytest.mark.parametrize(
        "text, order, span",
        [
            ("SUB(SUB(q^-1000,1000),1000)", 1, 1_000_000_001),
            ("AP(AP(SUB(SUB(l(1),1000),1000),1000,0),1000,0)", 1000, 999_000_001),
            ("AP(SUB(l(1),1000),1000,0)", 50_000, 49_999_001),
            ("SUB(q^-1000,1000)", 1, 1_000_001),
        ],
    )
    def test_cap_sees_every_inner_node(self, monkeypatch, text, order, span):
        # each inner SUB or AP node spans more than the cap; its leaves do not
        def refuse(*args):
            raise AssertionError("a node was evaluated past the cap")

        monkeypatch.setattr(expr_mod, "_apply", refuse)
        node = parse_expr(text)
        r = verify(Claim("inner", ClaimKind.IDENTITY, lhs=node, rhs=node, order=order))
        assert (r.status, r.message) == (
            "skipped", f"needs order {span}, beyond the cap 50000; rerun with a higher cap"
        )

    def test_node_zero_below_its_order_is_not_capped(self):
        # the SUB node is asked for order 10^6 at its valuation 10^6: a zero series
        lhs, rhs = parse_expr("AP(SUB(q^1000,1000),2,0)"), parse_expr("0")
        r = verify(Claim("zero.node", ClaimKind.IDENTITY, lhs=lhs, rhs=rhs, order=1))
        assert (r.status, r.order, r.message) == ("pass", 1, "")

    def test_cap_sees_the_direct_route(self, monkeypatch):
        # the series route needs lambda at 59, the direct summation at 365
        counts = _count_computes(monkeypatch)
        r = verify(registry_by_id()["thm6.4"], order=10, max_order=100)
        assert r.status == "skipped"
        assert "needs order 365" in r.message
        assert counts == {}

    def test_registry_reports_at_the_requested_orders(self):
        claims = registry()
        reports = [verify(c) for c in claims]
        for claim, r in zip(claims, reports):
            assert r.claim_id == claim.id
            assert r.order == _requested_order(claim, r.status), claim.id
        pinned = json.loads((Path(__file__).parent / "data" / "verify_all.json").read_text())
        assert [_scrub(r) for r in reports] == pinned


def _copy(claim: Claim, **fields) -> Claim:
    """A new claim with ``claim``'s fields, ``fields`` in place of its own; ``claim`` is untouched."""
    return Claim(**{**{name: getattr(claim, name) for name in Claim._fields}, **fields})


def _plus_q(node: Expr, e: int) -> Expr:
    return BinOp("+", node, Mono(e))


def _holding(*kinds: ClaimKind) -> list[str]:
    """The ids of the registry claims of ``kinds`` that hold as stated."""
    return [c.id for c in registry() if c.kind in kinds and c.id not in EXPECTED_DEFECTS]


class TestEveryCheckReadsItsLastIndex:
    """A claim that holds, with one coefficient raised by 1 at the last index
    its check states, fails there; raised just past that index, it passes.
    The perturbation is a claim-language node, so it runs through the real
    plan; the refuted claims are pinned in test_acceptance.py instead."""

    @pytest.mark.parametrize("cid", _holding(ClaimKind.IDENTITY, ClaimKind.RECURRENCE))
    def test_identity_and_recurrence(self, cid):
        claim = registry_by_id()[cid]
        n = claim.order
        r = verify(_copy(claim, rhs=_plus_q(claim.rhs, n - 1)))
        assert (r.status, r.order, r.first_failure["n"], r.message) == ("fail", n, n - 1, "")
        assert verify(_copy(claim, rhs=_plus_q(claim.rhs, n))).status == "pass"

    @pytest.mark.parametrize("cid", _holding(ClaimKind.CONGRUENCE))
    def test_congruence(self, cid):
        claim = registry_by_id()[cid]
        A, B, c = claim.A, claim.B, claim.count
        r = verify(_copy(claim, expr=_plus_q(claim.expr, A * (c - 1) + B)))
        assert (r.status, r.first_failure["n"]) == ("fail", c - 1)
        assert verify(_copy(claim, expr=_plus_q(claim.expr, A * c + B))).status == "pass"

    @pytest.mark.parametrize("cid", _holding(ClaimKind.CONGRUENCE_FAMILY))
    def test_family_on_its_last_progression(self, cid):
        claim = registry_by_id()[cid]
        last = family_indices(claim.family, claim.p, claim.alpha)[-1]
        node, c = claim.expr or Mock(FAMILIES[claim.family].mock), claim.count
        r = verify(_copy(claim, expr=_plus_q(node, last.A * (c - 1) + last.B)))
        assert (r.status, r.first_failure["n"]) == ("fail", c - 1)
        assert r.message == f"progression j={claim.p - 1} (A={last.A}, B={last.B}, M={last.M})"
        assert verify(_copy(claim, expr=_plus_q(node, last.A * c + last.B))).status == "pass"

    @pytest.mark.parametrize("cid", _holding(ClaimKind.INTERPRETATION))
    def test_interpretation_enumeration(self, cid, monkeypatch):
        claim = registry_by_id()[cid]
        real = partitions.count_signed

        def raised(rs, bound):
            counts = real(rs, bound)
            counts[-1] += 1
            return counts

        monkeypatch.setattr(partitions, "count_signed", raised)
        r = verify(claim)
        assert (r.status, r.order, r.first_failure["n"], r.message) == (
            "fail", claim.bound, claim.bound, "backtracking enumeration disagrees"
        )

    @pytest.mark.parametrize("cid", _holding(ClaimKind.INTERPRETATION))
    def test_interpretation_generating_function(self, cid, monkeypatch):
        claim = registry_by_id()[cid]
        target = claim.dp_order or claim.bound + 1
        real = partitions.count_dp

        def raised(at):
            # count_dp to order at + 1 with coefficient ``at`` raised; the plan truncates it
            return lambda rs, order: real(rs, at + 1) + TruncatedSeries.monomial(at, at + 1)

        monkeypatch.setattr(partitions, "count_dp", raised(target - 1))
        r = verify(claim)
        assert (r.status, r.order, r.first_failure["n"], r.message) == (
            "fail", target, target - 1, "generating function route disagrees"
        )
        monkeypatch.setattr(partitions, "count_dp", raised(target))
        assert verify(claim).status == "pass"


class TestEveryReadIsAPrefix:
    """Each read a claim's check plans, evaluated at a lower order n′, is the
    same read at its stated order N cut to n′: no read depends on how deep it
    was asked for.  The mock cache is emptied before each evaluation, so that
    neither is the other one truncated.  A read is not a verdict, so the
    refuted claims' reads are included."""

    @pytest.mark.parametrize("cid", [c.id for c in registry()])
    def test_lower_orders_are_prefixes(self, cid):
        _, reads, _, _ = claims_mod._plan(registry_by_id()[cid], None, None, MAX_ORDER)
        rng = random.Random(cid)
        for node, order in reads:
            mock_mod._cache.clear()
            full = expr_mod.run(expr_mod.plan(node, order))
            for lower in sorted(rng.sample(range(1, order), min(3, order - 1))):
                mock_mod._cache.clear()
                assert expr_mod.run(expr_mod.plan(node, lower)) == full.truncate(lower), (
                    to_text(node), order, lower,
                )


class TestErrors:
    def test_non_unit_division_is_an_error(self):
        claim = Claim(
            "halved", ClaimKind.IDENTITY,
            lhs=parse_expr("l(1)/2"), rhs=parse_expr("l(1)"), order=20,
        )
        r = verify(claim)
        assert r.status == "error"
        assert r.first_failure is None
        assert "leading coefficient 2" in r.message

    @pytest.mark.parametrize("lhs, rhs, order", [("q^2/(l(1)-1)", "0", 2)])
    def test_late_divisor_is_an_error_not_a_pass(self, lhs, rhs, order):
        claim = Claim(
            "late", ClaimKind.IDENTITY,
            lhs=parse_expr(lhs), rhs=parse_expr(rhs), order=order,
        )
        r = verify(claim)
        assert (r.status, r.first_failure) == ("error", None)
        assert "leading coefficient 0" in r.message

    @pytest.mark.parametrize("order", [3, 15, 27, 43])
    def test_late_mock_divisor_is_checked_not_skipped(self, order):
        # v(q) starts at q^1, so q^3/v(q) = q^2 - q^3 - ... and the sides differ at q^2
        claim = Claim(
            "late", ClaimKind.IDENTITY,
            lhs=parse_expr("mock(mu)+q^3/mock(v)"), rhs=parse_expr("mock(mu)"), order=order,
        )
        r = verify(claim)
        assert (r.status, r.order) == ("fail", order)
        assert r.first_failure == {"n": 2, "lhs": 2, "rhs": 1}

    @pytest.mark.parametrize(
        "claim_id, override, message",
        [
            ("eq2.5.psi", {"order": 0}, "claim 'eq2.5.psi': order must be positive, got 0"),
            ("eq2.5.psi", {"order": -5}, "claim 'eq2.5.psi': order must be positive, got -5"),
            ("ramanujan.p5", {"count": 0}, "claim 'ramanujan.p5': count must be positive, got 0"),
            ("thm6.1", {"count": -1}, "claim 'thm6.1': bound must be nonnegative, got -1"),
        ],
    )
    def test_empty_range_is_an_error_not_a_pass(self, claim_id, override, message):
        claim = registry_by_id()[claim_id]
        r = verify(claim, **override)
        assert (r.status, r.first_failure, r.message) == ("error", None, message)

    @pytest.mark.parametrize(
        "A, M, message",
        [
            (1, 0, "claim 'c': modulus M must be at least 2, got 0"),
            (1, 1, "claim 'c': modulus M must be at least 2, got 1"),
            (0, 5, "claim 'c': step A must be positive, got 0"),
            (-2, 5, "claim 'c': step A must be positive, got -2"),
        ],
    )
    def test_degenerate_congruence_is_an_error_not_a_pass(self, A, M, message):
        claim = Claim("c", ClaimKind.CONGRUENCE, expr=parse_expr("l(1)"), A=A, M=M, count=10)
        r = verify(claim)
        assert (r.status, r.first_failure, r.message) == ("error", None, message)

    @pytest.mark.parametrize("B, order", [(-5, 0), (-9, -4)])
    def test_congruence_below_q0_is_an_error_not_a_pass(self, B, order):
        # A*(count-1) + B + 1 < 1: every coefficient read is below q^0
        claim = Claim("c", ClaimKind.CONGRUENCE, expr=parse_expr("l(1)"), B=B, M=7, count=5)
        message = f"claim 'c': order must be positive, got {order}"
        r = verify(claim)
        assert (r.status, r.first_failure, r.message) == ("error", None, message)

    def test_claim_without_an_order_is_an_error(self):
        claim = Claim("unset", ClaimKind.IDENTITY, lhs=parse_expr("l(1)"), rhs=parse_expr("l(2)"))
        r = verify(claim)
        assert (r.status, r.message) == ("error", "claim 'unset': order must be positive, got 0")

    def test_unknown_ruleset_is_an_error(self):
        claim = Claim(
            "bogus.gf", ClaimKind.IDENTITY,
            lhs=RulesetRef("bogus"), rhs=parse_expr("1"), order=20,
        )
        r = verify(claim)
        assert (r.status, r.first_failure, r.message) == ("error", None, "unknown ruleset 'bogus'")

    def test_unknown_interpretation_ruleset_is_an_error(self):
        claims = parse_claim_file(
            "[claim]\nid=i\ntype=interpretation\nmock=v\nruleset=bogus\nbound=5\n"
        )
        r = verify(claims[0])
        assert (r.status, r.first_failure, r.message) == ("error", None, "unknown ruleset 'bogus'")

    def test_under_delivered_side_is_an_error(self, monkeypatch):
        real = mock_mod.mock_series
        monkeypatch.setattr(mock_mod, "mock_series", lambda name, order: real(name, order - 1))
        claim = Claim(
            "short", ClaimKind.IDENTITY,
            lhs=parse_expr("mock(v)"), rhs=parse_expr("mock(v)"), order=30,
        )
        r = verify(claim)
        assert r.status == "error" and r.first_failure is None
        assert "delivered order 29" in r.message


CLAIM_FILE = """
# two user claims
[claim]
id=user.psi.square
type=identity
lhs=psi(q)^2
rhs=l(2)^4/l(1)^2
order=120
cite=square of the psi product form

[claim]
id=user.parity
type=congruence
expr=l(1) - l(2)  # trailing comment
A=1
B=0
M=2
count=60
"""


RECURRENCE = "type=recurrence\nlhs=l(1)\nrhs=l(1)"


# a record of each claim type with only its required fields
REQUIRED_FIELDS = {
    "identity": "lhs=l(1)\nrhs=l(1)",
    "recurrence": "lhs=l(1)\nrhs=l(1)",
    "congruence": "expr=l(1)\nM=2",
    "congruence-family": "family=thm4.3\np=5",
    "interpretation": "mock=v\nruleset=thm3.2",
}

# every field each claim type reads, written by hand from the reader's output
# before its field table: (type, field, the value, or None to leave the field
# out, and the exact error or the (attribute, value) the claim stores).  A
# required field is left out; an optional one is left out for its default and
# given one below its least value, if it has one.
READ_FIELDS = [
    ("identity", "lhs", None, "f: claim 'x' missing field 'lhs'"),
    ("identity", "rhs", None, "f: claim 'x' missing field 'rhs'"),
    ("identity", "order", None, ("order", 200)),
    ("identity", "order", "0", "f: claim 'x' field 'order' must be at least 1, got 0"),
    ("recurrence", "lhs", None, "f: claim 'x' missing field 'lhs'"),
    ("recurrence", "rhs", None, "f: claim 'x' missing field 'rhs'"),
    ("recurrence", "order", None, ("order", 200)),
    ("recurrence", "order", "0", "f: claim 'x' field 'order' must be at least 1, got 0"),
    ("recurrence", "direct", None, ("direct", None)),
    ("recurrence", "direct", "0", "f: claim 'x' field 'direct': unknown route '0'"),
    ("congruence", "expr", None, "f: claim 'x' missing field 'expr'"),
    ("congruence", "A", None, ("A", 1)),
    ("congruence", "A", "0", "f: claim 'x' field 'A' must be at least 1, got 0"),
    ("congruence", "B", None, ("B", 0)),
    ("congruence", "B", "-1", "f: claim 'x' field 'B' must be at least 0, got -1"),
    ("congruence", "M", None, "f: claim 'x' missing field 'M'"),
    ("congruence", "M", "1", "f: claim 'x' field 'M' must be at least 2, got 1"),
    ("congruence", "count", None, ("count", 100)),
    ("congruence", "count", "0", "f: claim 'x' field 'count' must be at least 1, got 0"),
    ("congruence-family", "family", None, "f: claim 'x' missing field 'family'"),
    ("congruence-family", "p", None, "f: claim 'x' missing field 'p'"),
    ("congruence-family", "p", "-2", ("p", -2)),  # no least value
    ("congruence-family", "alpha", None, ("alpha", 0)),
    ("congruence-family", "alpha", "-1", ("alpha", -1)),  # no least value
    ("congruence-family", "count", None, ("count", 5)),
    ("congruence-family", "count", "0", "f: claim 'x' field 'count' must be at least 1, got 0"),
    ("interpretation", "mock", None, "f: claim 'x' missing field 'mock'"),
    ("interpretation", "ruleset", None, "f: claim 'x' missing field 'ruleset'"),
    ("interpretation", "A", None, ("A", 1)),
    ("interpretation", "A", "0", "f: claim 'x' field 'A' must be at least 1, got 0"),
    ("interpretation", "B", None, ("B", 0)),
    ("interpretation", "B", "-1", "f: claim 'x' field 'B' must be at least 0, got -1"),
    ("interpretation", "bound", None, ("bound", 20)),
    ("interpretation", "bound", "-1", "f: claim 'x' field 'bound' must be at least 0, got -1"),
    # an interpretation's order is stored in dp_order, 0 when it is left out
    ("interpretation", "order", None, ("dp_order", 0)),
    ("interpretation", "order", "7", ("dp_order", 7)),
    ("interpretation", "order", "0", "f: claim 'x' field 'order' must be at least 1, got 0"),
]
# each field in a record of a type that does not read it
FOREIGN_FIELDS = [
    (kind, field, "1", f"f: claim 'x' field '{field}' is not read by {kind} claims")
    for kind in REQUIRED_FIELDS
    for field in dict.fromkeys(f for _, f, _, _ in READ_FIELDS)
    if all((k, f) != (kind, field) for k, f, _, _ in READ_FIELDS)
]


class TestClaimFiles:
    def test_parse_and_verify(self):
        claims = parse_claim_file(CLAIM_FILE)
        assert [c.id for c in claims] == ["user.psi.square", "user.parity"]
        assert verify(claims[0]).status == "pass"
        # l_1 and l_2 differ mod 2 (the congruence is l_1^2 = l_2)
        assert verify(claims[1]).status == "fail"

    def test_family_record(self):
        claims = parse_claim_file(
            "[claim]\nid=f\ntype=congruence-family\nfamily=thm4.3\np=5\nalpha=0\ncount=3\n"
        )
        assert verify(claims[0]).status == "pass"

    def test_interpretation_record(self):
        claims = parse_claim_file(
            "[claim]\nid=i\ntype=interpretation\nmock=v\nruleset=thm3.2\n"
            "A=2\nB=1\nbound=10\norder=40\n"
        )
        assert verify(claims[0]).status == "pass"

    def test_interpretation_generating_function_route_failure(self):
        # beta's 3n+2 progression is not thm5.2's product: the enumeration
        # agrees at bound 0, the generating function route differs at n = 1
        (claim,) = parse_claim_file(
            "[claim]\nid=i\ntype=interpretation\nmock=beta\nruleset=thm5.2\n"
            "A=3\nB=2\nbound=0\norder=200\n"
        )
        r = verify(claim)
        assert (r.status, r.order, r.first_failure, r.message) == (
            "fail", 200, {"n": 1, "lhs": 1, "rhs": 3}, "generating function route disagrees"
        )

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            parse_claim_file("[claim]\nid=x\ntype=identity\nfoo=1\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown claim type"):
            parse_claim_file("[claim]\nid=x\ntype=conjecture\n")

    def test_field_outside_record(self):
        with pytest.raises(ValueError, match="outside"):
            parse_claim_file("id=x\n")

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="missing"):
            parse_claim_file("[claim]\nid=x\ntype=congruence\nexpr=l(1)\n")

    @pytest.mark.parametrize(
        "fields, missing",
        [
            ("type=identity\nrhs=l(1)", "lhs"),
            ("type=recurrence\nlhs=l(1)", "rhs"),
            ("type=congruence\nM=2", "expr"),
            ("type=congruence\nexpr=l(1)", "M"),
            ("type=congruence-family\np=5", "family"),
            ("type=interpretation\nruleset=thm3.2", "mock"),
            ("type=interpretation\nmock=v", "ruleset"),
        ],
    )
    def test_missing_text_field(self, fields, missing):
        with pytest.raises(ValueError, match=f"^f: claim 'x' missing field '{missing}'$"):
            parse_claim_file(f"[claim]\nid=x\n{fields}\n", source="f")

    @pytest.mark.parametrize(
        "kind, field, value, want",
        READ_FIELDS + FOREIGN_FIELDS,
        ids=[f"{k}-{f}-{v}" for k, f, v, _ in READ_FIELDS + FOREIGN_FIELDS],
    )
    def test_each_field_of_each_type(self, kind, field, value, want):
        lines = [f for f in REQUIRED_FIELDS[kind].splitlines() if not f.startswith(f"{field}=")]
        if value is not None:
            lines.append(f"{field}={value}")
        text = f"[claim]\nid=x\ntype={kind}\n" + "\n".join(lines) + "\n"
        if isinstance(want, str):
            with pytest.raises(ValueError) as info:
                parse_claim_file(text, source="f")
            assert str(info.value) == want
        else:
            (claim,) = parse_claim_file(text, source="f")
            attribute, stored = want
            assert getattr(claim, attribute) == stored

    def test_non_integer_field(self):
        text = "[claim]\nid=x\ntype=identity\nlhs=l(1)\nrhs=l(1)\norder=abc\n"
        with pytest.raises(ValueError, match="^f: claim 'x' field 'order' is not an integer"):
            parse_claim_file(text, source="f")

    def test_over_long_integer_field(self):
        # an integer past the interpreter's int() digit limit is an integer all the same
        text = f"[claim]\nid=x\ntype=identity\nlhs=l(1)\nrhs=l(1)\norder={'9' * 5000}\n"
        message = "^f: claim 'x' field 'order': integer of 5000 digits is too long$"
        with pytest.raises(ValueError, match=message):
            parse_claim_file(text, source="f")

    @pytest.mark.parametrize(
        "fields, field, least, value",
        [
            ("type=identity\nlhs=l(1)\nrhs=l(2)\norder=0", "order", 1, 0),
            ("type=recurrence\nlhs=l(1)\nrhs=l(2)\norder=-5", "order", 1, -5),
            ("type=congruence\nexpr=l(1)\nM=2\ncount=0", "count", 1, 0),
            ("type=congruence\nexpr=l(1)\nM=0", "M", 2, 0),
            ("type=congruence\nexpr=l(1)\nM=1", "M", 2, 1),
            ("type=congruence\nexpr=l(1)\nM=-3", "M", 2, -3),
            ("type=congruence\nexpr=l(1)\nM=2\nA=0", "A", 1, 0),
            ("type=congruence\nexpr=l(1)\nM=2\nA=-1", "A", 1, -1),
            ("type=congruence\nexpr=l(1)\nA=1\nB=-5\nM=7\ncount=5", "B", 0, -5),
            ("type=congruence-family\nfamily=thm4.3\np=5\ncount=-1", "count", 1, -1),
            ("type=interpretation\nmock=v\nruleset=thm3.2\norder=0", "order", 1, 0),
            ("type=interpretation\nmock=v\nruleset=thm3.2\nbound=-1", "bound", 0, -1),
            ("type=interpretation\nmock=v\nruleset=thm3.2\nA=0", "A", 1, 0),
            ("type=interpretation\nmock=v\nruleset=thm3.2\nB=-1", "B", 0, -1),
        ],
    )
    def test_range_that_checks_nothing_is_rejected(self, fields, field, least, value):
        message = f"^f: claim 'x' field '{field}' must be at least {least}, got {value}$"
        with pytest.raises(ValueError, match=message):
            parse_claim_file(f"[claim]\nid=x\n{fields}\n", source="f")

    @pytest.mark.parametrize(
        "fields, field, error",
        [
            ("type=identity\nlhs=l(\nrhs=l(1)", "lhs", "expected an integer at offset 2"),
            ("type=identity\nlhs=l(1)\nrhs=mock(omega)", "rhs",
             "unknown mock theta function 'omega' at offset 0"),
            ("type=congruence\nexpr=l(1)+\nM=2", "expr", "unexpected '' at offset 5"),
        ],
    )
    def test_expression_error_names_its_field(self, fields, field, error):
        with pytest.raises(ValueError) as info:
            parse_claim_file(f"[claim]\nid=x\n{fields}\n", source="f")
        assert str(info.value) == f"f: claim 'x' field '{field}': {error}"

    @pytest.mark.parametrize(
        "fields, message",
        [
            (f"{RECURRENCE}\ndirect=thm9.9", "field 'direct': unknown route 'thm9.9'"),
            (f"{RECURRENCE}\ndirect=", "field 'direct': unknown route ''"),
            (f"{RECURRENCE}\ndirect=thm3.4\nbound=5",
             "field 'bound' is not read by recurrence claims"),
            ("type=identity\nlhs=l(1)\nrhs=l(1)\ndirect=thm3.4",
             "field 'direct' is not read by identity claims"),
            ("type=congruence\nexpr=l(1)\nM=2\ndirect=thm3.4",
             "field 'direct' is not read by congruence claims"),
            ("type=interpretation\nmock=v\nruleset=thm3.2\ndirect=thm3.4",
             "field 'direct' is not read by interpretation claims"),
        ],
    )
    def test_direct_route_fields_are_checked(self, fields, message):
        with pytest.raises(ValueError) as info:
            parse_claim_file(f"[claim]\nid=x\n{fields}\n", source="f")
        assert str(info.value) == f"f: claim 'x' {message}"

    def test_reads_are_not_a_field(self):
        # a route's reads are fixed by the route, not written in the record
        with pytest.raises(ValueError) as info:
            parse_claim_file(f"[claim]\nid=x\n{RECURRENCE}\nreads=l(1)\n", source="f")
        assert str(info.value) == "f:6: unknown field 'reads'"

    def test_repeated_field_rejected(self):
        with pytest.raises(ValueError) as info:
            parse_claim_file("[claim]\nid=x\ntype=identity\nlhs=l(1)\nlhs=l(2)\n", source="f")
        assert str(info.value) == "f:5: repeated field 'lhs'"

    def test_duplicate_id_rejected(self):
        record = "[claim]\nid=mine\ntype=identity\nlhs=l(1)\nrhs=l(1)\n"
        with pytest.raises(ValueError) as info:
            parse_claim_file(record + "\n" + record, source="f")
        assert str(info.value) == "f:8: duplicate claim id 'mine'"

    def test_recurrence_with_a_direct_route(self):
        (claim,) = parse_claim_file(
            "[claim]\nid=user.rec\ntype=recurrence\nlhs=AP(mock(v),2,1)\n"
            "rhs=(l(4)/l(1))*stream(psi,2)\norder=100\ndirect=thm3.4\n"
        )
        assert claim.direct == tuple(claims_mod._DIRECT_ROUTES["thm3.4"][1:])
        assert claim.direct_reads == (parse_expr("AP(mock(v),2,1)"), parse_expr("l(4)/l(1)"))
        assert (claim.bound, claim.order) == (60, 100)
        _, reads, _, _ = claims_mod._plan(claim, None, None, MAX_ORDER)
        assert reads[2:] == [(node, 61) for node in claim.direct_reads]
        report = verify(claim)
        assert (report.status, report.order, report.first_failure) == ("pass", 100, None)

    def test_direct_route_reads_are_the_registry_reads(self):
        # each route has one registry record, and a claim file naming it gets its reads
        table = registry_by_id()
        for name, (_, *sides) in claims_mod._DIRECT_ROUTES.items():
            (claim,) = parse_claim_file(f"[claim]\nid=x\n{RECURRENCE}\ndirect={name}\n")
            assert table[name].direct == claim.direct == tuple(sides), name
            assert table[name].direct_reads == claim.direct_reads, name
            assert table[name].bound == claim.bound == 60, name

    def test_direct_route_that_disagrees_fails(self):
        # thm3.4's sides pass the series route; thm5.4's direct sums differ at n = 0
        (claim,) = parse_claim_file(
            "[claim]\nid=user.rec\ntype=recurrence\nlhs=AP(mock(v),2,1)\n"
            "rhs=(l(4)/l(1))*stream(psi,2)\norder=100\ndirect=thm5.4\n"
        )
        r = verify(claim)
        assert (r.status, r.order, r.message) == ("fail", 100, "direct summation route disagrees")
        assert r.first_failure == {"n": 0, "lhs": 1, "rhs": 2}

    @pytest.mark.parametrize("kind", ["pentagonal", "jacobi", "phi", "psi"])
    @pytest.mark.parametrize("scale", range(1, 7))
    def test_stream_terms_enumerate_the_theta_stream(self, kind, scale):
        dense = [0] * 61
        for e, w in claims_mod._stream_terms(kind, scale, 60):
            dense[e] += w
        assert dense == partitions.theta_stream(kind, scale, 61).coefficients()

    def test_interpretation_residue_beyond_the_modulus(self):
        # P(2n+3) is P(2(n+1)+1): the stream is q^-1*AP(mock(v),2,1)
        (claim,) = parse_claim_file(
            "[claim]\nid=i\ntype=interpretation\nmock=v\nruleset=thm3.2\n"
            "A=2\nB=3\nbound=10\norder=40\n"
        )
        r = verify(claim)
        coeffs = mock_mod.mock_series("v", 24)
        assert r.status == "fail"
        assert r.first_failure["rhs"] == coeffs.coefficient(2 * r.first_failure["n"] + 3)

    def test_interpretation_modulus_must_be_positive(self):
        # a claim file rejects A=0 when it is read; a claim built in code is an error
        claim = Claim(
            "i", ClaimKind.INTERPRETATION, mock="v", ruleset="thm3.2", A=0, bound=20,
        )
        r = verify(claim)
        assert (r.status, r.first_failure) == ("error", None)
        assert "modulus A must be positive" in r.message


class TestReports:
    def test_json_schema(self):
        reports = [verify(registry_by_id()["eq2.6.fneg"])]
        data = json.loads(reports_to_json(reports))
        assert set(data[0]) == {
            "id", "status", "order", "first_failure", "message", "elapsed_ms",
        }

    def test_json_stable_modulo_elapsed(self):
        claim = registry_by_id()["eq2.6.fneg"]
        scrub = lambda text: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)
        a = scrub(reports_to_json([verify(claim)]))
        b = scrub(reports_to_json([verify(claim)]))
        assert a == b

    def test_tally_counts_statuses_and_gives_the_exit_code(self):
        def reports(*statuses):
            return [VerificationReport("x", s) for s in statuses]

        assert tally([]) == ("0 pass, 0 fail, 0 skipped, 0 error", 0)
        # a skipped claim checked nothing, so it is no pass
        assert tally(reports("pass", "skipped")) == ("1 pass, 0 fail, 1 skipped, 0 error", 2)
        assert tally(reports("fail", "skipped")) == ("0 pass, 1 fail, 1 skipped, 0 error", 2)
        assert tally(reports("pass", "fail", "fail")) == ("1 pass, 2 fail, 0 skipped, 0 error", 1)
        assert tally(reports("fail", "error")) == ("0 pass, 1 fail, 0 skipped, 1 error", 2)

    def test_csv_columns(self):
        text = reports_to_csv([verify(registry_by_id()["eq2.6.fneg"])])
        header, row = text.strip().splitlines()
        assert header == "id,status,order,first_n,elapsed_ms"
        assert row.startswith("eq2.6.fneg,pass,")
