"""Value records: equality by class and fields, hashing and immutability
of the frozen ones, the field-wise repr, constructors and defaults."""

import pytest

from qseries.claims import Claim, ClaimKind, VerificationReport
from qseries.expr import Eta, Lit, Mono, parse_expr, plan
from qseries.ntheory import FamilyIndex
from qseries.partitions import ResidueRule
from qseries.products import EtaQuotientSpec, PochhammerSpec


def test_equal_fields_of_different_classes_are_unequal():
    nodes = [Lit(3), Mono(3), Eta(3)]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            assert a != b and b != a
    assert len({node: None for node in nodes}) == 3


@pytest.mark.parametrize("make", [lambda: PochhammerSpec(1, 2, 3), lambda: FamilyIndex(1, 2, 3)])
def test_records_built_apart_are_equal_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "record, field",
    [
        (PochhammerSpec(1, 1, 1), "sign"),
        (Lit(3), "value"),
        (parse_expr("l(1)*2"), "left"),
        (FamilyIndex(1, 2, 3), "M"),
        (ResidueRule(), "colors"),
        (EtaQuotientSpec({2: 1}), "pochs"),
        (plan(parse_expr("l(1)"), 5), "order"),
    ],
)
def test_a_frozen_record_refuses_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_repr_keeps_the_field_wise_text():
    assert repr(PochhammerSpec(1, 1, 1)) == "PochhammerSpec(sign=1, base_exp=1, step=1)"
    assert repr(parse_expr("l(1)*2")) == "BinOp(op='*', left=Eta(k=1), right=Lit(value=2))"


def test_keyword_construction_and_defaults():
    assert ResidueRule(colors=2) == ResidueRule(2, False, False)
    a, b = EtaQuotientSpec({2: 1}), EtaQuotientSpec({2: 1})
    assert a.pochs == {} and a.pochs is not b.pochs


def test_a_plan_is_equal_only_to_itself():
    node = parse_expr("l(1)^2")
    a, b = plan(node, 10), plan(node, 10)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_claims_and_reports_compare_by_fields_and_stay_mutable():
    a = Claim("c", ClaimKind.IDENTITY, lhs=Eta(1), rhs=Eta(1), order=5)
    b = Claim("c", ClaimKind.IDENTITY, lhs=Eta(1), rhs=Eta(1), order=5)
    assert a == b
    b.order = 6
    assert a != b
    report = VerificationReport("c", "pass", 5)
    assert report == VerificationReport("c", "pass", order=5)
    report.elapsed_ms = 1
    assert report != VerificationReport("c", "pass", 5)
    for unhashable in (a, report):
        with pytest.raises(TypeError):
            hash(unhashable)
