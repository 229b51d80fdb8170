"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Seven registry claims record published statements that do not hold (see the
registry notes and the project README).  Their sub-criteria assert the
verifier's verdict on them: each is refuted as published at the recorded
first counterexample (``REFUTED``), and its companion claim passes within the
same order and time budget.
"""

import random
import time

import pytest

from qseries.claims import registry_by_id, verify
from qseries.expr import Ap, BinOp, Eta, Lit, Mock, Mono, Pow, parse_expr, to_text
from qseries.mock import MockThetaId, mock_series, mock_series_reference
from qseries.ntheory import family_indices
from qseries.partitions import RULESETS, count_dp, count_signed
from qseries.products import eta, eta_quotient, jacobi_cube, phi, psi, theta_f
from qseries.series import make
from references import (
    distinct_colored_brute,
    f1_p_dissection_rhs,
    f1cubed_p_dissection_rhs,
    overpartition_r,
    overpartitions_brute,
    p_classic,
    p_r,
    p_rd,
    partitions_brute,
    psi_p_dissection_rhs,
    regular4,
    regular_brute,
    triple_product,
)

CLAIMS = registry_by_id()


def check(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name} {detail}"


# Published statements that are false, with the verifier's first
# counterexample (the README "Verification status" table), the report's
# message, and the registry companion that passes.
REFUTED = {
    "thm5.1": ({"n": 0, "lhs": 1, "rhs": 2}, "", "thm5.1.corrected"),
    "thm5.2": ({"n": 1, "lhs": 1, "rhs": 3}, "backtracking enumeration disagrees",
               "thm5.2.gf"),
    "thm5.3": ({"n": 0, "lhs": 5, "rhs": 0}, "", "thm5.3.corrected"),
    "eq5.3": ({"n": 0, "lhs": 5, "rhs": 6}, "", "eq5.3.corrected"),
    "thm5.4": ({"n": 0, "lhs": 1, "rhs": 2}, "", "thm5.4.corrected"),
    "thm5.5": ({"n": 0, "lhs": 5, "rhs": 6}, "", "thm5.5.corrected"),
    "eq6.3": ({"n": 0, "lhs": 6, "rhs": 1}, "", "eq6.3.corrected"),
}


def run_claim(name: str, cid: str, max_ms: int = 10_000, min_order: int = 0):
    """Check the verifier's verdict on one registry claim.

    A claim in ``REFUTED`` must fail at exactly its recorded counterexample
    and message, and its companion must pass; any other claim must pass.
    """
    if cid in REFUTED:
        failure, message, companion = REFUTED[cid]
        report = verify(CLAIMS[cid])
        fixed = verify(CLAIMS[companion])
        ok = (
            report.status == "fail"
            and report.message == message
            and report.first_failure == failure
            and report.elapsed_ms < max_ms
            and fixed.status == "pass"
            and fixed.elapsed_ms < max_ms
            and fixed.order >= min_order
        )
        got = report.first_failure or {}
        detail = (
            f"refuted as published at n={got.get('n')}: {got.get('lhs')} vs {got.get('rhs')}; "
            f"{companion} {fixed.status}, order={fixed.order}"
        )
        if not ok:
            detail += (
                f"; expected fail at {failure} {message!r}, "
                f"got {report.status} {report.message!r} in {report.elapsed_ms}ms"
            )
        check(name, ok, detail)
        return
    report = verify(CLAIMS[cid])
    detail = f"order={report.order}, {report.elapsed_ms}ms"
    if report.first_failure:
        detail += f", first failure {report.first_failure}"
    ok = report.status == "pass" and report.elapsed_ms < max_ms and report.order >= min_order
    check(name, ok, detail)


# -- criterion 1: identity suite ---------------------------------------------

C1_CLAIMS = [
    ("thm3.1", 500), ("eq3.2", 400), ("eq3.3", 300), ("thm4.1", 500),
    ("eq4.1", 400), ("eq5.2", 500), ("thm5.1", 500), ("eq5.1", 400),
    ("eq5.3", 300), ("eq6.1", 400), ("eq6.2", 400), ("eq6.3", 400),
    ("lemma2.4a", 500), ("lemma2.4b", 500), ("lemma2.4c", 500),
    ("eq2.4.phi", 400), ("eq2.5.psi", 400), ("eq2.6.fneg", 400),
    ("eq2.8.phineg", 400),
    ("triple.phi", 400), ("triple.psi", 400), ("triple.fneg", 400),
    ("triple.f15", 400),
]


@pytest.mark.parametrize("cid,order", C1_CLAIMS, ids=[c for c, _ in C1_CLAIMS])
def test_c1_identity_suite(cid, order):
    run_claim(f"criterion-1 {cid}", cid, min_order=order)


# -- criterion 2: prime dissection lemmas -------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7])
def test_c2_psi_dissection(p):
    ok = psi_p_dissection_rhs(p, 300) == psi(300)
    rstar = ((p * p - 1) // 8) % p
    excl = all(((m * m + m) // 2) % p != rstar for m in range((p - 1) // 2))
    check(f"criterion-2 psi-dissection p={p}", ok and excl)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_c2_f1_dissection(p):
    ok = f1_p_dissection_rhs(p, 300) == eta(1, 300)
    rstar = ((p * p - 1) // 24) % p
    tstar = (p - 1) // 6 if p % 6 == 1 else (-p - 1) // 6
    excl = all(
        ((3 * t * t + t) // 2) % p != rstar
        for t in range(-(p - 1) // 2, (p - 1) // 2 + 1)
        if t != tstar
    )
    check(f"criterion-2 f1-dissection p={p}", ok and excl)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_c2_f1cubed_dissection(p):
    ok = f1cubed_p_dissection_rhs(p, 300) == eta(1, 300) ** 3
    rstar = ((p * p - 1) // 8) % p
    excl = all(
        (k * (k + 1) // 2) % p != rstar for k in range(p) if k != (p - 1) // 2
    )
    check(f"criterion-2 f1cubed-dissection p={p}", ok and excl)


# -- criterion 3: congruences --------------------------------------------------

@pytest.mark.parametrize(
    "cid",
    ["thm3.3i", "thm5.3", "ramanujan.p5", "ramanujan.p7", "ramanujan.p11",
     "remark3.6", "binom.lm1.p3", "binom.lm1.p5", "binom.lm1.p7",
     "binom.lm2.t1", "binom.lm2.t2", "binom.lm2.t3"],
)
def test_c3_congruences(cid):
    run_claim(f"criterion-3 {cid}", cid)


# -- criterion 4: congruence families ------------------------------------------

@pytest.mark.parametrize("cid", ["thm3.3ii.p5", "thm3.3ii.p7", "thm3.3iii.p5", "thm4.3.p5"])
def test_c4_families(cid):
    run_claim(f"criterion-4 {cid}", cid)


def test_c4_stretch_alpha_one():
    run_claim("criterion-4 thm3.3ii.p5a1 (alpha=1)", "thm3.3ii.p5a1", max_ms=60_000)


def test_c4_indices_exact():
    got = family_indices("thm3.3ii", 5, 0)
    ok = [(ix.A, ix.B, ix.M) for ix in got] == [(50, 29, 2), (50, 39, 2), (50, 49, 2), (50, 59, 2)]
    check("criterion-4 index-arithmetic", ok)


# -- criterion 5: interpretations -----------------------------------------------

@pytest.mark.parametrize("cid", ["thm3.2", "thm4.2", "thm5.2", "thm6.1"])
def test_c5_interpretations(cid):
    run_claim(f"criterion-5 {cid}", cid)


# -- criterion 6: recurrences ----------------------------------------------------

@pytest.mark.parametrize(
    "cid",
    ["thm3.4", "thm3.5", "thm4.4", "thm5.4", "thm5.5", "thm5.6",
     "thm6.2", "thm6.3", "thm6.4"],
)
def test_c6_recurrences(cid):
    claim = CLAIMS[cid]
    assert claim.bound >= 60
    run_claim(f"criterion-6 {cid}", cid, min_order=300)


# -- criterion 7: oracle equivalences ---------------------------------------------

def test_c7_partition_oracles():
    series = p_r(1, 301)
    by_series = series.coefficients()
    by_recurrence = [p_classic(n) for n in range(301)]
    by_enumeration = [partitions_brute(n) for n in range(41)]
    ok = by_series == by_recurrence and by_recurrence[:41] == by_enumeration
    check("criterion-7 partition-three-routes", ok)


def test_c7_restricted_families_vs_enumeration():
    over = overpartition_r(1, 26).coefficients() == [
        overpartitions_brute(n) for n in range(26)
    ]
    dist = p_rd(2, 26).coefficients() == [
        distinct_colored_brute(n, 2) for n in range(26)
    ]
    reg = regular4(26).coefficients() == [regular_brute(n, 4) for n in range(26)]
    check("criterion-7 restricted-families", over and dist and reg)


@pytest.mark.parametrize("mock_id", list(MockThetaId), ids=[m.value for m in MockThetaId])
def test_c7_mock_incremental_vs_reference(mock_id):
    ok = mock_series(mock_id, 100) == mock_series_reference(mock_id, 100)
    check(f"criterion-7 mock-{mock_id.value}", ok)


# -- criterion 8: randomized property suites ----------------------------------------

def _random_series(rng, max_len=20):
    val = rng.randint(-4, 4)
    coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, max_len))]
    return make(val, coeffs, val + len(coeffs))


def _random_ast(rng, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        return rng.choice(
            [
                Lit(rng.randint(0, 9)),
                Mono(rng.randint(-3, 5)),
                Eta(rng.randint(1, 12)),
                Mock(rng.choice(["mu", "v", "beta"])),
            ]
        )
    kind = rng.random()
    if kind < 0.6:
        return BinOp(
            rng.choice("+-*/"), _random_ast(rng, depth + 1), _random_ast(rng, depth + 1)
        )
    if kind < 0.8:
        return Pow(_random_ast(rng, depth + 1), rng.randint(-3, 4))
    m = rng.randint(1, 4)
    return Ap(_random_ast(rng, depth + 1), m, rng.randint(0, m - 1))


def test_c8_property_suites():
    rng = random.Random(20260810)
    cases = 0
    for _ in range(400):
        a, b, c = (_random_series(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        cases += 1
    for _ in range(300):
        s = _random_series(rng)
        m = rng.randint(1, 5)
        total = None
        for r in range(m):
            piece = s.extract_ap(m, r).substitute(m).shift(r)
            total = piece if total is None else total + piece
        agree, _ = total.agrees_with(s)
        assert agree
        cases += 1
    for _ in range(200):
        a, b = _random_series(rng), _random_series(rng)
        k = rng.randint(0, 10)
        full = a * b
        cut = full.truncate(min(full.order, full.valuation + k))
        assert cut == (a * b).truncate(cut.order)
        cases += 1
    for _ in range(200):
        node = _random_ast(rng)
        assert parse_expr(to_text(node)) == node
        cases += 1
    check("criterion-8 property-suites", cases >= 1000, f"{cases} randomized cases")


# -- criterion 9: performance ---------------------------------------------------------

def test_c9_eta_quotient_speed():
    start = time.perf_counter()
    eta_quotient({4: 3, 1: -1, 2: -1}, 1000)
    eta_quotient({3: 5, 6: -1, 2: 3, 1: -6}, 1000)
    elapsed = time.perf_counter() - start
    check("criterion-9 eta-quotient-1000", elapsed < 2.0, f"{elapsed:.2f}s for two quotients")


def test_c9_verify_all_wall_time():
    start = time.perf_counter()
    reports = [verify(c) for c in CLAIMS.values()]
    elapsed = time.perf_counter() - start
    statuses = {r.claim_id: r.status for r in reports}
    fails = sorted(cid for cid, s in statuses.items() if s == "fail")
    expected_fails = sorted(REFUTED)
    check(
        "criterion-9 verify-all",
        elapsed < 300.0 and fails == expected_fails,
        f"{elapsed:.1f}s, failures: {fails}",
    )


# -- spot values used throughout (frozen from the brute-force oracles) -----------

def test_frozen_spot_values():
    v = mock_series("v", 6)
    ok = (
        [v.coefficient(k) for k in (1, 3, 5)] == [1, 1, 3]
        and count_signed(RULESETS["thm3.2"], 2)[2] == 3
        and eta_quotient({4: 3, 1: -1, 2: -1}, 3).coefficient(2) == 3
    )
    check("spot-values P_v(5)=3 on three routes", ok)


def test_jacobi_and_theta_forms():
    ok = (
        jacobi_cube(400) == eta(1, 400) ** 3
        and theta_f(1, 1, 1, 3, 400) == triple_product(1, 1, 1, 3, 400)
        and phi(400) == eta_quotient({2: 5, 1: -2, 4: -2}, 400)
    )
    check("theta product forms cross-check", ok)


def test_count_dp_vs_mock_to_200():
    lam = mock_series("lambda", 399)
    dp = count_dp(RULESETS["thm6.1"], 200)
    ok = all(dp.coefficient(n) == lam.coefficient(2 * n) for n in range(200))
    check("interpretation dp route to 200 (lambda)", ok)
