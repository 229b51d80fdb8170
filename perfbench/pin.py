"""Record the pinned expectations of the benchmark in expected.json.

    python3 perfbench/pin.py

This was run once, on the commit that defined the benchmark, and its output is
committed.  The seven red claims are typed in from the README's "Verification
status" table, and the script stops if the program disagrees with them or if
the mock prefixes disagree with the slow reference oracle.  Running it on a
later commit re-pins whatever that commit computes, so it must never be re-run
to make a failing benchmark check pass.
"""

from __future__ import annotations

import json

import worker

# claim id -> (n, lhs, rhs) of the first counterexample, from the README
README_REDS = {
    "thm5.1": (0, 1, 2),
    "thm5.2": (1, 1, 3),
    "thm5.3": (0, 5, 0),
    "eq5.3": (0, 5, 6),
    "thm5.4": (0, 1, 2),
    "thm5.5": (0, 5, 6),
    "eq6.3": (0, 6, 1),
}


def requested_order(claim, status: str) -> int:
    """The order a report must reach: what the claim asks to be checked."""
    kind = claim.kind.value
    if kind in ("identity", "recurrence"):
        return claim.order
    if kind == "congruence":
        return claim.A * (claim.count - 1) + claim.B + 1
    if kind == "congruence-family":
        from qseries.ntheory import family_indices

        indices = family_indices(claim.family, claim.p, claim.alpha)
        return max(ix.A * (claim.count - 1) + ix.B for ix in indices) + 1
    # interpretation: the enumeration bound, then the generating-function order
    return claim.dp_order if status == "pass" else claim.bound


def main() -> None:
    qseries = worker.import_program()
    table = qseries.registry_by_id()

    code, text = worker.body_verify_registry(qseries, list(worker.VERIFY_ARGV))
    claims = {}
    for r in json.loads(text):
        red = README_REDS.get(r["id"])
        want = None if red is None else dict(zip(("n", "lhs", "rhs"), red))
        assert r["status"] == ("pass" if red is None else "fail"), r
        assert r["first_failure"] == want, r
        claims[r["id"]] = {
            "status": r["status"],
            "first_failure": want,
            "min_order": requested_order(table[r["id"]], r["status"]),
        }
        assert r["order"] >= claims[r["id"]]["min_order"], r
    assert code == 1 and len(claims) == 77

    modular = {}
    for cid in worker.MODULAR_CLAIMS:
        report = qseries.verify(table[cid], order=worker.MODULAR_ORDER)
        assert report.status == "pass" and report.order >= worker.MODULAR_ORDER, report
        modular[cid] = report.status

    streams = {}
    for m in qseries.MockThetaId:
        coeffs = qseries.mock_series(m, worker.MOCK_ORDER).coefficients(worker.MOCK_ORDER)
        prefix = coeffs[: worker.PREFIX_ORDER]
        ref = qseries.mock.mock_series_reference(m, worker.PREFIX_ORDER)
        assert ref.coefficients(worker.PREFIX_ORDER) == prefix, m
        streams[m.value] = {"sha256": worker.digest(coeffs), "prefix": prefix}

    expected = {
        "verify_registry": {"exit_code": code, "claims": claims},
        "modular_deep": {"order": worker.MODULAR_ORDER, "claims": modular},
        "mock_deep": {"order": worker.MOCK_ORDER, "prefix_order": worker.PREFIX_ORDER,
                      "streams": streams},
    }
    with open(worker.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=False)
        handle.write("\n")


if __name__ == "__main__":
    main()
