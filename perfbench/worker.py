"""One benchmark sample, in a fresh interpreter so that every cache starts cold.

run.py spawns this once per sample:

    python3 perfbench/worker.py --workload NAME --seed N --spawned-ns T [--trace] [--corrupt]
    python3 perfbench/worker.py --check-reference
    python3 perfbench/worker.py --warmup

A sample imports ``qseries`` from ``src/``, builds the registry (the set-up),
generates its inputs from the seed, runs the timed workload body, and then,
outside the timed body, checks every output against ``expected.json``.  It
prints one JSON object as its last line of standard output.  ``--corrupt``
falsifies one pinned expectation, which the self-test uses to show that
wrong outputs are counted.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"

# the 26 identity claims that use no mock stream
MODULAR_CLAIMS = (
    "euler.pentagonal", "eq2.4.phi", "eq2.5.psi", "eq2.6.fneg", "eq2.8.phineg", "eq2.9.jacobi",
    "triple.phi", "triple.psi", "triple.fneg", "triple.f15",
    "lemma2.4a", "lemma2.4b", "lemma2.4c",
    "lemma2.1.p3", "lemma2.1.p5", "lemma2.1.p7",
    "lemma2.2.p5", "lemma2.2.p7", "lemma2.2.p11",
    "lemma2.3.p3", "lemma2.3.p5", "lemma2.3.p7",
    "thm3.2.gf", "thm4.2.gf", "thm5.2.gf", "thm6.1.gf",
)
MODULAR_ORDER = 1000
MOCK_ORDER = 2500
# Each stream's ramp is one order drawn near each base; the narrow window keeps
# the O(N^2) cost of the ramp nearly the same for every seed.
RAMP_BASES = (1000, 1500, 2000)
RAMP_JITTER = 10
MOCK_READS = 2000
PREFIX_ORDER = 60
VERIFY_ARGV = ("verify", "all", "--format", "json")


def digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def make_inputs(workload: str, seed: int, expected: dict):
    """The generated inputs; the program never sees the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_registry":
        return list(VERIFY_ARGV)
    if workload == "modular_deep":
        ids = list(MODULAR_CLAIMS)
        rng.shuffle(ids)
        return ids
    streams = list(expected["mock_deep"]["streams"])
    ramps = {m: [b + rng.randint(-RAMP_JITTER, RAMP_JITTER) for b in RAMP_BASES] + [MOCK_ORDER]
             for m in streams}
    reads = [(rng.choice(streams), rng.randrange(MOCK_ORDER)) for _ in range(MOCK_READS)]
    return ramps, reads


# -- timed bodies -------------------------------------------------------------

def body_verify_registry(qseries, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qseries.cli.main(argv)
    return code, out.getvalue()


def body_modular_deep(qseries, ids):
    table = qseries.claims.registry_by_id()
    return [qseries.claims.verify(table[cid], order=MODULAR_ORDER) for cid in ids]


def body_mock_deep(qseries, inputs):
    ramps, reads = inputs
    mock_series = qseries.mock.mock_series
    expanded = {m: [mock_series(m, order) for order in orders] for m, orders in ramps.items()}
    values = [mock_series(m, n + 1).coefficient(n) for m, n in reads]
    return expanded, values


# -- checks against the pinned expectations -----------------------------------

class Tally:
    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)


def check_verify_registry(result, expected, inputs, tally):
    code, text = result
    want = expected["verify_registry"]
    tally.check(code == want["exit_code"], f"exit code {code}, want {want['exit_code']}")
    try:
        reports = {r["id"]: r for r in json.loads(text)}
    except (ValueError, TypeError, KeyError):
        reports = {}
    for cid, claim in want["claims"].items():
        got = reports.get(cid)
        ok = (got is not None and got["status"] == claim["status"]
              and got["first_failure"] == claim["first_failure"]
              and got["order"] >= claim["min_order"])
        tally.check(ok, f"{cid}: got {got}, want {claim}")
    for cid in sorted(set(reports) - set(want["claims"])):
        tally.check(False, f"unexpected claim {cid}")
    return [[r["id"], r["status"], r["first_failure"], r["order"]] for r in reports.values()]


def check_modular_deep(reports, expected, ids, tally):
    want = expected["modular_deep"]
    for cid, r in zip(ids, reports):
        ok = (r.claim_id == cid and r.status == want["claims"][cid]
              and r.first_failure is None and r.order >= want["order"])
        tally.check(ok, f"{cid}: got {r.claim_id} {r.status} order={r.order} {r.first_failure}")
    for cid in ids[len(reports):]:
        tally.check(False, f"{cid}: no report")
    return [[r.claim_id, r.status, r.first_failure, r.order] for r in reports]


def check_mock_deep(result, expected, inputs, tally):
    expanded, values = result
    ramps, reads = inputs
    want = expected["mock_deep"]
    full = {}
    for m, series in expanded.items():
        top = series[-1]
        coeffs = top.coefficients(MOCK_ORDER)
        full[m] = coeffs
        pin = want["streams"][m]
        tally.check(top.order >= MOCK_ORDER and digest(coeffs) == pin["sha256"]
                    and coeffs[:PREFIX_ORDER] == pin["prefix"], f"{m} at order {MOCK_ORDER}")
        for order, s in zip(ramps[m][:-1], series[:-1]):
            tally.check(s.order >= order and s.coefficients(order) == coeffs[:order],
                        f"{m} at order {order} is not a prefix of order {MOCK_ORDER}")
    for (m, n), value in zip(reads, values):
        tally.check(value == full[m][n], f"{m} coefficient {n}: {value}")
    return [[m, digest(c)] for m, c in full.items()] + [digest(values)]


WORKLOADS = {
    "verify_registry": (body_verify_registry, check_verify_registry),
    "modular_deep": (body_modular_deep, check_modular_deep),
    "mock_deep": (body_mock_deep, check_mock_deep),
}


def corrupt(expected: dict, workload: str) -> dict:
    """A copy of the expectations with one pinned value falsified."""
    bad = copy.deepcopy(expected)
    if workload == "verify_registry":
        claim = bad["verify_registry"]["claims"][min(bad["verify_registry"]["claims"])]
        claim["status"] = "fail" if claim["status"] == "pass" else "pass"
    elif workload == "modular_deep":
        claims = bad["modular_deep"]["claims"]
        claims[min(claims)] = "fail"
    else:
        stream = next(iter(bad["mock_deep"]["streams"].values()))
        stream["sha256"] = stream["sha256"][::-1]
    return bad


# -- entry points ---------------------------------------------------------------

def import_program():
    sys.path.insert(0, str(SRC))
    import qseries
    import qseries.cli  # noqa: F401  (bound before the tracer scans the modules)

    return qseries


def run_sample(args) -> dict:
    qseries = import_program()
    tracer, missing = None, []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
    qseries.registry()
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9

    expected = load_expected()
    inputs = make_inputs(args.workload, args.seed, expected)
    body, check = WORKLOADS[args.workload]
    start = time.perf_counter()
    result = body(qseries, inputs)
    wall_s = time.perf_counter() - start
    trace = tracer.summary() if tracer is not None else None

    if args.corrupt:
        expected = corrupt(expected, args.workload)
    tally = Tally()
    verdicts = check(result, expected, inputs, tally)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": tally.ops,
        "failed": tally.failed,
        "errors": tally.errors,
        "verdicts": digest(verdicts),
        "trace": trace,
        "unwrapped": missing,
    }


def check_reference() -> dict:
    """Cross-check the pinned prefixes against the slow reference oracle."""
    qseries = import_program()
    tally = Tally()
    for m, pin in load_expected()["mock_deep"]["streams"].items():
        ref = qseries.mock.mock_series_reference(m, PREFIX_ORDER).coefficients(PREFIX_ORDER)
        tally.check(ref == pin["prefix"], f"{m}: reference oracle disagrees with the pinned prefix")
    return {"ops": tally.ops, "failed": tally.failed, "errors": tally.errors}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-ns", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--check-reference", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args()
    if args.warmup:
        import_program().registry()
        out = {"ok": True}
    elif args.check_reference:
        out = check_reference()
    elif args.workload:
        out = run_sample(args)
    else:
        parser.error("give --workload, --check-reference or --warmup")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
