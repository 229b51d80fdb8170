#!/usr/bin/env python3
"""Run the full claim registry and write JSON + CSV reports.

Usage:
    python3 scripts/run_verify.py [--out-dir reports]
"""

import argparse
import pathlib
import sys
import time

from qseries.claims import registry, reports_to_csv, reports_to_json, tally, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    reports = [verify(c) for c in registry()]
    elapsed = time.perf_counter() - start
    reports.sort(key=lambda r: r.claim_id)

    (out_dir / "verification.json").write_text(reports_to_json(reports))
    (out_dir / "verification.csv").write_text(reports_to_csv(reports))

    summary, code = tally(reports)
    print(f"{len(reports)} claims in {elapsed:.1f}s: {summary}")
    for r in reports:
        if r.status != "pass":
            print(f"  {r.claim_id}: {r.status} {r.first_failure or ''} {r.message}")
    print(f"reports written to {out_dir}/")
    return code


if __name__ == "__main__":
    sys.exit(main())
