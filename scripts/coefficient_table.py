#!/usr/bin/env python3
"""Print a side-by-side coefficient table for the eight mock theta series.

Usage:
    python3 scripts/coefficient_table.py [--upto 30]
"""

import argparse

from qseries.claims import MAX_ORDER
from qseries.mock import MockThetaId, mock_series


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--upto", type=int, default=30)
    args = parser.parse_args()
    if not 1 <= args.upto <= MAX_ORDER:
        parser.error(f"--upto must be between 1 and {MAX_ORDER}, got {args.upto}")

    names = [m.value for m in MockThetaId]
    columns = {name: mock_series(name, args.upto).coefficients() for name in names}
    width = max(len(str(c)) for col in columns.values() for c in col) + 1
    header = "n".rjust(4) + "".join(name.rjust(max(width, len(name) + 1)) for name in names)
    print(header)
    for n in range(args.upto):
        row = str(n).rjust(4)
        for name in names:
            row += str(columns[name][n]).rjust(max(width, len(name) + 1))
        print(row)


if __name__ == "__main__":
    main()
