"""The CLI cases of ``tests/data/cli_cases.jsonl``, and their runner.

    python tests/cli_cases.py

runs every case against the ``qseries`` console script on PATH, prints one
line per failure and the number of cases run, and exits 1 if any failed (2 if
there is no ``qseries`` or the table is malformed).  ``tests/test_cli.py``
runs the same cases through ``cli.main`` in process.

Each line of the table is one JSON object, a case, with the fields:

    argv         the arguments after ``qseries``; a path is relative to the
                 repository root, where every case runs
    exit         the exit code
    stdout       the exact stdout, or
    stdout_of    an argv whose stdout this case's stdout equals, or
    stdout_tail  the exact last lines of stdout (a report line holds its
                 elapsed time, so ``verify`` text is pinned by its summary)
    stderr       the exact stderr, or
    stderr_has   a fragment of stderr
    timeout      seconds before the process is killed (600 if absent)
    head         read this many lines of stdout, then close the pipe

Only ``argv`` and ``exit`` are required, and stderr never holds a traceback.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "cli_cases.jsonl"
FIELDS = {"argv", "exit", "stdout", "stdout_of", "stdout_tail", "stderr", "stderr_has",
          "timeout", "head"}
# a case checks at most one field of each group
EXCLUSIVE = ({"stdout", "stdout_of", "stdout_tail"}, {"stderr", "stderr_has"})


def load(path: Path = TABLE) -> list[dict]:
    """The cases of ``path``; a table that would check nothing raises ValueError."""
    cases = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        case = json.loads(line)
        where = f"{path.name}:{lineno}"
        if not isinstance(case, dict):
            raise ValueError(f"{where}: a case is a JSON object")
        if case.keys() - FIELDS:
            raise ValueError(f"{where}: unknown field {sorted(case.keys() - FIELDS)[0]!r}")
        if not {"argv", "exit"} <= case.keys():
            raise ValueError(f"{where}: a case needs 'argv' and 'exit'")
        for group in EXCLUSIVE:
            if len(group & case.keys()) > 1:
                raise ValueError(f"{where}: at most one of {sorted(group & case.keys())}")
        cases.append(case)
    if not cases:
        raise ValueError(f"{path.name}: no cases")
    return cases


def case_id(case: dict) -> str:
    text = " ".join(case["argv"])
    return text if len(text) <= 60 else text[:57] + "..."


def run_process(command: list[str], case: dict, argv: list[str]) -> tuple[int, str, str]:
    """``command + argv`` as a process at the root, under the case's timeout and head."""
    # stderr goes to a file: a long traceback would fill a pipe nobody reads
    with tempfile.TemporaryFile("w+", encoding="utf-8") as err:
        proc = subprocess.Popen([*command, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=err, encoding="utf-8")
        # a kill ends the output, so a case that prints nothing fails, not hangs
        timer = threading.Timer(case.get("timeout", 600), proc.kill)
        timer.start()
        try:
            if "head" in case:
                out = "".join(proc.stdout.readline() for _ in range(case["head"]))
                proc.stdout.close()
            else:
                out = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.kill()
        err.seek(0)
        return code, out, err.read()


def _show(text) -> str:
    shown = repr(text)
    return shown if len(shown) <= 200 else shown[:197] + "..."


def check(case: dict, run) -> list[str]:
    """What ``case`` finds wrong, where ``run(argv)`` gives (exit code, stdout, stderr)."""
    code, out, err = run(case["argv"])
    problems = []
    if code != case["exit"]:
        problems.append(f"exit {code}, want {case['exit']}")
    if "stdout" in case and out != case["stdout"]:
        problems.append(f"stdout {_show(out)}, want {_show(case['stdout'])}")
    if "stdout_of" in case and out != run(case["stdout_of"])[1]:
        problems.append(f"stdout {_show(out)} is not that of {case['stdout_of']}")
    if "stdout_tail" in case and not ("\n" + out).endswith("\n" + case["stdout_tail"]):
        problems.append(f"stdout {_show(out)} does not end in {case['stdout_tail']!r}")
    if "stderr" in case and err != case["stderr"]:
        problems.append(f"stderr {_show(err)}, want {case['stderr']!r}")
    if "stderr_has" in case and case["stderr_has"] not in err:
        problems.append(f"stderr {_show(err)} lacks {case['stderr_has']!r}")
    if "Traceback" in err:
        problems.append(f"stderr holds a traceback: {_show(err)}")
    return problems


def main() -> int:
    qseries = shutil.which("qseries")
    if qseries is None:
        print("error: no qseries console script on PATH", file=sys.stderr)
        return 2
    try:
        cases = load()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for case in cases:
        problems = check(case, lambda argv: run_process([qseries], case, argv))
        for problem in problems:
            print(f"FAIL qseries {case_id(case)}: {problem}")
        failed += bool(problems)
    print(f"{len(cases)} cases, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
