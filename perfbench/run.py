"""The qseries benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
Every sample is a fresh interpreter (worker.py), so every cache starts cold,
as in one CLI invocation.  Samples run one after another for ``--seconds``
(at least three; six when tracing).

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over its samples.  With ``--trace 1`` it alternates untraced and traced
samples and reports the per-layer metrics of the traced ones (times are
medians; counts must repeat exactly) and ``trace.overhead_frac``, the traced
over the untraced median wall time, minus 1.

Every output is checked against the pinned expectations in expected.json.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 2,
with no result printed, when the program is missing, and 1 when a sample
crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import EXACT, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify_registry", "modular_deep", "mock_deep")
# name -> unit; all of them are better lower
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150


class SampleError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # identical inputs give identical call counts
    env.pop("PYTHONPATH", None)  # the worker puts src/ first itself
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # samples load bytecode, as installed CLIs do
    return env


def spawn(*worker_args: str) -> tuple[dict, dict]:
    """Run the worker once; returns its JSON result and its own resource use.

    CPU time and peak RSS come from ``os.wait4`` on this one child, never
    from ``RUSAGE_CHILDREN``, which sums CPU over all children and keeps only
    the largest RSS.
    """
    spawned_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *worker_args, "--spawned-ns", str(spawned_ns)],
        stdout=subprocess.PIPE, cwd=ROOT, env=child_env(),
    )
    killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    lines = out.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"worker {' '.join(worker_args)} exited with {proc.returncode}")
    rusage = {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
    }
    return json.loads(lines[-1]), rusage


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Samples until the next one would end after ``seconds`` (at least the minimum)."""
    samples: list[dict] = []
    durations: list[float] = []
    deadline = time.monotonic() + seconds
    need = 2 * MIN_SAMPLES if trace else MIN_SAMPLES
    while len(samples) < need or time.monotonic() + statistics.median(durations) <= deadline:
        traced = trace and len(samples) % 2 == 1
        args = ["--workload", workload, "--seed", str(seed)] + (["--trace"] if traced else [])
        start = time.monotonic()
        result, rusage = spawn(*args)
        durations.append(time.monotonic() - start)
        result.update(rusage, traced=traced)
        samples.append(result)
    return samples


def fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(samples: list[dict]) -> dict:
    metrics = {}
    for name, unit in END_TO_END.items():
        values = [s[name] for s in samples]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:14s} median {fmt(metrics[name]['value'])} {unit}, "
              f"max {fmt(max(values))} {unit} over {len(values)} samples")
    return metrics


def per_layer(samples: list[dict], problems: list[str]) -> dict:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    for s in traced:
        if s["unwrapped"]:
            problems.append(f"entry points not found: {', '.join(s['untraced'])}")
            break
    first = traced[0]["trace"]
    for name in EXACT:
        values = {s["trace"].get(name) for s in traced}
        if len(values) > 1:
            problems.append(f"{name} differs between traced samples: {sorted(values)}")
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = (statistics.median(s["wall_s"] for s in traced)
                     / statistics.median(s["wall_s"] for s in plain) - 1)
        elif name in EXACT:
            value = first[name]
        else:
            value = statistics.median(s["trace"][name] for s in traced)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {fmt(value)} {unit}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qseries" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'qseries'} is missing",
              file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    problems: list[str] = []
    attempted = failed = 0
    try:
        spawn("--warmup")  # compiles the bytecode so that no sample pays for it
        if args.workload == "mock_deep":
            ref, _ = spawn("--check-reference")
            attempted += ref["ops"]
            failed += ref["failed"]
            problems += ref["errors"]
        samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for s in samples:
        attempted += s["ops"]
        failed += s["failed"]
        problems += s["errors"]
    if len({s["verdicts"] for s in samples}) > 1:
        problems.append("outputs differ between samples of one seed")
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": len(samples), "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "git": git_sha(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    }
    print("meta " + json.dumps(meta))
    if args.trace:
        metrics = per_layer(samples, problems)
    else:
        metrics = end_to_end(samples)
    print(f"error_frac     {fmt(failed / attempted)} ({failed} of {attempted} operations wrong)")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
