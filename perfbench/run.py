"""The avoidwords benchmark: closed-loop CLI job mixes, one client, one process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload count|algebra|oracle \\
        --seed N --seconds S --trace 0|1

The seed fixes the workload's job list (``jobs.py``). A pass runs that list
back to back in a fresh interpreter (``worker.py``) with a new empty cache
directory, and passes repeat until S seconds have gone by. Every job's
output is checked (``checks.py``); a failed check counts as a failed job and
the run goes on.

With ``--trace 0`` the metrics are the end-to-end ones: the medians over
passes of ``wall_s`` (time to finish the job list), ``cpu_s`` and
``peak_rss_mib``, and ``setup_s``, the median time from a fresh interpreter
to the exit of ``python -m avoidwords.cli --version`` over spawns made
before every pass and after the last. With ``--trace 1``
untraced and traced passes alternate; the metrics are the per-layer ones
from the traced passes (``spans.py``), plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record (environment, argv of every job, exit codes, check results and
seconds) goes to ``.perfbench/results/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as joblists  # noqa: E402

# set-up spawns before every pass and after the last; spread over the run,
# they sample the host's load as the passes do
SETUP_SPAWNS = 2
HARD_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def child_env(cache_dir=None):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    if cache_dir is not None:
        env["AVOIDWORDS_CACHE_DIR"] = str(cache_dir)
    return env


def measure_setup(spawns, deadline):
    """Seconds from a fresh interpreter to the exit of `avoidwords --version`."""
    argv = [sys.executable, "-m", "avoidwords.cli", "--version"]
    times = []
    for _ in range(spawns):
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
        times.append(perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"`avoidwords --version` failed: {proc.stderr.strip()}")
    return times


def run_pass(workload, seed, traced, tmp, deadline):
    cache_dir = Path(tempfile.mkdtemp(dir=tmp))
    out = cache_dir.with_suffix(".json")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
             "--trace", str(int(traced)), "--out", str(out)],
            cwd=ROOT, env=child_env(cache_dir), stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        out.unlink(missing_ok=True)


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def summarize(args, setup, plain, traced):
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        metrics["trace.wall_s"] = median_of(traced, "wall_s")
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {key: median_of(plain, key) for key in ("wall_s", "cpu_s", "peak_rss_mib")}
        metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END_UNITS
    return attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def unit_of(name):
    field = name.rsplit(".", 1)[1]
    if field.endswith("_s"):
        return "s"
    if field.endswith(("_share", "_ratio")):
        return "ratio"
    if field.endswith("_bytes"):
        return "bytes"
    if field.endswith("_bits"):
        return "bits"
    return "count"


def main():
    ap = argparse.ArgumentParser(description="avoidwords CLI job-mix benchmark")
    ap.add_argument("--workload", choices=joblists.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "avoidwords" / "__init__.py").is_file():
        sys.exit(f"error: no avoidwords package under {ROOT / 'src'}")

    start = monotonic()
    deadline = start + HARD_LIMIT_S
    out_dir = ROOT / ".perfbench"
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        measure_setup(1, deadline)  # untimed: writes bytecode
        setup, plain, traced = [], [], []
        budget_end = monotonic() + args.seconds
        while True:
            began = monotonic()
            setup += measure_setup(SETUP_SPAWNS, deadline)
            want_traced = bool(args.trace) and len(traced) < len(plain)
            (traced if want_traced else plain).append(
                run_pass(args.workload, args.seed, want_traced, tmp, deadline))
            done = plain and (traced or not args.trace)
            # stop before a pass that would end after the budget, so a run
            # lasts about --seconds whatever the length of its passes
            if done and monotonic() + (monotonic() - began) > min(budget_end, deadline):
                break
        setup += measure_setup(SETUP_SPAWNS, deadline)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.exit(f"error: {exc}")

    attempted, failed, metrics = summarize(args, setup, plain, traced)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"git_rev": git_rev(), "nproc": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0)), **plain[0]["versions"]},
        "setup_spawns_s": setup,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
        "passes": plain + traced,
    }
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {plain[0]['attempted']} jobs in "
          f"{monotonic() - start:.1f} s; record in {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':32s} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for p in plain + traced:
        for job in p["jobs"]:
            if not job["ok"]:
                print(f"  FAILED {job.get('argv') or job['call']}: {job['failure']}")
    slowest = max(plain[0]["jobs"], key=lambda j: j["seconds"])
    print(f"  slowest job: {' '.join(slowest.get('argv') or [slowest['call']])} "
          f"({slowest['seconds']:.3f} s)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
