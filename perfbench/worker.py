"""One pass of a workload: its job list, back to back, in this interpreter.

Usage: python3 perfbench/worker.py --workload W --seed N --trace 0|1 --out FILE

``run.py`` starts this in a fresh interpreter for every pass, with
``PYTHONPATH`` pointing at the checkout's ``src``, ``AVOIDWORDS_CACHE_DIR`` at a
new empty directory and BLAS threads capped at one. Each CLI job is an
in-process ``avoidwords.cli.main(argv)`` call with its output captured; the
involution job calls ``avoidwords.words`` directly. Only the jobs are timed:
output checks run between them, untimed. The pass result, with every job's
argv, exit code, check outcome and seconds, goes to FILE as JSON.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs as joblists  # noqa: E402
import spans  # noqa: E402

P123, P132 = (1, 2, 3), (1, 3, 2)


def run_cli(argv):
    """(exit code, stdout, stderr, wall s, cpu s) of one in-process CLI call."""
    from avoidwords import cli

    out, err = io.StringIO(), io.StringIO()
    wall, cpu = perf_counter(), process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed job, not a failed pass
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - wall, process_time() - cpu


def run_involution(job, recorder):
    """The involution check over every word in {1..alphabet}^L, L <= max_len.

    Asserts that the map is an involution, keeps the multiset and swaps 123-
    and 132-containment. Returns (payload, wall s, cpu s, failure message or
    None); the payload is a digest of every image and containment flag.
    """
    from avoidwords import words

    involution, contains = words.avoidance_involution, words.contains_pattern
    letters = range(1, job["alphabet"] + 1)
    failure = None
    digest = hashlib.sha256()
    t_map, t_scan, calls = 0.0, 0.0, 0
    wall, cpu = perf_counter(), process_time()
    for length in range(job["max_len"] + 1):
        for word in itertools.product(letters, repeat=length):
            t0 = perf_counter()
            image = involution(word)
            back = involution(image)
            t1 = perf_counter()
            flags = (contains(word, P123), contains(word, P132),
                     contains(image, P123), contains(image, P132))
            t2 = perf_counter()
            t_map += t1 - t0
            t_scan += t2 - t1
            calls += 2
            digest.update(repr((image, flags)).encode())
            if failure is None and (back != word or sorted(image) != sorted(word)
                                    or flags[0] != flags[3] or flags[1] != flags[2]):
                failure = f"involution properties fail at {word}"
    wall, cpu = perf_counter() - wall, process_time() - cpu
    if recorder is not None:
        recorder.add("words.avoidance_involution", "words", t_map, calls)
        recorder.add("words.contains_pattern", "words", t_scan, 2 * calls)
    return {"images": digest.hexdigest()}, wall, cpu, failure


def run_pass(workload, seed, traced, reference):
    recorder = None
    if traced:
        recorder = spans.Recorder()
        rebound = spans.instrument(recorder)
    routes = {}
    results = []
    for job in joblists.job_list(workload, seed):
        entry = dict(job)
        if "call" in job:
            payload, wall, cpu, failure = run_involution(job, recorder)
            entry.update(code=0, output_bytes=0)
            if failure is None:
                try:
                    checks.check_digest(job, payload, reference)
                except checks.CheckError as exc:
                    failure = str(exc)
        else:
            code, out, err, wall, cpu = run_cli(job["argv"])
            entry.update(code=code, output_bytes=len(out))
            failure = None
            try:
                payload = checks.cli_payload(job, code, out, reference, routes)
                checks.check_digest(job, payload, reference)
            except (checks.CheckError, ValueError, KeyError, IndexError, AttributeError) as exc:
                failure = f"{type(exc).__name__}: {exc}"
                if err.strip():
                    failure += f"; stderr: {err.strip().splitlines()[-1]}"
        entry.update(seconds=wall, cpu_seconds=cpu, ok=failure is None, failure=failure)
        results.append(entry)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    doc = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "jobs": results,
        "wall_s": sum(j["seconds"] for j in results),
        "cpu_s": sum(j["cpu_seconds"] for j in results),
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "failed": sum(not j["ok"] for j in results),
        "attempted": len(results),
    }
    if recorder is not None:
        recorder.values["cli.output_bytes"] = sum(j["output_bytes"] for j in results)
        doc["layers"] = spans.layer_metrics(recorder)
        doc["spans"] = {"count": len(recorder.spans), "names_rebound": rebound,
                        "by_name": recorder.table(),
                        "hook_errors": recorder.values["trace.hook_errors"]}
    return doc


def versions():
    import mpmath
    import numpy

    import avoidwords

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "avoidwords": avoidwords.__version__,
            "avoidwords_path": avoidwords.__file__}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=joblists.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    import avoidwords

    src = HERE.parent / "src"
    if not Path(avoidwords.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"avoidwords was imported from {avoidwords.__file__}, not from {src}")
    reference = json.loads((HERE / "reference.json").read_text())
    doc = run_pass(args.workload, args.seed, bool(args.trace), reference)
    doc["versions"] = versions()
    doc["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    Path(args.out).write_text(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
