"""Write reference.json: reference terms and the payload digest of every job.

Usage: PYTHONPATH=src python3 perfbench/make_reference.py

Run once, at the commit whose outputs count as correct. The reference terms
w_r(0..80) come from extending the shipped recurrences (r <= 5), checked
here against the scheme series, the multiset recurrence and the Catalan
numbers; r = 6 has no recurrence and uses the scheme series alone. The
digests are those of every job that any seed can generate
(``jobs.universe``).
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs as joblists  # noqa: E402
import worker  # noqa: E402

NTERMS = 81


def reference_terms():
    from avoidwords.fixtures import load_cached_recurrence
    from avoidwords.scheme import word_counts
    from avoidwords.words import count_avoiders_recurrence

    out = {}
    for r in range(1, 7):
        scheme = word_counts(r, NTERMS - 1).terms
        if r <= 5:
            terms = load_cached_recurrence(r).extend(scheme[:30], NTERMS - 1)
            if terms != scheme:
                sys.exit(f"recurrence and scheme disagree for r={r}")
        else:
            terms = scheme
        small = [count_avoiders_recurrence((r,) * n) for n in range(min(12, 60 // r))]
        if terms[: len(small)] != small:
            sys.exit(f"multiset recurrence disagrees for r={r}")
        if r == 1 and any(t != checks.catalan(n) for n, t in enumerate(terms)):
            sys.exit("r=1 terms are not the Catalan numbers")
        out[str(r)] = [str(t) for t in terms]
    return out


def main():
    scratch = HERE.parent / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["AVOIDWORDS_CACHE_DIR"] = tempfile.mkdtemp(dir=scratch)
    reference = {"terms": reference_terms(), "digests": {}}
    for workload in joblists.WORKLOADS:
        routes = {}
        for job in joblists.universe(workload):
            if "call" in job:
                payload, _, _, failure = worker.run_involution(job, None)
                if failure is not None:
                    sys.exit(failure)
            else:
                code, out, _, _, _ = worker.run_cli(job["argv"])
                payload = checks.cli_payload(job, code, out, reference, routes)
            reference["digests"][checks.job_key(job)] = checks.digest(payload)
            print(checks.job_key(job), flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
