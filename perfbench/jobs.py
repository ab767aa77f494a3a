"""Seeded job lists for the benchmark workloads.

A job is a dict. CLI jobs carry ``argv``, the arguments of one in-process
``avoidwords.cli.main(argv)`` call. The one job without a subcommand, the
involution check, carries ``call: "involution"`` instead.

The seed picks parameters within each band, the job order and which jobs
repeat; the bands are narrow so that total work stays roughly the same
across seeds. ``universe(workload)`` lists every job any seed can produce,
which is what ``make_reference.py`` records digests for.
"""

import random

WORKLOADS = ("count", "algebra", "oracle")

# r * nmax band of the scheme-method count jobs; scheme work grows as its
# square, so a wider band makes seeds differ in work
SCHEME_SPAN = (740, 760)
# (order, degree) and (deg_x, deg_f) bounds of the guess jobs
RECURRENCE_BOUNDS = {2: (2, 3), 3: (2, 5), 4: (4, 6), 5: (4, 8)}
ALGEBRAIC_BOUNDS = {2: (2, 4), 3: (4, 8)}
BRUTE_CASES = ((1, 11), (2, 6), (3, 4))
# nmax of the multiset-recurrence jobs for r=3 and r=5; fixed, because the
# r=3 cost jumps by a fifth from nmax 35 to 36
RECURRENCE_CASES = {3: 36, 5: 22}
INVOLUTION = {"call": "involution", "alphabet": 4, "max_len": 8}
# the r=3 resultant chain swings from 0.65 to 1.45 s with the load on a
# shared host, far more than the guessing kernels do; as a workload of its
# own its run-to-run spread exceeded the 0.25 bound, so the eliminations ride
# with the guesses
R3_ELIMINATIONS = 2


def _count(r, nmax, method, fmt):
    argv = ["count", "--r", str(r), "--nmax", str(nmax), "--method", method]
    return {"argv": argv + ["--format", fmt]}


def _guess_recurrence(r, fmt):
    order, degree = RECURRENCE_BOUNDS[r]
    return {"argv": ["guess", "--r", str(r), "--max-order", str(order),
                     "--max-degree", str(degree), "--format", fmt]}


def _guess_algebraic(r, fmt):
    dx, df = ALGEBRAIC_BOUNDS[r]
    return {"argv": ["guess", "--r", str(r), "--algebraic", "--max-deg-x", str(dx),
                     "--max-deg-f", str(df), "--format", fmt]}


def _eliminate(r, backend):
    return {"argv": ["eliminate", "--r", str(r), "--backend", backend, "--no-cache"]}


def _asympt(r, fmt):
    return {"argv": ["asympt", "--r", str(r), "--nmax", "2000", "--format", fmt]}


def job_list(workload, seed):
    """The jobs of one pass of `workload`, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    fmt3 = ("text", "json", "bfile")
    fmt2 = ("text", "json")
    if workload == "count":
        scheme = [_count(r, rng.randint(*SCHEME_SPAN) // r, "scheme", rng.choice(fmt3))
                  for r in range(3, 7)]
        # b-files, the sequence-database format: the 2001-term outputs run to
        # 4.5 MB, and a seeded format choice here would move peak memory
        linear = [_count(r, 2000, "linear-rec", "bfile") for r in range(3, 6)]
        asympt = [_asympt(r, rng.choice(fmt2)) for r in range(1, 6)]
        # one repeat of each kind, so the cache serves a read of every kind
        # it stores and the work per pass does not depend on the seed's pick
        repeats = [dict(rng.choice(group)) for group in (scheme, linear, asympt)]
        jobs = scheme + linear + asympt + repeats
        rng.shuffle(jobs)
        return jobs
    if workload == "algebra":
        jobs = [_guess_recurrence(r, rng.choice(fmt2)) for r in RECURRENCE_BOUNDS]
        jobs += [_guess_algebraic(r, rng.choice(fmt2)) for r in ALGEBRAIC_BOUNDS]
        jobs += [_eliminate(r, b) for r in (1, 2) for b in ("resultants", "buchberger")]
        jobs += [_eliminate(3, "resultants") for _ in range(R3_ELIMINATIONS)]
        rng.shuffle(jobs)
        return jobs
    if workload == "oracle":
        jobs = [_count(r, n, "brute", rng.choice(fmt3)) for r, n in BRUTE_CASES]
        jobs += [_count(r, n, "scheme", rng.choice(fmt3))
                 for r, n in BRUTE_CASES[:2] + tuple(RECURRENCE_CASES.items())]
        jobs.append(dict(INVOLUTION))
        rng.shuffle(jobs)
        # the multiset-recurrence memo persists within a pass and r=5 reuses
        # r=3's entries, so these two keep a fixed order to keep work level
        at = rng.randint(0, len(jobs))
        jobs[at:at] = [_count(r, n, "recurrence", rng.choice(fmt3))
                       for r, n in RECURRENCE_CASES.items()]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def universe(workload):
    """Every distinct job `job_list(workload, seed)` can produce, formats aside."""
    if workload == "count":
        lo, hi = SCHEME_SPAN
        jobs = [_count(r, nmax, "scheme", "json") for r in range(3, 7)
                for nmax in sorted({c // r for c in range(lo, hi + 1)})]
        jobs += [_count(r, 2000, "linear-rec", "json") for r in range(3, 6)]
        jobs += [_asympt(r, "json") for r in range(1, 6)]
        return jobs
    if workload == "algebra":
        return ([_guess_recurrence(r, "json") for r in RECURRENCE_BOUNDS]
                + [_guess_algebraic(r, "json") for r in ALGEBRAIC_BOUNDS]
                + [_eliminate(r, b) for r in (1, 2) for b in ("resultants", "buchberger")]
                + [_eliminate(3, "resultants")])
    if workload == "oracle":
        cases = BRUTE_CASES + tuple(RECURRENCE_CASES.items())
        return [_count(r, n, "scheme", "json") for r, n in cases] + [dict(INVOLUTION)]
    raise ValueError(f"unknown workload {workload!r}")
