"""The benchmark's workloads.

Each workload has three parts:

* `prepare(seed, small)` is set-up: imports and input generation.  It runs
  before the first timed call and is charged to `setup_s`.
* `run(inputs)` is the timed section.  It returns the outputs and the
  (start, end) `perf_counter` times of each op: the whole call on `gate`,
  one word on `y-walk`, one graph closure or suite on `a-trop`.
* `check(outputs)` runs after timing.  It returns (attempted, failed,
  digest): the number of checks, the number that failed, and a digest of the
  outputs that must repeat exactly for the same seed.

`small` selects the reduced sizes the benchmark's own tests use.  All three
workloads are closed-loop with one client: each op starts when the previous
one has returned.
"""

import contextlib
import hashlib
import io
import json
import random
import time

# `verify --suite all` at its default (acceptance) sizes.
GATE_ARGV = ("verify", "--suite", "all")
GATE_SMALL_ARGV = GATE_ARGV + ("--types", "A2,B2", "--trials", "4")

# Type A only: there a word's cost has a standard deviation of about 0.7 of
# its mean (A4..A6, length 10), so a run's total over the seed's words
# varies by about 6% between seeds.  On B3, C3 and D4 it is about 1.0, and
# on B4, C4 and D5 single mutation steps cost up to 5 s, so a run's total
# hinges on which few costly words the seed draws (ten B4/D4/A5 seeds: 7 to
# 28 s).  Those types are measured by `gate` (fpoly-separation) and the
# scale tier.
Y_WALK = {"types": ("A4", "A5", "A6"), "words": 115, "length": 10}
Y_WALK_SMALL = {"types": ("B3", "A4"), "words": 3, "length": 6}

A_TROP = {
    "graph_types": ("E6", "D6"),
    "suite_types": ("E6", "F4"),
    "suites": ("realization", "shift-laws", "decomposition", "d-duality"),
}
A_TROP_SMALL = {
    "graph_types": ("A3", "B3"),
    "suite_types": ("A2", "B2"),
    "suites": ("realization", "d-duality"),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- gate: the verify CLI -------------------------------------------------------


def gate_prepare(seed, small=False):
    from cluster_friezes import cli

    argv = list(GATE_SMALL_ARGV if small else GATE_ARGV)
    return cli, argv + ["--rng-seed", str(seed)]


def gate_run(inputs):
    cli, argv = inputs
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    # per-suite times on stderr are discarded: they read time.time() and
    # count the pool's lock waits
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return (code, out.getvalue()), [(t0, time.perf_counter())]


def gate_check(outputs):
    code, stdout = outputs
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    ok = code == 0 and report is not None and report["failed"] == 0
    return 1, 0 if ok else 1, _digest(stdout)


# -- y-walk: Y-seeds along independent random words ----------------------------


def random_reduced_word(rng, rank, length):
    """A uniform random word with no letter twice in a row."""
    word = [rng.randint(1, rank)]
    while len(word) < length:
        k = rng.randint(1, rank - 1)
        word.append(k if k < word[-1] else k + 1)
    return tuple(word)


def y_walk_prepare(seed, small=False):
    from cluster_friezes import mutation
    from cluster_friezes.finite import named_cartan

    sizes = Y_WALK_SMALL if small else Y_WALK
    rng = random.Random(seed)
    jobs = []
    for name in sizes["types"]:
        b = named_cartan(name).b_matrix()
        for _ in range(sizes["words"]):
            jobs.append((name, b, random_reduced_word(rng, len(b), sizes["length"])))
    return mutation, jobs


def y_walk_run(inputs):
    mutation, jobs = inputs
    results, ops = [], []
    clock = time.perf_counter
    for _, b, word in jobs:
        t0 = clock()
        try:
            seed = mutation.seed_at("Y", b, word)
            results.append((seed, mutation.separation_check(b, word)))
        except Exception as exc:  # a word that raises is a failed check
            results.append((None, f"{type(exc).__name__}: {exc}"))
        ops.append((t0, clock()))
    return (jobs, results), ops


def y_walk_check(outputs):
    jobs, results = outputs
    failed = sum(1 for _, ok in results if ok is not True)
    lines = []
    for (name, _, word), (seed, ok) in zip(jobs, results):
        cluster = [y.to_str() for y in seed.cluster] if seed is not None else None
        lines.append(json.dumps([name, word, cluster, ok]))
    return len(jobs), failed, _digest("\n".join(lines))


# -- a-trop: A-side closure and the gcd-free suites -----------------------------


def a_trop_prepare(seed, small=False):
    from cluster_friezes import verify
    from cluster_friezes.finite import finite_context, named_cartan

    sizes = A_TROP_SMALL if small else A_TROP
    for name in dict.fromkeys(sizes["graph_types"] + sizes["suite_types"]):
        finite_context(named_cartan(name))
    contexts = [(n, finite_context(named_cartan(n))) for n in sizes["graph_types"]]
    return verify, contexts, sizes, seed


def a_trop_run(inputs):
    verify, contexts, sizes, seed = inputs
    outputs, ops = [], []
    clock = time.perf_counter
    for name, ctx in contexts:
        t0 = clock()
        count = len(ctx.a_graph().cluster_variables())
        ops.append((t0, clock()))
        expected = ctx.roots.rank + len(ctx.roots.positive_roots)
        outputs.append(
            (f"a-graph {name}", count == expected, {"variables": count, "expected": expected})
        )
    for suite in sizes["suites"]:
        t0 = clock()
        result = verify.run_suite(suite, types=sizes["suite_types"], rng_seed=seed)
        ops.append((t0, clock()))
        outputs.append((suite, result.passed, result.details))
    return outputs, ops


def a_trop_check(outputs):
    failed = sum(1 for _, ok, _ in outputs if not ok)
    return len(outputs), failed, _digest(json.dumps(outputs, sort_keys=True))


WORKLOADS = {
    "gate": (gate_prepare, gate_run, gate_check),
    "y-walk": (y_walk_prepare, y_walk_run, y_walk_check),
    "a-trop": (a_trop_prepare, a_trop_run, a_trop_check),
}
