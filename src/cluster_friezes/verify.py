"""Cross-verification suites: every object is recomputed along at least two
independent routes and compared exactly.  The CLI `verify` subcommand and the
acceptance tests both run these."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .errors import BudgetExceeded, InternalDisagreement
from .finite import (
    d_duality_check,
    decompose_hammocks,
    fim_recursion,
    finite_context,
    named_cartan,
    pairing,
    verify_periodicity,
)
from .friezes import (
    FriezeFunction,
    PLMap,
    f_from_trop_point,
    hammock,
    k_from_trop_point,
    shift_trop,
    slice_step,
)
from .laurent import RationalFunction, _product
from .mutation import (
    SEED_BUDGET,
    _belt_vertex,
    _child,
    _identity,
    _is_global_Y_at,
    _separation_at,
    enumerate_exchange_graph,
    gcf_pattern,
    matrix_pattern,
    seed_pattern,
)
from .tropical import TropPoint, _charts, _trop_point, check_admissible_A

DEFAULT_TYPES = ("A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2")
SMALL_TYPES = ("A2", "A3", "B2", "G2")

EXPECTED_VARIABLE_COUNTS = {
    "A2": 5, "A3": 9, "A4": 14, "B2": 6, "B3": 12, "C3": 12, "D4": 16, "G2": 8,
}


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_sec": round(self.elapsed, 3),
            "details": self.details,
        }


def _rand_coords(rng, r, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(r))


def _rank2_y_chain():
    """The five expected seeds of the rank-2 five-step mutation chain, built
    directly from field arithmetic."""
    y1 = RationalFunction.variable(1, 2)
    y2 = RationalFunction.variable(2, 2)
    one = RationalFunction.one(2)
    return [
        (y1, y2),
        (y1 ** -1, y2 * (one + y1)),
        ((one + y2 + y1 * y2) / y1, (y2 * (one + y1)) ** -1),
        (y1 / (one + y2 + y1 * y2), (one + y2) / (y1 * y2)),
        (y2 ** -1, y1 * y2 / (one + y2)),
        (y2, y1),
    ]


def suite_remark_not_in(**_):
    """Rank-2 reproduction: 10 Y-variables, the 5-step chain, 5 globals."""
    b = ((0, -1), (1, 0))
    graph = enumerate_exchange_graph("Y", b, 100)
    seeds = graph.seeds.values()
    variables = {y: (s.vertex, i) for s in seeds for i, y in enumerate(s.cluster)}
    details = {"y_variables": len(variables), "y_seeds": len(graph.seeds)}
    ok = len(variables) == 10 and len(graph.seeds) == 5

    seed_at_vertex = seed_pattern("Y", b)._walk.get
    v = 0
    expected = _rank2_y_chain()
    chain_ok = seed_at_vertex(v).cluster == expected[0]
    for step, k in enumerate([1, 2, 1, 2, 1], start=1):
        v = _child(v, k)
        chain_ok = chain_ok and seed_at_vertex(v).cluster == expected[step]
    details["chain_matches"] = chain_ok
    ok = ok and chain_ok

    y1 = RationalFunction.variable(1, 2)
    y2 = RationalFunction.variable(2, 2)
    one = RationalFunction.one(2)
    listed_globals = {
        y1,
        y2 * (one + y1),
        (one + y2 + y1 * y2) / y1,
        (one + y2) / (y1 * y2),
        y2 ** -1,
    }
    globals_by_column = set()
    globals_by_expansion = set()
    for y, (v, i) in variables.items():
        if _is_global_Y_at(matrix_pattern(b), v, _identity(2)[i]):
            globals_by_column.add(y)
        # independent route: expand in every chart and test Laurentness;
        # stored entries are written in root-chart coordinates
        if all(expr.is_laurent() for _, _, _, expr in _charts(y, "Y", b)):
            globals_by_expansion.add(y)
    details["globals_by_column"] = len(globals_by_column)
    details["globals_by_expansion"] = len(globals_by_expansion)
    ok = ok and globals_by_column == globals_by_expansion == listed_globals
    return ok, details


def _over_types(types, check, rng_seed=None):
    """(ok, details) of `check(name, cartan, ctx, rng) -> (ok, entry)` on each
    named type in turn, the entry filed under the name; all types draw from
    one random.Random(rng_seed), whose seed the details record if given.
    A type whose check runs out of budget fails as "budget exceeded".  An
    empty type list raises ValueError: it would pass with nothing checked."""
    if not types:
        raise ValueError("no types to check")
    rng = random.Random(rng_seed)
    details = {} if rng_seed is None else {"rng_seed": rng_seed}
    ok = True
    for name in types:
        cartan = named_cartan(name)
        try:
            type_ok, details[name] = check(name, cartan, finite_context(cartan), rng)
        except BudgetExceeded:
            type_ok, details[name] = False, "budget exceeded"
        ok = ok and type_ok
    return ok, details


def suite_closure_counts(types=DEFAULT_TYPES, budget=SEED_BUDGET, **_):
    """Variable counts of the finite exchange graphs against the root count."""

    def check(name, cartan, ctx, rng):
        graph = enumerate_exchange_graph("A", ctx.belts.bt, budget)
        # distinct cluster entries, counted without the addresses
        # cluster_variables builds
        count = len({x for seed in graph.seeds.values() for x in seed.cluster})
        expected = ctx.roots.rank + len(ctx.roots.positive_roots)
        ok = count == expected
        if name in EXPECTED_VARIABLE_COUNTS:
            ok = ok and count == EXPECTED_VARIABLE_COUNTS[name]
        return ok, {"variables": count, "expected": expected}

    return _over_types(types, check)


def suite_periodicity(types=DEFAULT_TYPES, trials=200, rng_seed=0, **_):
    """Gliding-symmetry invariance of generic patterns and random functions."""

    def check(name, cartan, ctx, rng):
        r = cartan.rank
        m_hi = 2 * max(ctx.roots.orbit_lengths) + 4
        at = cartan.transpose()
        # a generator, so that each random function is dropped once scanned
        friezes = (
            FriezeFunction.from_slice(
                ("tropical-frieze", "cluster-additive")[trial % 2],
                (cartan, at)[(trial // 2) % 2],
                _rand_coords(rng, r),
            )
            for trial in range(trials)
        )
        violations = verify_periodicity(cartan, -2, m_hi, friezes)
        generic_bad = sum(1 for tag, _, _ in violations if tag in ("x", "y"))
        bad = len(violations) - generic_bad
        return generic_bad == 0 and bad == 0, {
            "generic_violations": generic_bad, "violations": bad,
        }

    return _over_types(types, check, rng_seed)


def suite_realization(types=SMALL_TYPES, trials=100, rng_seed=0, **_):
    """Coordinate readback along the belt equals the defining recursions."""

    def check(name, cartan, ctx, rng):
        r = cartan.rank
        bad = 0
        for _ in range(trials):
            coords = _rand_coords(rng, r)
            dsv = TropPoint("A", ctx.belts.bt, coords)
            f = f_from_trop_point(dsv, cartan)
            f_rec = FriezeFunction.from_slice(
                "tropical-frieze", cartan.transpose(), f.slice_at(0)
            )
            if not f.agrees_with(f_rec, -6, 6):
                bad += 1
            rho = TropPoint("Y", ctx.belts.b, coords)
            k = k_from_trop_point(rho, cartan)
            k_rec = FriezeFunction.from_slice("cluster-additive", cartan, k.slice_at(0))
            if not k.agrees_with(k_rec, -6, 6):
                bad += 1
        return bad == 0, {"disagreements": bad}

    return _over_types(types, check, rng_seed)


def suite_pairing(types=SMALL_TYPES, trials=50, rng_seed=0, **_):
    """Triple agreement of the duality pairing, which is built on the
    explicit monomial bijections; each is checked against the chamber
    search, and every check raises on mismatch."""

    def check(name, cartan, ctx, rng):
        r = cartan.rank
        checked = 0
        for _ in range(trials):
            delta = TropPoint("A", ctx.belts.bt, _rand_coords(rng, r))
            rho = TropPoint("Y", ctx.belts.b, _rand_coords(rng, r))
            pairing(cartan, delta, rho)
            checked += 1
        return True, {"pairs": checked}

    return _over_types(types, check, rng_seed)


def suite_decomposition(types=DEFAULT_TYPES, trials=100, rng_seed=0, **_):
    """Hammock decomposition reconstructs exactly; hammocks satisfy the
    tropical-frieze recursion."""

    def check(name, cartan, ctx, rng):
        r = cartan.rank
        dom = ctx.roots.fundamental_domain()
        m_hi = max(m for _, m in dom)
        ok = True
        for i, m in dom:
            h = hammock(cartan, i, m)
            as_frieze = FriezeFunction("tropical-frieze", cartan, h.slice_at)
            if not as_frieze.satisfies_recursion(-2, m_hi + 2):
                ok = False
        bad = 0
        for _ in range(trials):
            k = FriezeFunction.from_slice(
                "cluster-additive", cartan, _rand_coords(rng, r)
            )
            try:
                decompose_hammocks(cartan, k)
            except InternalDisagreement:
                bad += 1
        return ok and bad == 0, {"failures": bad}

    return _over_types(types, check, rng_seed)


def suite_d_duality(types=SMALL_TYPES, **_):
    def check(name, cartan, ctx, rng):
        bad = d_duality_check(cartan)
        return not bad, {"violations": len(bad)}

    return _over_types(types, check)


def suite_fpoly_separation(types=DEFAULT_TYPES, budget=SEED_BUDGET, **_):
    """Coefficient-polynomial recursion against the principal-coefficient
    pattern, and the separation identity at every enumerated vertex."""

    def check(name, cartan, ctx, rng):
        r = cartan.rank
        table = fim_recursion(cartan)
        gcf_at = gcf_pattern(ctx.belts.b)._walk.get
        mismatches = 0
        for (i, m), poly in table.items():
            if gcf_at(_belt_vertex(i, m, r))[3][i - 1] != poly:
                mismatches += 1
        sep_fail = 0
        for seed in enumerate_exchange_graph("Y", ctx.belts.b, budget).seeds.values():
            if not _separation_at(ctx.belts.b, seed):
                sep_fail += 1
        return mismatches == 0 and sep_fail == 0, {
            "fpoly_mismatches": mismatches, "separation_failures": sep_fail,
        }

    return _over_types(types, check)


def suite_shift_laws(types=SMALL_TYPES, trials=1000, rng_seed=0, **_):
    """Slice stepping, piecewise-linear round trips, and the tropical shift."""

    def check(name, cartan, ctx, rng):
        r = cartan.rank
        per_type = max(1, trials // len(types))
        eplus, eminus = PLMap(cartan, "+"), PLMap(cartan, "-")
        bad = 0
        for _ in range(per_type):
            v = _rand_coords(rng, r, -6, 6)
            if eplus.invert(eplus.apply(v)) != v or eminus.invert(eminus.apply(v)) != v:
                bad += 1
            k = FriezeFunction.from_slice("cluster-additive", cartan, v)
            if slice_step(cartan, v) != k.slice_at(1):
                bad += 1
            rho = TropPoint("Y", ctx.belts.b, _rand_coords(rng, r))
            shifted = shift_trop(rho, cartan)
            k0 = k_from_trop_point(rho, cartan)
            k1 = k_from_trop_point(shifted, cartan)
            if any(k1.slice_at(m) != k0.slice_at(m - 1) for m in range(-3, 4)):
                bad += 1
            reanchored = _trop_point("Y", rho.b0, rho.at_root(), _belt_vertex(1, 1, r))
            if shifted != reanchored:
                bad += 1
        return bad == 0, {"failures": bad}

    return _over_types(types, check, rng_seed)


def suite_admissibility(types=("A2", "B2"), rng_seed=0, budget=SEED_BUDGET, **_):
    """Finite-type characterization: cluster monomials pass against their
    g-vectors at full depth, two-term sums fail against every sampled point."""

    def check(name, cartan, ctx, rng):
        r = cartan.rank
        seeds = enumerate_exchange_graph("A", ctx.belts.bt, budget).seeds.values()
        depth = 2 * len(seeds)
        ok = True
        checked = 0
        # the unit vectors, all ones, and (2, 1, ..., 1)
        exp_sets = _identity(r) + ((1,) * r, (2,) + (1,) * (r - 1))
        for seed in seeds:
            for exps in exp_sets:
                mono = _product(zip(seed.cluster, exps), RationalFunction.one(r))
                coords = tuple(-e for e in exps)
                rho = _trop_point("Y", ctx.belts.b, coords, seed.vertex)
                if check_admissible_A(mono, rho, depth) is not True:
                    ok = False
                checked += 1
        sums_checked = 0
        # a sum of two distinct cluster monomials of the initial seed
        x1 = RationalFunction.variable(1, r)
        two_term = x1 + (RationalFunction.variable(2, r) if r > 1 else 1)
        for _ in range(25):
            rho = TropPoint("Y", ctx.belts.b, _rand_coords(rng, r))
            if check_admissible_A(two_term, rho, depth) is not False:
                ok = False
            sums_checked += 1
        return ok, {"monomials": checked, "sums": sums_checked}

    return _over_types(types, check, rng_seed)


SUITES = {
    "remark-not-in": suite_remark_not_in,
    "closure-counts": suite_closure_counts,
    "periodicity": suite_periodicity,
    "realization": suite_realization,
    "pairing": suite_pairing,
    "decomposition": suite_decomposition,
    "d-duality": suite_d_duality,
    "fpoly-separation": suite_fpoly_separation,
    "shift-laws": suite_shift_laws,
    "admissibility": suite_admissibility,
}


def run_suite(name, **kwargs) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    t0 = time.perf_counter()
    passed, details = SUITES[name](**kwargs)
    return SuiteResult(name, passed, time.perf_counter() - t0, details)


def run_all(**kwargs):
    """Run every suite with the same keyword arguments on a four-thread pool
    (the shared memos are lock-protected); results keep the registry order."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(run_suite, name, **kwargs) for name in SUITES]
        return [f.result() for f in futures]
