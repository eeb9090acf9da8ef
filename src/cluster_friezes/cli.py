"""Command-line front end.

Subcommands: frieze, mutate, trop, pairing, monomial, decompose, hammock,
fpoly, verify.  Tables are emitted as TSV (rows indexed by i, columns by m)
or JSON; all randomness is seeded and the seed is echoed in the output.

Exit codes: 0 success / verification passed, 1 verification failure,
2 invalid input, 3 budget or overflow, 4 internal route disagreement or any
other failed internal law (inexact division, zero denominator, lost search,
failed pseudo-division or F-polynomial shape).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotDivisible,
    NotFiniteType,
    NotFound,
    TropOverflow,
    ZeroDenominator,
)
from .finite import (
    _x_from_rho,
    _y_from_delta,
    decompose_hammocks,
    fim_recursion,
    finite_context,
    named_cartan,
    pairing,
)
from .friezes import (
    CartanMatrix,
    FriezeFunction,
    _check_window,
    belts,
    hammock,
)
from .mutation import SEED_BUDGET, matrix_pattern, reduce_word, seed_at
from .tropical import TropPoint, principal_wide_root
from .verify import SUITES, run_all, run_suite


def _parse_ints(text):
    return tuple(int(x) for x in text.replace(" ", "").split(",") if x != "")


def _json_ints(value, what):
    """A JSON array of integers as a tuple.  Floats and booleans are refused
    rather than truncated: every input is an exact integer."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be a JSON array of integers")
    return tuple(value)


def _json_matrix(value, what):
    """A nonempty JSON array of integer rows as a tuple of tuples."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"{what} must be a nonempty JSON array of rows")
    return tuple(_json_ints(row, f"each row of {what}") for row in value)


def _json_object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


# Largest |m| a window, or the anchor column of `hammock`, may reach.  A
# cell's cost grows with |m| (the belt vertex t(i, m) lies about r*|m| edges
# from the root), so a column past it is refused before any cell is computed.
WINDOW_LIMIT = 1000

# Largest `verify --trials`, ten times the largest acceptance size (1,000,
# shift-laws); a larger count is refused before any suite runs.
TRIALS_LIMIT = 10_000


def _parse_window(text):
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi)
    _check_window(lo, hi)
    if max(abs(lo), abs(hi)) > WINDOW_LIMIT:
        raise BudgetExceeded(f"window {text!r} reaches past |m| = {WINDOW_LIMIT}")
    return lo, hi


def _load_cartan(args) -> CartanMatrix:
    src = args.cartan
    if src.startswith("[") or src.endswith(".json"):
        if src.endswith(".json"):
            with open(src) as fh:
                data = json.load(fh)
        else:
            data = json.loads(src)
        if isinstance(data, dict):
            data = data["A"]
        return CartanMatrix(_json_matrix(data, "--cartan"))
    return named_cartan(src)


def _emit_table(args, cell, r, m_lo, m_hi):
    """Print cell(i, m) for rows i = 1..r and columns m = m_lo..m_hi, as TSV
    or, with --format json, as JSON."""
    columns = range(m_lo, m_hi + 1)
    rows = [(i, [cell(i, m) for m in columns]) for i in range(1, r + 1)]
    if args.format == "json":
        payload = {
            "columns": list(columns),
            "rows": [{"i": i, "values": values} for i, values in rows],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\t".join(["i\\m"] + [str(m) for m in columns]))
        for i, values in rows:
            print("\t".join([str(i)] + [str(v) for v in values]))


def cmd_frieze(args):
    cartan = _load_cartan(args)
    r = cartan.rank
    m_lo, m_hi = _parse_window(args.window)
    kind = args.kind
    if kind in ("trop", "cluster-additive", "additive"):
        if args.slice is None:
            raise ValueError("--slice is required for Z-valued friezes")
        values = _parse_ints(args.slice)
        name = "tropical-frieze" if kind == "trop" else kind
        f = FriezeFunction.from_slice(name, cartan, values)
        _emit_table(args, f.value, r, m_lo, m_hi)
        return 0
    if kind in ("generic-a", "generic-y"):
        b = belts(cartan)
        fn = b.x_sv if kind == "generic-a" else b.y
        names = [f"x{i}" for i in range(1, r + 1)] if kind == "generic-a" else [
            f"y{i}" for i in range(1, r + 1)
        ]
        _emit_table(args, lambda i, m: fn(i, m).to_str(names), r, m_lo, m_hi)
        return 0
    raise ValueError(f"unknown frieze kind {args.kind!r}")


def cmd_mutate(args):
    if args.json:
        if args.json == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.json) as fh:
                doc = json.load(fh)
        doc = _json_object(doc, "--json")
    elif args.B:
        doc = {"B": json.loads(args.B), "word": list(_parse_ints(args.word or ""))}
    else:
        raise ValueError("mutate needs --B or --json")
    b = _json_matrix(doc["B"], "B")
    if any(len(row) != len(b) for row in b):
        raise DimensionMismatch("mutation matrix must be square")
    # mutation keeps B skew-symmetrizable, so its pattern validates B once
    pattern = matrix_pattern(b)
    word = reduce_word(_json_ints(doc.get("word", []), "word"))
    out = {"B0": [list(r) for r in b], "word": list(word)}
    out["B"] = [list(r) for r in pattern.at(word)]
    if args.kind in ("a-seed", "y-seed"):
        kind = "A" if args.kind == "a-seed" else "Y"
        seed = seed_at(kind, b, word)
        names = [f"{'x' if kind == 'A' else 'y'}{i}" for i in range(1, len(b) + 1)]
        out["cluster"] = [v.to_str(names) for v in seed.cluster]
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_trop(args):
    cartan = _load_cartan(args)
    r = cartan.rank
    b = belts(cartan)
    if args.point:
        doc = _json_object(json.loads(args.point), "--point")
        space = doc["space"]
        anchor = _json_ints(doc.get("anchor", []), "anchor")
        coords = _json_ints(doc["coords"], "coords")
    elif args.coords is None:
        raise ValueError("trop needs --coords or --point")
    else:
        space = args.space
        anchor = _parse_ints(args.anchor) if args.anchor else ()
        coords = _parse_ints(args.coords)
    # a tuple, not the dict below: an unhashable space must not raise TypeError
    if space not in ("A", "Y", "Yprin"):
        raise ValueError("space must be A (of B^T), Y (of B), or Yprin")
    roots = {"A": b.bt, "Y": b.b, "Yprin": principal_wide_root(b.b)}
    point = TropPoint(space, roots[space], coords, anchor)
    m_lo, m_hi = _parse_window(args.window)
    _emit_table(args, point.belt_value, r, m_lo, m_hi)
    return 0


def cmd_pairing(args):
    cartan = _load_cartan(args)
    b = belts(cartan)
    delta = TropPoint("A", b.bt, _parse_ints(args.delta))
    rho = TropPoint("Y", b.b, _parse_ints(args.rho))
    # pairing() raises unless its three routes agree, so every witness is its value
    value = pairing(cartan, delta, rho)
    witness = {
        "pairing": value,
        "via_x_monomial": value,
        "via_y_monomial": value,
        "via_domain_sum": value,
    }
    print(json.dumps(witness, sort_keys=True))
    return 0


def cmd_monomial(args):
    cartan = _load_cartan(args)
    r = cartan.rank
    b = belts(cartan)
    coords = _parse_ints(args.coords)
    # one chamber search: the bijection returns the seed it found, and
    # raises unless its own monomial agrees with that seed's
    if args.space == "A":
        rho = TropPoint("Y", b.b, coords)
        seed, exps, dom_exps, expr = _x_from_rho(cartan, rho)
        out = {
            "space": "A",
            "address": list(seed.address),
            "exponents": list(exps),
            "expression": expr.to_str([f"x{i}" for i in range(1, r + 1)]),
            "domain_exponents": {f"{i},{m}": e for (i, m), e in sorted(dom_exps.items())},
        }
    else:
        delta = TropPoint("A", b.bt, coords)
        seed, exps, expr = _y_from_delta(cartan, delta)
        out = {
            "space": "Y",
            "address": list(seed.address),
            "exponents": list(exps),
            "expression": expr.to_str([f"y{i}" for i in range(1, r + 1)]),
        }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_decompose(args):
    cartan = _load_cartan(args)
    values = _parse_ints(args.slice)
    k = FriezeFunction.from_slice("cluster-additive", cartan, values)
    # decompose_hammocks raises unless the hammocks rebuild k exactly
    parts = decompose_hammocks(cartan, k)
    out = {
        "slice": list(values),
        "hammocks": [
            {"i": i, "m": m, "multiplicity": mult}
            for (i, m), mult in sorted(parts.items())
        ],
        "reconstruction_exact": True,
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_hammock(args):
    cartan = _load_cartan(args)
    m_lo, m_hi = _parse_window(args.window)
    if abs(args.m) > WINDOW_LIMIT:
        raise BudgetExceeded(f"--m {args.m} is past |m| = {WINDOW_LIMIT}")
    h = hammock(cartan, args.i, args.m)
    _emit_table(args, h.value, cartan.rank, m_lo, m_hi)
    return 0


def cmd_fpoly(args):
    cartan = _load_cartan(args)
    r = cartan.rank
    if args.window:
        m_lo, m_hi = _parse_window(args.window)
    else:
        m_lo, m_hi = 0, max(finite_context(cartan).roots.orbit_lengths) + 1
    table = fim_recursion(cartan, m_hi=m_hi, m_lo=m_lo)
    names = [f"p{i}" for i in range(1, r + 1)]
    _emit_table(args, lambda i, m: table[(i, m)].to_str(names), r, m_lo, m_hi)
    return 0


def cmd_verify(args):
    for flag, count in (("--trials", args.trials), ("--budget", args.budget)):
        if count is not None and count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    if args.trials is not None and args.trials > TRIALS_LIMIT:
        raise BudgetExceeded(f"--trials {args.trials} exceeds {TRIALS_LIMIT}")
    kwargs = {
        "rng_seed": args.rng_seed,
        "trials": args.trials,
        "budget": args.budget,
    }
    if args.types is not None:
        # every name is read here, as remark-not-in reads no type list
        kwargs["types"] = types = tuple(args.types.split(","))
        for name in types:
            named_cartan(name)
    if args.suite == "all":
        results = run_all(**kwargs)
    else:
        results = [run_suite(args.suite, **kwargs)]
    # timings go to stderr so identical invocations stay byte-identical on stdout
    suites = []
    for r in results:
        d = r.as_dict()
        print(f"{r.suite}: {d.pop('elapsed_sec')}s", file=sys.stderr)
        suites.append(d)
    report = {
        "rng_seed": args.rng_seed,
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
        "suites": suites,
    }
    print(json.dumps(report, sort_keys=True))
    return 0 if report["failed"] == 0 else 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors like every other invalid input: exit 2 with a
    JSON diagnostic (see `main`), not argparse's usage text."""

    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(
        prog="cluster-friezes",
        description="Exact cluster mutation, tropical friezes and the "
        "finite-type duality pairing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=False):
        p.add_argument(
            "--cartan",
            required=True,
            help="type name (A1..A8, B2..B5, C2..C5, D4..D6, E6..E8, F4, G2), "
            "inline JSON rows, or a .json path",
        )
        if table:
            p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = sub.add_parser("frieze", help="Z-valued or generic frieze tables")
    common(p, table=True)
    p.add_argument(
        "--kind",
        required=True,
        choices=("trop", "cluster-additive", "additive", "generic-a", "generic-y"),
    )
    p.add_argument("--slice", help="comma-separated seed slice at m=0")
    p.add_argument("--window", default="0..4", help="column range lo..hi")
    p.set_defaults(fn=cmd_frieze)

    p = sub.add_parser("mutate", help="mutate a matrix or seed along a word")
    p.add_argument("--json", help="path to {\"B\": [[..]], \"word\": [..]} or -")
    p.add_argument("--B", help="inline JSON matrix")
    p.add_argument("--word", help="comma-separated directions")
    p.add_argument("--kind", choices=("matrix", "a-seed", "y-seed"), default="matrix")
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("trop", help="belt coordinates of a tropical point")
    common(p, table=True)
    p.add_argument("--space", choices=("A", "Y"))
    p.add_argument("--coords")
    p.add_argument("--anchor", help="anchor word, default root")
    p.add_argument(
        "--point",
        help='JSON document {"space": "A"|"Y", "anchor": [..], "coords": [..]}',
    )
    p.add_argument("--window", default="0..4")
    p.set_defaults(fn=cmd_trop)

    p = sub.add_parser("pairing", help="duality pairing with per-route witness")
    common(p)
    p.add_argument("--delta", required=True, help="A-space coords at the root")
    p.add_argument("--rho", required=True, help="Y-space coords at the root")
    p.set_defaults(fn=cmd_pairing)

    p = sub.add_parser("monomial", help="global monomial attached to a point")
    common(p)
    p.add_argument("--space", choices=("A", "Y"), required=True)
    p.add_argument("--coords", required=True)
    p.set_defaults(fn=cmd_monomial)

    p = sub.add_parser("decompose", help="hammock decomposition of a slice")
    common(p)
    p.add_argument("--slice", required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("hammock", help="hammock function table")
    common(p, table=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--window", default="-2..5")
    p.set_defaults(fn=cmd_hammock)

    p = sub.add_parser("fpoly", help="belt coefficient polynomials F(i,m)")
    common(p, table=True)
    p.add_argument("--window", help="column range lo..hi, default the domain")
    p.set_defaults(fn=cmd_fpoly)

    p = sub.add_parser("verify", help="run cross-verification suites")
    p.add_argument("--suite", default="all", choices=("all",) + tuple(sorted(SUITES)))
    p.add_argument("--types", help="comma-separated type names")
    p.add_argument("--trials", type=int)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=SEED_BUDGET,
                   help="most seeds per graph in closure-counts, fpoly-separation, "
                   f"admissibility (pairing: {SEED_BUDGET:,})")
    p.set_defaults(fn=cmd_verify)

    return parser


def _diagnostic(code, kind, message):
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _merge_negative_values(argv):
    """Join '--flag -1..4' into '--flag=-1..4' so argparse does not read
    leading-minus values (windows, slices, coordinates) as options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and len(nxt) > 1
            and nxt[0] == "-"
            and nxt[1].isdigit()
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except _UsageError as exc:
        return _diagnostic(2, "UsageError", str(exc))
    try:
        return args.fn(args)
    except (BudgetExceeded, TropOverflow) as exc:
        return _diagnostic(3, type(exc).__name__, str(exc))
    except (AssertionError, NotDivisible, NotFound, ZeroDenominator) as exc:
        # a law the code relies on failed (InternalDisagreement included)
        return _diagnostic(4, type(exc).__name__, str(exc))
    except (ValueError, KeyError, OSError, NotFiniteType) as exc:
        return _diagnostic(2, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
