"""Fuzz the CLI over a small argv grammar: every subcommand, types of rank at
most 3, and malformed integers, windows, JSON documents, floats, booleans,
empty or blank type lists and missing or unknown flags.

Every run must end in a documented exit code.  A verification failure
(exit 1) reports on stdout, as the JSON report of `verify`; every other
nonzero exit puts a JSON diagnostic with an "error" key on stderr, never a
traceback.  Sizes are bounded (windows inside -2..3, short words and
anchors, a few trials) so that each example runs in well under a second.
"""

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cluster_friezes.cli import main

# (--cartan value, rank); generic friezes only run on FINITE, whose belt
# patterns stay small
FINITE = [
    ("A1", 1), ("A2", 2), ("a2", 2), ("A3", 3), ("B2", 2), ("B3", 3), ("C3", 3),
    ("G2", 2), ("[[2,-1],[-1,2]]", 2), ("[[2,-2],[-2,2]]", 2),  # A2, affine
]
OTHER = [("[[2,-1],[-3,2]]", 2), ("[[2,-2,0],[-2,2,-1],[0,-1,2]]", 3)]
BAD_CARTANS = [
    "Z9", "A", "", "A9", "x.json", "[[2,-1.0],[-1,2]]", "[[2,true],[-1,2]]",
    "[1,2]", "[]", "[[]]", "[[2,-1],[-1]]", "[[2,1],[1,2]]", "[[2,-1],[0,2]]",
    "[[3]]", "[[", '{"A": [[2]]}',
]
SUITES = [
    "remark-not-in", "closure-counts", "periodicity", "realization", "pairing",
    "decomposition", "d-duality", "fpoly-separation", "shift-laws",
    "admissibility", "bogus",
]
SMALL = st.integers(-3, 3)
# one value near the checked limit of tropical arithmetic: it must end in
# TropOverflow or, where it becomes the exponent of a monomial in cluster
# variables (`pairing`, `monomial`), in BudgetExceeded before expanding
NEAR_LIMIT = SMALL | st.just(2**62 + 2**61)
JSON_JUNK = st.one_of(
    st.booleans(), st.sampled_from([1.5, -1.0, 2.0]), st.none(), st.just("1")
)


def mostly(valid, junk):
    """valid four times in five, else junk."""
    return st.sampled_from([True] * 4 + [False]).flatmap(
        lambda ok: valid if ok else junk
    )


def joined(xs):
    return ",".join(map(str, xs))


@st.composite
def argv(draw):
    name = draw(st.sampled_from([
        "frieze", "mutate", "trop", "pairing", "monomial", "decompose",
        "hammock", "fpoly", "verify", "junk",
    ]))
    if name == "junk":
        return draw(st.lists(st.sampled_from(
            ["frieze", "--cartan", "A2", "--nope", "-1", "x", "--help=no"]
        ), max_size=4))
    generic = name == "frieze" and draw(st.booleans())
    cartan, r = draw(st.sampled_from(FINITE if generic else FINITE + OTHER))
    if draw(st.sampled_from([False] * 5 + [True])):
        cartan, r = draw(st.sampled_from(BAD_CARTANS)), 2

    near = ("frieze", "trop", "pairing", "monomial", "decompose")
    entry = NEAR_LIMIT if name in near else SMALL
    ints = mostly(
        st.lists(entry, min_size=r, max_size=r).map(joined),
        st.lists(SMALL, max_size=4).map(joined)
        | st.sampled_from(["1.5,0", "x", "true", ",", "1,,0", "--1", "0 , 1"]),
    )
    json_ints = mostly(
        st.lists(entry, min_size=r, max_size=r),
        st.lists(SMALL | JSON_JUNK, max_size=4) | JSON_JUNK,
    )
    word = st.lists(st.integers(0, r + 1), max_size=4)
    window = mostly(
        st.tuples(st.integers(-2, 3), st.integers(0, 3)).map(
            lambda t: f"{t[0]}..{min(t[0] + t[1], 3)}"
        ),
        st.sampled_from(["1", "a..b", "..", "3..1", "1.5..2", "0.."]),
    )
    fmt = mostly(st.sampled_from(["tsv", "json"]), st.just("xml"))
    space = mostly(st.sampled_from(["A", "Y"]), st.just("Q"))
    point = mostly(
        st.fixed_dictionaries(
            {"space": space | st.just("Yprin"), "coords": json_ints},
            optional={"anchor": mostly(word, json_ints)},
        ).map(json.dumps),
        st.sampled_from([
            "[1]", "1", "null", "{", '{"space": "A"}', "{}",
            '{"space": ["A"], "coords": [1, 0]}',
        ]),
    )
    matrix = mostly(
        st.sampled_from(
            ["[[0,-1],[1,0]]", "[[0,1,0],[-1,0,1],[0,-1,0]]", "[[0,2],[-1,0]]", "[[0]]"]
        ),
        st.lists(st.lists(SMALL | JSON_JUNK, min_size=1, max_size=3), max_size=3)
        .map(json.dumps)
        | st.sampled_from(["[1,2]", "[]", "{}", "[[0,1],[1,0]]", "nope"]),
    )
    if name == "frieze":
        options = {"cartan": st.just(cartan), "window": window, "format": fmt}
        if generic:
            options["kind"] = st.sampled_from(["generic-a", "generic-y"])
        else:
            options["kind"] = mostly(
                st.sampled_from(["trop", "cluster-additive", "additive"]), st.just("x")
            )
            options["slice"] = ints
    elif name == "mutate":
        if draw(st.booleans()):
            options = {"json": st.sampled_from(["-", "missing.json"])}
        else:
            options = {"B": matrix, "word": word.map(joined)}
        options["kind"] = mostly(st.sampled_from(["matrix", "a-seed", "y-seed"]), st.just("z"))
    elif name == "trop":
        options = {"cartan": st.just(cartan), "window": window, "format": fmt}
        if draw(st.booleans()):
            options["point"] = point
        else:
            options.update(space=space, coords=ints, anchor=word.map(joined))
    elif name == "pairing":
        options = {"cartan": st.just(cartan), "delta": ints, "rho": ints}
    elif name == "monomial":
        options = {"cartan": st.just(cartan), "space": space, "coords": ints}
    elif name == "decompose":
        options = {"cartan": st.just(cartan), "slice": ints}
    elif name == "hammock":
        options = {
            "cartan": st.just(cartan), "window": window, "format": fmt,
            "i": mostly(st.integers(1, r).map(str), st.sampled_from(["0", "4", "1.5", "x"])),
            "m": mostly(st.integers(-3, 3).map(str), st.just("x")),
        }
    elif name == "fpoly":
        options = {"cartan": st.just(cartan), "window": window, "format": fmt}
    else:
        options = {
            "suite": st.sampled_from(SUITES),
            "types": mostly(st.sampled_from(["A2", "B2", "A2,G2"]),
                            st.sampled_from([",", "", " , ", "Z9", "A", "a2"])),
            "trials": mostly(st.integers(0, 3).map(str), st.sampled_from(["-1", "x"])),
            "budget": mostly(st.sampled_from(["1", "100"]), st.just("x")),
        }
    args = [name]
    for flag in draw(st.permutations(list(options))):
        # a flag is left out one time in ten; verify always names a suite,
        # since `all` runs at full size
        if flag == "suite" or draw(st.sampled_from([True] * 9 + [False])):
            args += [f"--{flag}", draw(options[flag])]
    return args


JOB = mostly(
    st.fixed_dictionaries(
        {"B": st.sampled_from([
            [[0, -1], [1, 0]], [[0, 2], [-1, 0]], [[0, 1.5], [-1, 0]],
            [[0, True], [-1, 0]], [1, 2], "x",
        ])},
        optional={"word": st.lists(st.integers(0, 3), max_size=4)
                  | st.lists(st.integers(0, 3) | JSON_JUNK, max_size=3)
                  | JSON_JUNK},
    ).map(json.dumps),
    st.sampled_from(["[1]", "3", "{", '{"word": [1]}']),
)


def run_cli(args, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(args=argv(), stdin=JOB)
def test_cli_exits_are_documented(args, stdin):
    code, out, err = run_cli(args, stdin)
    assert code in (0, 1, 2, 3, 4), (args, code)
    if args[:1] == ["verify"] and "--types" in args:
        names = args[args.index("--types") + 1].split(",")
        if not any(name.strip() for name in names):
            # nothing to check is never a pass
            assert code != 0, args
    if code == 1:
        assert args[0] == "verify"
        assert json.loads(out)["failed"] >= 1
    elif code:
        assert out == ""
        assert "error" in json.loads(err), (args, err)
