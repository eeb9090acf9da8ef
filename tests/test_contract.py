"""Behaviour contract: the README's CLI examples and `verify --suite all`
print what they printed before the code behind them was refactored, every
named Cartan type keeps its matrix and root data, every annotation of the
public API resolves, and the library holds no assert statement.

`tests/data/readme_cli.txt` holds, for every `cluster-friezes` line of the
README's `sh` blocks, the command, its stdout and its exit code, as written
by `render()`.  It was generated from a checkout whose outputs are the
reference; to regenerate it from such a checkout, run

    PYTHONPATH=<checkout>/src python tests/test_contract.py > tests/data/readme_cli.txt

with this file and the README of that checkout.
"""

import ast
import contextlib
import functools
import hashlib
import inspect
import io
import json
import shlex
import sys
import typing
from pathlib import Path

import pytest

import cluster_friezes
from cluster_friezes.cli import main
from cluster_friezes.finite import coxeter_data, finite_context, named_cartan
from cluster_friezes.mutation import enumerate_exchange_graph
from cluster_friezes.verify import DEFAULT_TYPES

HERE = Path(__file__).resolve().parent
README = HERE.parent / "README.md"
PACKAGE = HERE.parent / "src" / "cluster_friezes"
EXPECTED = HERE / "data" / "readme_cli.txt"
VERIFY_ALL = "cluster-friezes verify --suite all"
VERIFY_ALL_SHA256 = "c03017aad88b92643ebfeef03de9432a907a4043ae7bf0690a6365223ef59951"
# every DEFAULT_TYPES A- and Y-graph, seed by seed in walk order
GRAPHS_SHA256 = "0ec6383a9012bd8f69f1644b64f2c329244d9dc3e98799a92b6b0345cb1a3d2c"
# every supported type name: |Phi+|, the involution i -> i* and the orbit
# lengths h(i; c)
NAMED_TYPES = {
    "A1": (1, (1,), (1,)),
    "A2": (3, (2, 1), (2, 1)),
    "A3": (6, (3, 2, 1), (3, 2, 1)),
    "A4": (10, (4, 3, 2, 1), (4, 3, 2, 1)),
    "A5": (15, (5, 4, 3, 2, 1), (5, 4, 3, 2, 1)),
    "A6": (21, (6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1)),
    "A7": (28, (7, 6, 5, 4, 3, 2, 1), (7, 6, 5, 4, 3, 2, 1)),
    "A8": (36, (8, 7, 6, 5, 4, 3, 2, 1), (8, 7, 6, 5, 4, 3, 2, 1)),
    "B2": (4, (1, 2), (2, 2)),
    "B3": (9, (1, 2, 3), (3, 3, 3)),
    "B4": (16, (1, 2, 3, 4), (4, 4, 4, 4)),
    "B5": (25, (1, 2, 3, 4, 5), (5, 5, 5, 5, 5)),
    "C2": (4, (1, 2), (2, 2)),
    "C3": (9, (1, 2, 3), (3, 3, 3)),
    "C4": (16, (1, 2, 3, 4), (4, 4, 4, 4)),
    "C5": (25, (1, 2, 3, 4, 5), (5, 5, 5, 5, 5)),
    "D4": (12, (1, 2, 3, 4), (3, 3, 3, 3)),
    "D5": (20, (1, 2, 3, 5, 4), (4, 4, 4, 4, 4)),
    "D6": (30, (1, 2, 3, 4, 5, 6), (5, 5, 5, 5, 5, 5)),
    "E6": (36, (6, 2, 5, 4, 3, 1), (8, 6, 7, 6, 5, 4)),
    "E7": (63, (1, 2, 3, 4, 5, 6, 7), (9, 9, 9, 9, 9, 9, 9)),
    "E8": (120, (1, 2, 3, 4, 5, 6, 7, 8), (15, 15, 15, 15, 15, 15, 15, 15)),
    "F4": (24, (1, 2, 3, 4), (6, 6, 6, 6)),
    "G2": (6, (1, 2), (3, 3)),
}
# one line "<name> <entries>" per name of NAMED_TYPES, in its order
NAMED_CARTAN_SHA256 = "94f86fbbee49bcc588a339273563e6902323ae8fb929f2ed1fe5b326ac6b1a65"
REJECTED_NAMES = ("A0", "A9", "B1", "D3", "E9", "F5", "G3", "X2", "A", "")


def readme_examples():
    """The command lines of the README's sh blocks that run the CLI."""
    examples = []
    in_sh = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and "cluster-friezes " in line and not line.startswith("#"):
            examples.append(line)
    return examples


@functools.lru_cache(maxsize=None)
def run_example(line):
    """(exit code, stdout) of one example run through `cli.main`; an
    `echo '...' | cluster-friezes ...` line feeds the echoed text on stdin."""
    stdin = ""
    if " | " in line:
        producer, line = line.split(" | ", 1)
        echo, *words = shlex.split(producer)
        assert echo == "echo"
        stdin = " ".join(words) + "\n"
    program, *argv = shlex.split(line)
    assert program == "cluster-friezes"
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def render():
    chunks = []
    for line in readme_examples():
        code, out = run_example(line)
        chunks.append(f"$ {line}\n{out}[exit {code}]\n")
    return "".join(chunks)


def test_readme_lists_the_examples():
    examples = readme_examples()
    assert VERIFY_ALL in examples
    assert any(line.startswith("echo ") for line in examples)
    assert len(examples) == 17


def test_readme_cli_examples_unchanged():
    assert render() == EXPECTED.read_text()


def test_verify_all_stdout_digest():
    code, out = run_example(VERIFY_ALL)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


def test_default_graphs_digest():
    # the same seeds, in the same order, at the same addresses
    lines = []
    for name in DEFAULT_TYPES:
        b = finite_context(named_cartan(name)).belts.b
        for kind in ("A", "Y"):
            for seed in enumerate_exchange_graph(kind, b).seeds.values():
                cluster = [x.to_str() for x in seed.cluster]
                lines.append(f"{name} {kind} {seed.address} {cluster} {seed.matrix}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == GRAPHS_SHA256


def test_named_types_unchanged():
    lines = []
    for name, expected in NAMED_TYPES.items():
        cartan = named_cartan(name)
        rd = coxeter_data(cartan)
        got = (len(rd.positive_roots), rd.involution, rd.orbit_lengths)
        assert got == expected, name
        lines.append(f"{name} {cartan.entries}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == NAMED_CARTAN_SHA256


@pytest.mark.parametrize("name", REJECTED_NAMES)
def test_rejected_type_names(name):
    with pytest.raises(ValueError):
        named_cartan(name)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["fpoly", "--cartan", name])
    assert code == 2
    assert json.loads(err.getvalue())["error"] == "ValueError"


def test_no_assert_statements():
    # python -O strips assert statements, so every internal check of the
    # library raises explicitly and survives it
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def exported_annotated():
    """(name, object) for every function and class in `cluster_friezes.__all__`
    and every method, classmethod, staticmethod and property getter those
    classes define."""
    for name in cluster_friezes.__all__:
        obj = getattr(cluster_friezes, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "fget", getattr(member, "__func__", member))
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_public_type_hints_resolve():
    unresolved = []
    for name, obj in exported_annotated():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []


if __name__ == "__main__":
    sys.stdout.write(render())
