import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cluster_friezes
from cluster_friezes import cli, finite, friezes, laurent, verify
from cluster_friezes.cli import main
from cluster_friezes.errors import NotDivisible, NotFound, ZeroDenominator
from cluster_friezes.friezes import FriezeFunction
from cluster_friezes.laurent import IntLaurentPoly, RationalFunction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _off_by_one_at_3(make):
    """A readback that agrees with make(point, cartan) except in column 3."""

    def broken(point, cartan):
        f = make(point, cartan)
        return FriezeFunction(
            f.kind, f.cartan, lambda m: tuple(v + (m == 3) for v in f.slice_at(m))
        )

    return broken


def _constant(value):
    return lambda cartan, *_: FriezeFunction(
        "cluster-additive", cartan, lambda m: (value,) * cartan.rank
    )


# (suite, owner, name, breaker, kwargs, counter): setting owner.name to
# breaker(owner.name) breaks one route that the suite reads, and the suite
# must then fail, with counter (when given) nonzero in its A2 details
BROKEN_ROUTES = {
    "separation": ("fpoly-separation", verify, "_separation_at",
                   lambda orig: lambda b0, yseed: False, {}, "separation_failures"),
    "fpoly": ("fpoly-separation", verify, "fim_recursion",
              lambda orig: lambda cartan: dict.fromkeys(
                  orig(cartan), IntLaurentPoly.one(cartan.rank)),
              {}, "fpoly_mismatches"),
    "reconstruction": ("decomposition", finite, "reconstruct_from_hammocks",
                       lambda orig: _constant(0), {"trials": 5}, "failures"),
    "hammock": ("decomposition", verify, "hammock",
                lambda orig: _constant(1), {"trials": 5}, None),
    "shift-trop": ("shift-laws", verify, "shift_trop",
                   lambda orig: lambda rho, cartan: rho, {"trials": 5}, "failures"),
    "slice-step": ("shift-laws", verify, "slice_step",
                   lambda orig: lambda cartan, values: tuple(values),
                   {"trials": 5}, "failures"),
    "pl-inverse": ("shift-laws", verify.PLMap, "invert",
                   lambda orig: lambda self, v: v, {"trials": 5}, "failures"),
    "k-readback": ("realization", verify, "k_from_trop_point", _off_by_one_at_3,
                   {"trials": 3}, "disagreements"),
    "f-readback": ("realization", verify, "f_from_trop_point", _off_by_one_at_3,
                   {"trials": 3}, "disagreements"),
    # the d-point of x(i, m) on the A-space of -B, as the one of x(1, m)
    "d-point": ("d-duality", friezes, "_neg_unit",
                lambda orig: lambda i, r: orig(1, r), {}, "violations"),
    "glide": ("periodicity", finite.RootSystemData, "glide",
              lambda orig: lambda self, i, m: (i, m + 1), {"trials": 4},
              "generic_violations"),
    "admissibility": ("admissibility", verify, "check_admissible_A",
                      lambda orig: lambda *args: None, {}, None),
}


class TestFrieze:
    def test_trop_table(self, capsys):
        code, out, _ = run(
            capsys,
            "frieze", "--cartan", "A2", "--kind", "trop",
            "--slice", "1,0", "--window", "-1..4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["i\\m", "-1", "0", "1", "2", "3", "4"]
        assert lines[1].split("\t") == ["1", "0", "1", "-1", "1", "0", "0"]
        assert lines[2].split("\t") == ["2", "1", "0", "0", "1", "-1", "1"]

    def test_generic_a(self, capsys):
        code, out, _ = run(
            capsys,
            "frieze", "--cartan", "A2", "--kind", "generic-a", "--window", "0..2",
        )
        assert code == 0
        assert "x1^-1*x2 + x1^-1" in out

    def test_generic_y(self, capsys):
        code, out, _ = run(
            capsys,
            "frieze", "--cartan", "A2", "--kind", "generic-y", "--window", "0..1",
        )
        assert code == 0
        assert out.splitlines() == [
            "i\\m\t0\t1",
            "1\ty1\ty2 + y1^-1*y2 + y1^-1",
            "2\ty1*y2 + y2\ty1^-1 + y1^-1*y2^-1",
        ]

    def test_zero_slice(self, capsys):
        code, out, _ = run(
            capsys,
            "frieze", "--cartan", "A2", "--kind", "cluster-additive",
            "--slice", "0,0", "--window", "0..3", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert all(v == 0 for row in data["rows"] for v in row["values"])

    def test_json_cartan(self, capsys):
        code, out, _ = run(
            capsys,
            "frieze", "--cartan", "[[2,-1],[-1,2]]", "--kind", "trop",
            "--slice", "1,0", "--window", "0..2",
        )
        assert code == 0


class TestMutate:
    def test_matrix_word(self, capsys):
        code, out, _ = run(
            capsys, "mutate", "--B", "[[0,-1],[1,0]]", "--word", "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["B"] == [[0, 1], [-1, 0]]

    def test_word_reduction(self, capsys):
        code, out, _ = run(
            capsys, "mutate", "--B", "[[0,-1],[1,0]]", "--word", "1,1",
        )
        data = json.loads(out)
        assert data["word"] == [] and data["B"] == [[0, -1], [1, 0]]

    def test_y_seed(self, capsys):
        code, out, _ = run(
            capsys,
            "mutate", "--B", "[[0,-1],[1,0]]", "--word", "1,2", "--kind", "y-seed",
        )
        data = json.loads(out)
        assert data["cluster"][0] == "y2 + y1^-1*y2 + y1^-1"


class TestPairing:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "pairing", "--cartan", "A2", "--delta", "1,0", "--rho", "-1,0",
        )
        assert code == 0
        data = json.loads(out)
        assert data["pairing"] == 1
        assert data["via_x_monomial"] == data["via_y_monomial"] == 1

    def test_zero_delta(self, capsys):
        code, out, _ = run(
            capsys, "pairing", "--cartan", "A2", "--delta", "0,0", "--rho", "2,-1",
        )
        assert json.loads(out)["pairing"] == 0

    def test_corrupt_fim_table_exit_4(self, capsys, monkeypatch):
        # pairing is built on y_from_delta, so a wrong belt coefficient
        # polynomial reaches the check against the chamber search
        table = finite.FiniteContext.fim_table
        monkeypatch.setattr(
            finite.FiniteContext, "fim_table",
            lambda self: {
                (i, m): f * 2 if m >= 1 else f
                for (i, m), f in table(self).items()
            },
        )
        code, out, err = run(
            capsys, "pairing", "--cartan", "A2", "--delta", "1,0", "--rho", "-1,0",
        )
        assert code == 4 and out == ""
        assert json.loads(err) == {
            "error": "InternalDisagreement", "message": "y_from_delta routes disagree",
        }

    def test_deterministic_output(self, capsys):
        argv = ["pairing", "--cartan", "B2", "--delta", "2,-1", "--rho", "1,1"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestOtherCommands:
    def test_monomial(self, capsys):
        code, out, _ = run(
            capsys, "monomial", "--cartan", "A2", "--space", "A", "--coords", "-1,0",
        )
        data = json.loads(out)
        assert data["expression"] == "x1"

    @pytest.mark.parametrize("space, coords", [("A", "1,0"), ("Y", "2,-1")])
    def test_monomial_searches_once(self, capsys, monkeypatch, space, coords):
        # the bijection returns the seed its chamber search found, so the
        # address and the check share one search
        calls = []
        search = finite._chamber_monomial

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(finite, "_chamber_monomial", counted)
        code, out, _ = run(
            capsys, "monomial", "--cartan", "B2", "--space", space, "--coords", coords,
        )
        assert code == 0 and json.loads(out)["space"] == space
        assert len(calls) == 1

    def test_decompose(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--cartan", "A2", "--slice", "-2,1",
        )
        data = json.loads(out)
        assert code == 0 and data["reconstruction_exact"]
        assert {"i": 1, "m": 0, "multiplicity": 2} in data["hammocks"]

    def test_hammock(self, capsys):
        code, out, _ = run(
            capsys, "hammock", "--cartan", "A2", "--i", "1", "--window", "0..2",
        )
        lines = out.strip().splitlines()
        assert lines[1].split("\t") == ["1", "-1", "1", "0"]

    def test_fpoly(self, capsys):
        code, out, _ = run(capsys, "fpoly", "--cartan", "A2")
        assert "p1*p2 + p2 + 1" in out

    def test_trop(self, capsys):
        code, out, _ = run(
            capsys,
            "trop", "--cartan", "A2", "--space", "A", "--coords", "1,0",
            "--window", "0..3",
        )
        lines = out.strip().splitlines()
        assert lines[1].split("\t")[1:] == ["1", "-1", "1", "0"]


class TestVerifyAndErrors:
    def test_verify_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "d-duality", "--types", "A2")
        assert code == 0
        report = json.loads(out)
        assert report["failed"] == 0 and report["rng_seed"] == 0

    def test_verify_byte_identical(self, capsys):
        argv = ["verify", "--suite", "shift-laws", "--types", "A2", "--trials", "20"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_verify_admissibility_rank_one(self, capsys):
        # the two-term sum is x1 + 1 on rank 1, which has no x2
        code, out, _ = run(capsys, "verify", "--suite", "admissibility", "--types", "A1")
        assert code == 0
        assert json.loads(out)["suites"][0]["details"]["A1"] == {"monomials": 6, "sums": 25}

    @pytest.mark.parametrize(
        "suite", [s for s in verify.SUITES if s != "remark-not-in"]
    )
    def test_empty_type_list_raises(self, suite, monkeypatch):
        # every suite but remark-not-in loops over types; with none it would
        # pass having checked nothing (shift-laws divided by zero)
        def no_type(name):
            raise AssertionError(f"type {name} built for an empty list")

        monkeypatch.setattr(verify, "named_cartan", no_type)
        with pytest.raises(ValueError, match="no types"):
            verify.run_suite(suite, types=())

    @pytest.mark.parametrize("route", sorted(BROKEN_ROUTES))
    def test_suite_can_fail(self, route, monkeypatch):
        suite, owner, name, breaker, kwargs, counter = BROKEN_ROUTES[route]
        monkeypatch.setattr(owner, name, breaker(getattr(owner, name)))
        result = verify.run_suite(suite, types=("A2",), **kwargs)
        assert result.passed is False
        if counter is not None:
            assert result.details["A2"][counter] > 0

    def test_invalid_cartan_exit_2(self, capsys, tmp_path):
        float_cartan = tmp_path / "cartan.json"
        float_cartan.write_text('{"A": [[2, -1], [-1.0, 2]]}')
        float_word = tmp_path / "job.json"
        float_word.write_text('{"B": [[0, -1], [1, 0]], "word": [1.9]}')
        bool_matrix = tmp_path / "bool.json"
        bool_matrix.write_text('{"B": [[0, true], [-1, 0]], "word": [1]}')
        cases = [
            (("frieze", "--cartan", "Z9", "--kind", "trop", "--slice", "0,0"),
             "ValueError"),
            (("hammock", "--cartan", "A2", "--i", "5"), "DimensionMismatch"),
            # counts below 1 would let a suite pass after checking nothing
            (("verify", "--suite", "realization", "--types", "A2",
              "--trials", "-1"), "ValueError"),
            (("verify", "--suite", "realization", "--types", "A2",
              "--trials", "0"), "ValueError"),
            (("verify", "--suite", "closure-counts", "--types", "A2",
              "--budget", "-5"), "ValueError"),
            (("frieze", "--cartan", "A2", "--kind", "trop", "--slice", "1,0",
              "--window", "5..1"), "ValueError"),
            # a type list that names no type: the empty one once fell back
            # to the default types and passed
            (("verify", "--suite", "closure-counts", "--types", ""), "ValueError"),
            (("verify", "--suite", "closure-counts", "--types", " , "), "ValueError"),
            (("verify", "--suite", "remark-not-in", "--types", ""), "ValueError"),
            # exact integers only: no float or boolean is truncated to an int
            (("mutate", "--B", "[[0,1.5],[-1,0]]"), "ValueError"),
            (("mutate", "--B", "[[0,true],[-1,0]]"), "ValueError"),
            (("mutate", "--json", str(float_word)), "ValueError"),
            (("mutate", "--json", str(bool_matrix)), "ValueError"),
            (("mutate", "--B", "[[0,-1],[1,0]]", "--word", "1,3"),
             "DimensionMismatch"),
            (("frieze", "--cartan", "[[2,-1.9],[-1,2]]", "--kind", "trop",
              "--slice", "1,0"), "ValueError"),
            (("frieze", "--cartan", str(float_cartan), "--kind", "trop",
              "--slice", "1,0"), "ValueError"),
            (("trop", "--cartan", "A2", "--point",
              '{"space":"A","coords":[1.7,0]}'), "ValueError"),
            (("trop", "--cartan", "A2", "--point",
              '{"space":"A","coords":[true,0]}'), "ValueError"),
            (("trop", "--cartan", "A2", "--point",
              '{"space":"A","anchor":[1.0],"coords":[1,0]}'), "ValueError"),
            # malformed inputs that once ended in a traceback
            (("mutate",), "ValueError"),
            (("frieze", "--cartan", "[1,2]", "--kind", "trop", "--slice", "1,0"),
             "ValueError"),
            (("trop", "--cartan", "A2", "--space", "A"), "ValueError"),
            (("trop", "--cartan", "A2", "--point", "[1]"), "ValueError"),
            (("frieze", "--cartan", "A2", "--kind", "trop"), "ValueError"),
            (("mutate", "--B", "[]"), "ValueError"),
            (("trop", "--cartan", "A2", "--point",
              '{"space":"Z","coords":[1,0]}'), "ValueError"),
            (("mutate", "--B", "[[0,1,0],[-1,0,0]]"), "DimensionMismatch"),
            # argparse usage errors are JSON diagnostics too
            (("frieze", "--cartan", "A2"), "UsageError"),
            (("hammock", "--cartan", "A2", "--i", "1.5"), "UsageError"),
            (("nonsense",), "UsageError"),
        ]
        for argv, error in cases:
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert json.loads(err)["error"] == error, argv

    def test_help_exit_0(self, capsys):
        for argv in (["--help"], ["frieze", "--help"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0
            assert capsys.readouterr().out.startswith("usage:")

    def test_budget_exit_3(self, capsys):
        # every suite that walks an exchange graph reads --budget and reports
        # a graph past it in-band instead of crashing; A3 has 14 seeds
        for suite in ("closure-counts", "fpoly-separation", "admissibility"):
            code, out, _ = run(
                capsys, "verify", "--suite", suite, "--types", "A3", "--budget", "5",
            )
            assert code == 1
            assert json.loads(out)["suites"][0]["details"]["A3"] == "budget exceeded"
        code, _, _ = run(
            capsys, "verify", "--suite", "fpoly-separation", "--types", "A3",
            "--budget", "14",
        )
        assert code == 0

    def test_bad_matrix_exit_2(self, capsys):
        code, _, err = run(capsys, "mutate", "--B", "[[0,1],[1,0]]", "--word", "1")
        assert code == 2

    def test_overflow_exit_3(self, capsys):
        # the triple bond of G2 pushes a near-limit coordinate past 2^63
        big = str(2**62 + 2**61)
        code, _, err = run(
            capsys,
            "trop", "--cartan", "G2", "--space", "A",
            "--coords", f"{big},{big}", "--window", "0..6",
        )
        assert code == 3
        assert json.loads(err)["error"] == "TropOverflow"

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coordinate_at_the_limit_exit_3(self, capsys, sign):
        # a point is checked when built, so +-2^63 exits 3 although no step
        # touches it, and +-(2^63 - 1) is printed
        argv = ("trop", "--cartan", "A2", "--space", "Y", "--window", "0..0")
        code, out, err = run(capsys, *argv, f"--coords={sign * 2**63},0")
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "TropOverflow"
        code, out, _ = run(capsys, *argv, f"--coords={sign * (2**63 - 1)},0")
        assert code == 0
        assert out.splitlines()[1].split("\t") == ["1", str(sign * (2**63 - 1))]

    def test_exponent_overflow_exit_3(self, capsys, monkeypatch):
        # with the monomial budget lifted, x1^(2^30) leaves the packed
        # exponent range of laurent: exit 3, never a wrapped exponent
        monkeypatch.setattr(finite, "MONOMIAL_EXPONENT_BUDGET", 2**62)
        limit = laurent.EXPONENT_LIMIT
        argv = ("monomial", "--cartan", "A1", "--space", "A", "--coords")
        code, out, _ = run(capsys, *argv, str(1 - limit))
        assert code == 0
        assert json.loads(out)["expression"] == f"x1^{limit - 1}"
        code, out, err = run(capsys, *argv, str(-limit))
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "ExponentOverflow"

    def test_window_bound_exit_3(self, capsys):
        # far windows are refused before any cell is computed; the first two
        # once ran for over a minute and for about six seconds
        for argv in (
            ("trop", "--cartan", "A2", "--space", "A", "--coords", "1,0",
             "--window", "0..20000"),
            ("hammock", "--cartan", "E6", "--i", "1", "--window", "0..100000"),
            ("frieze", "--cartan", "A2", "--kind", "trop", "--slice", "1,0",
             "--window", "-1001..0"),
            ("fpoly", "--cartan", "A2", "--window", "0..1001"),
            # the anchor column too; --m 10^8 ran past 20 s column by column
            ("hammock", "--cartan", "A2", "--i", "1", "--m", "100000000"),
            ("hammock", "--cartan", "A2", "--i", "1", "--m", "-1001"),
            # and verify's trial count; 10^11 ran past 60 s
            ("verify", "--suite", "shift-laws", "--types", "A2",
             "--trials", str(cli.TRIALS_LIMIT + 1)),
            ("verify", "--suite", "shift-laws", "--types", "A2",
             "--trials", "100000000000"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 3, argv
            assert out == ""
            assert json.loads(err)["error"] == "BudgetExceeded"
        edge = ("--window", f"{cli.WINDOW_LIMIT - 1}..{cli.WINDOW_LIMIT}")
        code, out, _ = run(capsys, "hammock", "--cartan", "A2", "--i", "1", *edge)
        assert code == 0
        assert out.splitlines()[0].split("\t")[1:] == [
            str(cli.WINDOW_LIMIT - 1), str(cli.WINDOW_LIMIT)
        ]
        for m in (cli.WINDOW_LIMIT, -cli.WINDOW_LIMIT):
            code, out, _ = run(
                capsys, "hammock", "--cartan", "A2", "--i", "1", "--m", str(m),
                "--window", "0..1",
            )
            assert code == 0 and out.splitlines()[0] == "i\\m\t0\t1", m

    def test_monomial_budget_exit_3(self):
        # rho becomes the exponent of 2/x1; the budget must stop it before
        # the power is expanded.  A subprocess, so that a regression is
        # killed by the timeout rather than growing the test's memory
        proc = _timed_call(
            ["from cluster_friezes import cli"],
            "code = cli.main(['pairing', '--cartan', 'A1', '--delta', '-2',"
            " '--rho', '6917529027641081856'])",
        )
        assert proc.returncode == 3, proc.stderr
        assert float(proc.stdout) < 1.0
        assert json.loads(proc.stderr)["error"] == "BudgetExceeded"

    def test_y_from_delta_searches_before_expanding(self):
        # the chamber search checks the budget; expanding the F-part of
        # delta = (100000, 0) first ran for minutes
        proc = _timed_call(
            [
                "from cluster_friezes.errors import BudgetExceeded",
                "from cluster_friezes.finite import named_cartan, y_from_delta",
                "from cluster_friezes.friezes import belts",
                "from cluster_friezes.tropical import TropPoint",
                "A2 = named_cartan('A2')",
            ],
            "try:",
            "    y_from_delta(A2, TropPoint('A', belts(A2).bt, (100000, 0)))",
            "    code = 0",
            "except BudgetExceeded:",
            "    code = 3",
        )
        assert proc.returncode == 3, proc.stderr
        assert float(proc.stdout) < 1.0

    def test_pairing_searches_before_expanding(self):
        # pairing is built on y_from_delta, so it stops as early
        proc = _timed_call(
            ["from cluster_friezes import cli"],
            "code = cli.main(['pairing', '--cartan', 'A2', '--delta', '100000,0',"
            " '--rho', '-1,0'])",
        )
        assert proc.returncode == 3, proc.stderr
        assert float(proc.stdout) < 1.0
        assert json.loads(proc.stderr)["error"] == "BudgetExceeded"


class TestRouteDisagreement:
    """A cross-check failure in `monomial` ends in exit 4 with a JSON
    diagnostic, also when asserts are stripped."""

    WRONG = RationalFunction.constant(7, 2)

    def test_a_side_exit_4(self, capsys, monkeypatch):
        # the chamber search returns a wrong monomial, so x_from_rho's check
        # against the hammock-domain product fails
        search = finite._chamber_monomial
        monkeypatch.setattr(
            finite, "_chamber_monomial",
            lambda c, p, s: (*search(c, p, s)[:2], self.WRONG),
        )
        code, out, err = run(
            capsys, "monomial", "--cartan", "A2", "--space", "A", "--coords", "1,0",
        )
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "InternalDisagreement"

    def test_y_side_exit_4(self, capsys, monkeypatch):
        # the chamber search returns a wrong monomial, so y_from_delta's
        # check against the assembled expression fails
        search = finite._chamber_monomial
        monkeypatch.setattr(
            finite, "_chamber_monomial",
            lambda c, p, s: (*search(c, p, s)[:2], self.WRONG),
        )
        code, out, err = run(
            capsys, "monomial", "--cartan", "B2", "--space", "Y", "--coords", "2,-1",
        )
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "InternalDisagreement"

    def test_y_side_exit_4_under_python_O(self):
        proc = _run_monomial_under_python_O(
            "from cluster_friezes import finite",
            "from cluster_friezes.laurent import RationalFunction",
            "search = finite._chamber_monomial",
            "finite._chamber_monomial = lambda c, p, s: (*search(c, p, s)[:2], RationalFunction.constant(7, 2))",
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "InternalDisagreement"


def _timed_call(setup, *lines):
    """Run the statements `setup`, then the timed statements `lines`, which
    set `code`, in a subprocess with a 30 s timeout; it prints the time of
    `lines` and exits with `code`."""
    script = "\n".join([
        "import sys, time",
        *setup,
        "t0 = time.perf_counter()",
        *lines,
        "print(time.perf_counter() - t0)",
        "sys.exit(code)",
    ])
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_package_env(), timeout=30,
    )


def _run_monomial_under_python_O(*patch):
    """`monomial --space Y` on B2 in a `python -O` subprocess, after the
    statements `patch`; asserts are checked to be stripped."""
    script = "\n".join([
        "import sys",
        "from cluster_friezes import cli",
        "assert False, 'asserts must be stripped'",
        *patch,
        "sys.exit(cli.main(['monomial', '--cartan', 'B2', '--space', 'Y',"
        " '--coords', '2,-1']))",
    ])
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )


def _package_env():
    """The environment with this package's source first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cluster_friezes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _raise(exc):
    def fail(*args):
        raise exc
    return fail


class TestInternalLawExit4:
    """A failed internal law (inexact division, zero denominator, lost search,
    failed pseudo-division or F-polynomial shape) ends in exit 4 with a JSON
    diagnostic, never a traceback."""

    @pytest.mark.parametrize("exc", [
        NotDivisible("leading monomial does not divide"),
        ZeroDenominator("zero denominator"),
        NotFound("Y-side g-vector search failed (bug)"),
        AssertionError("pseudo-division failed to reduce degree"),
    ], ids=lambda exc: type(exc).__name__)
    def test_monomial_exit_4(self, capsys, monkeypatch, exc):
        monkeypatch.setattr(cli, "_y_from_delta", _raise(exc))
        code, out, err = run(
            capsys, "monomial", "--cartan", "B2", "--space", "Y", "--coords", "2,-1",
        )
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": type(exc).__name__, "message": str(exc)}

    def test_fpoly_shape_exit_4(self, capsys, monkeypatch):
        exc = AssertionError("F-polynomial failed sign-coherence shape")
        monkeypatch.setattr(verify, "gcf_pattern", _raise(exc))
        code, out, err = run(
            capsys, "verify", "--suite", "fpoly-separation", "--types", "A2",
            "--trials", "2",
        )
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": "AssertionError", "message": str(exc)}

    def test_pseudo_rem_exit_4_under_python_O(self):
        proc = _run_monomial_under_python_O(
            "def fail(c, d): raise AssertionError('pseudo-division failed to reduce degree')",
            "cli._y_from_delta = fail",
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "AssertionError"
