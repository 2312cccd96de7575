import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from quiverstab import cli, kempf
from quiverstab import quiver as qv
from quiverstab.cli import (
    EXIT_BUDGET,
    EXIT_CONTRADICTION,
    EXIT_OK,
    EXIT_USAGE,
    ProblemFormatError,
    build_parser,
    main,
    parse_problem,
    verify_result,
)

from conftest import patch_labels, tie_two_lines
from oracles import subspace_count


def alpha_zero_problem():
    return {
        "field": {"p": 2},
        "quiver": {"vertices": ["v0", "v1"], "arrows": [["v0", "v1"]]},
        "representation": {
            "dims": {"v0": 1, "v1": 1},
            "matrices": {"0": [[0]]},
        },
        "stability": {
            "theta": {"v0": 1, "v1": 0},
            "sigma": {"v0": 1, "v1": 1},
        },
    }


def semistable_problem():
    data = alpha_zero_problem()
    data["representation"]["matrices"]["0"] = [[1]]
    return data


def problem_with(path, value):
    """alpha_zero_problem with the entry at the key path set to value."""
    data = alpha_zero_problem()
    *keys, last = path
    obj = data
    for key in keys:
        obj = obj[key]
    obj[last] = value
    return data


ZERO_REPRESENTATION = {"dims": {"v0": 0, "v1": 0}, "matrices": {"0": []}}

# id -> (command, key path, value): each problem must end in exit 2.
EXIT_USAGE_CASES = {
    "unhashable-vertex": ("verify", ("quiver", "vertices"), [["a"], "v1"]),
    "integer-vertex": ("verify", ("quiver", "vertices"), [0, 1]),
    "unhashable-endpoint": ("verify", ("quiver", "arrows"), [[["v0"], "v1"]]),
    "bool-p": ("verify", ("field", "p"), True),
    "bool-dim": ("verify", ("representation", "dims", "v0"), True),
    "unknown-dim": ("verify", ("representation", "dims", "v2"), 0),
    "bool-entry": ("verify", ("representation", "matrices", "0"), [[False]]),
    "matrix-without-arrow": ("verify", ("representation", "matrices", "1"), [[0]]),
    "bool-theta": ("verify", ("stability", "theta", "v0"), True),
    "unknown-theta": ("verify", ("stability", "theta", "v2"), 1),
    "bool-sigma": ("verify", ("stability", "sigma", "v1"), True),
    "unknown-sigma": ("verify", ("stability", "sigma", "v2"), 1),
    "zero-verify": ("verify", ("representation",), ZERO_REPRESENTATION),
    "zero-kempf": ("kempf", ("representation",), ZERO_REPRESENTATION),
    "zero-hn": ("hn", ("representation",), ZERO_REPRESENTATION),
    "zero-semistable": ("semistable", ("representation",), ZERO_REPRESENTATION),
    # the sign rule is Representation's only check here
    "negative-dim": ("verify", ("representation",),
                     {"dims": {"v0": -1, "v1": 0}, "matrices": {"0": []}}),
    # entries and shapes are Matrix's and Representation's, row types parse_problem's
    "no-rows": ("verify", ("representation", "matrices", "0"), []),
    "long-row": ("verify", ("representation", "matrices", "0"), [[0, 0]]),
    "ragged-rows": ("verify", ("representation", "matrices", "0"), [[0], [0, 1]]),
    "row-not-a-list": ("verify", ("representation", "matrices", "0"), [0]),
    "float-entry": ("verify", ("representation", "matrices", "0"), [[0.5]]),
}


# id -> bytes of a problem file that cannot be decoded: each must end in exit 2.
UNREADABLE_FILES = {
    "not-utf8": b"\xff\xfe{}",
    "nested-too-deep": b"[" * 100000,
}

# Run in a fresh interpreter: importing the CLI builds no parser, and
# two main calls build it once between them.
PARSER_BUILT_ONCE = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from quiverstab import cli
assert not built, "importing the CLI built a parser"
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["p1", "--blocks", "1:1"])
    once = len(built)
    cli.main(["p1", "--blocks", "1:1"])
assert once and len(built) == once, (once, len(built))
"""
VERIFY_IMPORTS = """
import contextlib, io, sys
import quiverstab

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "quiverstab")

verify = sorted(["quiverstab", "quiverstab.errors", "quiverstab.linalg",
                 "quiverstab.quiver", "quiverstab.kempf", "quiverstab.cli"])
from quiverstab import cli
assert loaded() == verify, ("import", loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["--format", "json", "verify", sys.argv[1]]) == 0
assert loaded() == verify, ("verify", loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["p1", "--blocks", "1:1"]) == 0
assert loaded() == sorted(verify + ["quiverstab.curves"]), ("p1", loaded())
quiverstab.equivalence_check
assert loaded() == sorted(verify + ["quiverstab.curves", "quiverstab.kronecker"]), \
    ("equivalence_check", loaded())
"""
# the public names in vars(quiverstab) after a fresh import back when the
# package imported every submodule at once, the submodules' own names
# among them; each must still resolve to the same object
PACKAGE_NAMES = (
    "DEFAULT_BUDGET", "DegenerateInputError", "EnumerationBudgetError",
    "EquivalenceReport", "Filtration", "HNReport",
    "InvalidSubrepresentationError", "Matrix", "PrimeField", "Quiver",
    "QuiverStabError", "Rank2Candidate", "Rank2Result", "Rank3Slopes",
    "Representation", "SemistableInputError", "SplitBundle", "StabilityParams",
    "SubrepLattice", "Subrepresentation", "Subspace",
    "TheoremContradictionError", "ZeroRepresentationError",
    "check_hn_properties", "contains", "covering_value", "curves",
    "enumerate_subreps", "enumerate_subspaces", "equivalence_check", "errors",
    "gaussian_binomial", "hn_filtration", "is_semistable",
    "is_semistable_module", "is_subordinate", "is_subrep", "is_tight", "kempf",
    "kempf_filtration", "kempf_semistability", "kronecker", "linalg",
    "max_destabilizing", "module_stability_params", "p1_hn", "p1_slope",
    "quiver", "rank2_best", "rank2_value", "rank3_case_vectors",
    "rank3_weights", "sigma_of", "slope", "sub_contains", "theta_of",
)
PACKAGE_NAMES_RESOLVE = """
import sys
import quiverstab

names = sys.argv[1:]
try:
    quiverstab.no_such_name
except AttributeError as exc:
    assert "'quiverstab'" in str(exc), str(exc)
else:
    raise AssertionError("an unknown name resolved")
missing = set(names) - set(dir(quiverstab))
assert not missing, ("dir", sorted(missing))
star = {}
exec("from quiverstab import *", star)
missing = set(names) - set(star)
assert not missing, ("star import", sorted(missing))
submodules = [sys.modules[f"quiverstab.{m}"] for m in (
    "errors", "linalg", "quiver", "kempf", "kronecker", "curves")]
for name in names:
    value = getattr(quiverstab, name)
    assert star[name] is value, (name, "star import")
    if value in submodules:
        assert value is sys.modules[f"quiverstab.{name}"], name
        continue
    homes = [m for m in submodules if name in vars(m)]
    assert homes and all(vars(m)[name] is value for m in homes), (name, homes)
"""
SRC = Path(__file__).resolve().parent.parent / "src"
VERIFY_PROBLEM = (SRC.parent / "perfbench" / "problems" / "chain-heavy"
                  / "001-kron2-23-F5-unstable.json")


def arrow_free_problem(p, dim):
    """A problem over F_p whose one non-zero vertex, of dimension dim,
    has no arrow."""
    data = alpha_zero_problem()
    data["field"]["p"] = p
    data["quiver"]["arrows"] = []
    data["representation"] = {"dims": {"v0": dim, "v1": 0}, "matrices": {}}
    return data


def write_problem(tmp_path, data, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestParseProblem:
    def test_round_trip(self):
        m, params = parse_problem(alpha_zero_problem())
        assert m.dims == {"v0": 1, "v1": 1}
        assert params.theta == {"v0": 1, "v1": 0}

    def test_entries_reduced_mod_p(self):
        data = alpha_zero_problem()
        data["representation"]["matrices"]["0"] = [[5]]
        m, _ = parse_problem(data)
        assert m.arrow_maps[0].rows == ((1,),)

    def test_missing_field_diagnostics(self):
        for key in ("field", "quiver", "representation", "stability"):
            data = alpha_zero_problem()
            del data[key]
            with pytest.raises(ProblemFormatError, match=key):
                parse_problem(data)

    def test_bad_matrix_shape(self):
        data = alpha_zero_problem()
        data["representation"]["matrices"]["0"] = [[0, 0]]
        with pytest.raises(ProblemFormatError):
            parse_problem(data)

    def test_bad_prime(self):
        data = alpha_zero_problem()
        data["field"]["p"] = 6
        with pytest.raises(ProblemFormatError):
            parse_problem(data)

    def test_missing_vertex_in_stability(self):
        data = alpha_zero_problem()
        del data["stability"]["theta"]["v1"]
        with pytest.raises(ProblemFormatError, match="v1"):
            parse_problem(data)


class TestExitCodes:
    def test_verify_match_exit_zero(self, tmp_path, capsys):
        path = write_problem(tmp_path, alpha_zero_problem())
        assert main(["verify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "match: True" in out

    def test_usage_error(self, capsys):
        assert main(["hn", "/nonexistent/file.json"]) == EXIT_USAGE
        assert main(["nonsense"]) == EXIT_USAGE

    def test_schema_error(self, tmp_path):
        path = write_problem(tmp_path, {"field": {"p": 2}})
        assert main(["hn", path]) == EXIT_USAGE

    def test_budget_exceeded(self, tmp_path):
        path = write_problem(tmp_path, alpha_zero_problem())
        assert main(["enumerate", path, "--budget", "1"]) == EXIT_BUDGET

    def test_budget_below_one_exits_usage(self, tmp_path, capsys):
        path = write_problem(tmp_path, alpha_zero_problem())
        for budget in ("0", "-1"):
            assert main(["verify", path, "--budget", budget]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "--budget" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "raw", UNREADABLE_FILES.values(), ids=UNREADABLE_FILES.keys()
    )
    def test_unreadable_file_exits_usage(self, tmp_path, capsys, raw):
        path = tmp_path / "prob.json"
        path.write_bytes(raw)
        assert main(["verify", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read problem file")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "raw", UNREADABLE_FILES.values(), ids=UNREADABLE_FILES.keys()
    )
    def test_unreadable_stdin_exits_usage(self, monkeypatch, capsys, raw):
        stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="latin-1")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["verify", "-"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read problem file -")
        assert "Traceback" not in err

    def test_huge_candidate_count_exits_budget(self, tmp_path, capsys):
        # one arrow-free vertex of dim 400 over F97: the count stops once
        # it passes the budget, and that lower bound is printed
        data = arrow_free_problem(97, 400)
        path = write_problem(tmp_path, data)
        assert main(["verify", path, "--budget", "1000000"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        head = "error: enumeration would visit at least "
        tail = " candidates, budget is 1000000\n"
        assert err.startswith(head) and err.endswith(tail)
        assert 10**6 < int(err[len(head) : -len(tail)]) <= subspace_count(400, 97)

    def test_million_dim_vertex_exits_budget_fast(self, tmp_path, capsys):
        path = write_problem(tmp_path, arrow_free_problem(2, 10**6))
        start = time.perf_counter()
        assert main(["verify", path]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: enumeration would visit at least ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["verify", "kempf", "hn"])
    def test_rational_past_the_int_string_limit_exits_ok(
        self, tmp_path, capsys, command, fmt
    ):
        # theta has 4,300 digits, which str() still renders, but the score
        # square and the quotient slopes of (2,1) with a zero map have more
        t = 10**4300 - 1
        data = problem_with(("representation",), {"dims": {"v0": 2, "v1": 1},
                                                  "matrices": {"0": [[0, 0]]}})
        data["stability"]["theta"] = {"v0": t, "v1": -t}
        path = write_problem(tmp_path, data)
        assert main(["--format", fmt, command, path]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and "Traceback" not in out
        if fmt == "json" and command != "hn":
            report = json.loads(out)["result"]
            num, den = report["score"]["square"].split("/")
            assert len(num) > 4300
            m, params = parse_problem(data)
            square = kempf.kempf_filtration(qv.SubrepLattice(m), params)[2]
            assert (int(Decimal(num)), int(Decimal(den))) == (
                square.numerator, square.denominator
            )

    def test_semistable_verify_ok(self, tmp_path, capsys):
        path = write_problem(tmp_path, semistable_problem())
        assert main(["verify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "semistable: True" in out

    def test_no_positive_score_exits_contradiction(self, tmp_path, monkeypatch, capsys):
        # alpha_zero_problem is unstable, so a search whose every chain
        # scores zero contradicts the theorem
        monkeypatch.setattr(
            kempf, "_kempf_search", lambda *_args: (Fraction(0), None)
        )
        path = write_problem(tmp_path, alpha_zero_problem())
        assert main(["verify", path]) == EXIT_CONTRADICTION
        err = capsys.readouterr().err
        assert err.startswith("theorem contradiction: ") and "Traceback" not in err
        assert "finds no chain scoring above 0" in err

    def test_winner_score_off_its_carried_score_exits_contradiction(
        self, tmp_path, monkeypatch, capsys
    ):
        # pooling the winner's sequence again must give the score its
        # stack carried through the search
        def doubled_score(seq, tm, sm):
            blocks, score = score_chain(seq, tm, sm)
            return blocks, 4 * score

        score_chain = kempf._chain_score
        monkeypatch.setattr(kempf, "_chain_score", doubled_score)
        path = write_problem(tmp_path, alpha_zero_problem())
        assert main(["verify", path]) == EXIT_CONTRADICTION
        err = capsys.readouterr().err
        assert err.startswith("theorem contradiction: ") and "Traceback" not in err
        assert "carried score" in err

    @pytest.mark.parametrize("command", ["hn", "verify"])
    def test_label_tie_exits_contradiction(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # two lines, neither inside the other, patched to tie at the
        # maximal (slope, sigma); verify's Kempf route meets it first
        patch_labels(monkeypatch, tie_two_lines)
        path = write_problem(tmp_path, arrow_free_problem(2, 2))
        assert main([command, path]) == EXIT_CONTRADICTION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("theorem contradiction: ")
        assert "Traceback" not in captured.err
        if command == "hn":
            assert "2 distinct subrepresentations tie" in captured.err

    def test_kempf_on_semistable_reports_cleanly(self, tmp_path, capsys):
        path = write_problem(tmp_path, semistable_problem())
        assert main(["kempf", path]) == EXIT_OK

    @pytest.mark.parametrize("command", ["kempf", "verify"])
    def test_semistable_input_is_charged_its_chains(self, tmp_path, capsys, command):
        # F2^3 with no arrow is semistable; its 16 subspaces fit a budget
        # of 20 but its 36 chains from 0 to the whole do not, and the Kempf
        # search, which alone decides the kempf verdict, counts them all
        path = write_problem(tmp_path, arrow_free_problem(2, 3))
        assert main([command, path, "--budget", "36"]) == EXIT_OK
        assert "semistable: True" in capsys.readouterr().out
        assert main([command, path, "--budget", "20"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err == "error: enumeration would visit 36 chains, budget is 20\n"

    @pytest.mark.parametrize(
        "command, path, value",
        EXIT_USAGE_CASES.values(),
        ids=EXIT_USAGE_CASES.keys(),
    )
    def test_bad_input_exits_usage(self, tmp_path, capsys, command, path, value):
        problem = write_problem(tmp_path, problem_with(path, value))
        assert main([command, problem]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("value", [None, 1.5, True], ids=["null", "float", "bool"])
    @pytest.mark.parametrize("section, key", [
        ("representation", "dims"), ("stability", "theta"), ("stability", "sigma"),
    ])
    def test_non_integer_value_names_its_key(self, tmp_path, capsys, section, key, value):
        # parse_problem checks each value before any constructor reads it:
        # a null dim at v0 with no matrix rows would otherwise reach
        # Matrix.from_rows as a missing ncols, and the error would blame
        # matrix 0
        data = problem_with(("representation",),
                            {"dims": {"v0": 1, "v1": 0}, "matrices": {"0": []}})
        data[section][key]["v0"] = value
        assert main(["verify", write_problem(tmp_path, data)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {section}.{key}['v0'] must be an integer\n"


class TestSharedLattice:
    @pytest.mark.parametrize(
        "command", ["verify", "kempf", "hn", "semistable", "enumerate"]
    )
    @pytest.mark.parametrize("make_problem", [alpha_zero_problem, semistable_problem])
    def test_one_enumeration_per_command(
        self, tmp_path, monkeypatch, capsys, command, make_problem
    ):
        calls = []
        enumerate_subreps = qv.enumerate_subreps

        def counted(m, budget):
            calls.append(m)
            return enumerate_subreps(m, budget)

        monkeypatch.setattr(qv, "enumerate_subreps", counted)
        assert main([command, write_problem(tmp_path, make_problem())]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["verify", "kempf"])
    @pytest.mark.parametrize("make_problem", [alpha_zero_problem, semistable_problem])
    def test_one_semistability_scan_per_command(
        self, tmp_path, monkeypatch, capsys, command, make_problem
    ):
        # each route decides semistability once for itself, whatever the
        # verdict: the slope route by its scan, the Kempf route by one
        # search on one quotient; kempf runs the Kempf route alone
        calls = {"slope": 0, "kempf": 0}

        def counted(route, fn):
            def call(*args):
                calls[route] += 1
                return fn(*args)
            return call

        scan = counted("slope", qv.is_semistable)
        monkeypatch.setattr(qv, "is_semistable", scan)
        monkeypatch.setattr(kempf, "is_semistable", scan)
        monkeypatch.setattr(
            kempf, "_chain_index_sets", counted("kempf", kempf._chain_index_sets)
        )
        assert main([command, write_problem(tmp_path, make_problem())]) == EXIT_OK
        assert calls == {"slope": int(command == "verify"), "kempf": 1}


class TestJsonReports:
    def run_json(self, capsys, argv):
        code = main(["--format", "json"] + argv)
        out = capsys.readouterr().out
        return code, json.loads(out)

    def test_kempf_payload(self, tmp_path, capsys):
        path = write_problem(tmp_path, alpha_zero_problem())
        code, report = self.run_json(capsys, ["kempf", path])
        assert code == EXIT_OK
        result = report["result"]
        assert result["gamma"] == ["-1/1", "1/1"]
        assert result["score"] == {"sign": 1, "square": "2/1"}
        assert result["step_dims"] == [
            {"v0": 1, "v1": 0},
            {"v0": 1, "v1": 1},
        ]

    def test_embedded_input_round_trips(self, tmp_path, capsys):
        path = write_problem(tmp_path, alpha_zero_problem())
        code, report = self.run_json(capsys, ["verify", path])
        assert code == EXIT_OK
        path2 = write_problem(tmp_path, report["input"], "echo.json")
        code2, report2 = self.run_json(capsys, ["verify", path2])
        assert code2 == EXIT_OK
        r1 = dict(report)
        r2 = dict(report2)
        r1.pop("timing_ms")
        r2.pop("timing_ms")
        assert r1 == r2

    def test_digest_stable(self, tmp_path, capsys):
        path = write_problem(tmp_path, alpha_zero_problem())
        _, r1 = self.run_json(capsys, ["hn", path])
        _, r2 = self.run_json(capsys, ["hn", path])
        assert r1["digest"] == r2["digest"]
        assert r1["digest"].startswith("sha256:")

    def test_enumerate_counts(self, tmp_path, capsys):
        path = write_problem(tmp_path, alpha_zero_problem())
        code, report = self.run_json(capsys, ["enumerate", path])
        assert code == EXIT_OK
        # alpha = 0: all four subspace pairs are subrepresentations
        assert report["result"]["count"] == 4

    def test_enumerate_zero_representation(self, tmp_path, capsys):
        # the zero rep has a lattice, its one subrep; only the stability
        # commands refuse it (EXIT_USAGE_CASES)
        data = problem_with(("representation",), ZERO_REPRESENTATION)
        code, report = self.run_json(capsys, ["enumerate", write_problem(tmp_path, data)])
        assert code == EXIT_OK
        assert report["result"] == {
            "count": 1,
            "dimension_vectors": [{"v0": 0, "v1": 0}],
        }

    def test_semistable_agreement_flag(self, tmp_path, capsys):
        path = write_problem(tmp_path, semistable_problem())
        code, report = self.run_json(capsys, ["semistable", path])
        assert code == EXIT_OK
        assert report["result"] == {
            "slope_semistable": True,
            "git_semistable": True,
            "agree": True,
        }


class TestInlineCommands:
    def test_rank3_pinned_value(self, capsys):
        code = main(["--format", "json", "rank3", "--v=-5,1,4", "--tau", "1/3"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert report["result"]["case"] == "(1,3)"
        assert report["result"]["gamma"] == ["-14/13", "1/13", "1/1"]

    def test_p1_example(self, capsys):
        code = main(
            ["--format", "json", "p1", "--blocks", "2:1,0:1,-1:1"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert report["result"]["quotient_slopes"] == ["2", "0", "-1"]
        assert len(report["result"]["steps"]) == 3

    def test_p1_slope_past_the_int_string_limit(self, capsys):
        # a 4,300-digit degree times a 10-digit multiplicity
        deg = "9" * 4300
        assert main(["p1", "--blocks", f"{deg}:9999999999,1:1"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert len(out.split("slope: ")[1].split("/")[0]) > 4300

    def test_rank2(self, capsys):
        code = main(
            [
                "--format", "json", "rank2",
                "--candidates", "2:0,0:1",
                "--deg-e", "3", "--s", "2", "--tau", "1/4",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert report["result"]["best"] == {"deg_l": 2, "eps_l": 0}
        assert report["result"]["verdict"] == "unstable"

    def test_bad_flags(self, capsys):
        assert main(["rank3", "--v", "1,2", "--tau", "1/3"]) == EXIT_USAGE
        assert main(["rank3", "--v=-5,1,4", "--tau", "x"]) == EXIT_USAGE
        assert main(["p1", "--blocks", "nope"]) == EXIT_USAGE
        # v3 + tau = 0 and v3 - 2 tau = 0: the weights cannot be normalized
        assert main(["rank3", "--v=-1,2,-1", "--tau", "1"]) == EXIT_USAGE
        assert main(["rank3", "--v=2,-4,2", "--tau", "1"]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_import_builds_no_parser(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", PARSER_BUILT_ONCE],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr


class TestImports:
    """Each check runs in a fresh interpreter, which has imported nothing
    of the package yet."""

    @staticmethod
    def run_fresh(script, *args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr

    def test_verify_imports_only_what_it_runs(self):
        self.run_fresh(VERIFY_IMPORTS, str(VERIFY_PROBLEM))

    def test_package_names_resolve_to_their_home_objects(self):
        self.run_fresh(PACKAGE_NAMES_RESOLVE, *PACKAGE_NAMES)


def renamed_problem(v0, v1):
    """alpha_zero_problem with its vertices named v0 and v1."""
    text = json.dumps(alpha_zero_problem())
    text = text.replace('"v0"', json.dumps(v0)).replace('"v1"', json.dumps(v1))
    return json.loads(text)


def run_module(args, **kwargs):
    """python -m quiverstab.cli args, with a stdio encoding that is not UTF-8."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="latin-1")
    return subprocess.run(
        [sys.executable, "-m", "quiverstab.cli", *args],
        env=env, capture_output=True, timeout=60, **kwargs,
    )


class TestStreams:
    def test_stdin_is_read_as_utf8_like_a_file(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_bytes(
            json.dumps(renamed_problem("é", "v1"), ensure_ascii=False).encode("utf-8")
        )
        argv = ["--format", "json", "verify"]
        from_file = run_module(argv + [str(path)])
        from_stdin = run_module(argv + ["-"], input=path.read_bytes())
        assert from_file.returncode == from_stdin.returncode == EXIT_OK
        digests = [json.loads(r.stdout)["digest"] for r in (from_file, from_stdin)]
        assert digests[0] == digests[1]

    def test_closed_stdout_keeps_the_verdict(self, tmp_path):
        # names this long make the report outgrow a pipe's buffer, so the
        # command is still writing when the reader leaves after one line
        data = renamed_problem("a" * 20000, "b" * 20000)
        path = write_problem(tmp_path, data)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "quiverstab.cli", "verify", path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"command: verify\n"
        proc.stdout.close()
        _out, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_OK
        assert err == b""

    def test_closed_stdin_is_an_unreadable_problem_file(self, monkeypatch, capsys):
        # a stream closed before the start (`verify - <&-`) is None
        monkeypatch.setattr(sys, "stdin", None)
        assert main(["verify", "-"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: cannot read problem file -: stdin is closed\n"

    @pytest.mark.parametrize(
        "match, code", [(True, EXIT_OK), (False, EXIT_CONTRADICTION)]
    )
    def test_closed_stdout_writes_nothing_and_keeps_the_verdict(
        self, tmp_path, monkeypatch, capsys, match, code
    ):
        # main looks verify_result up when it runs, so this stub is called
        monkeypatch.setattr(cli, "verify_result", lambda data, budget: {"match": match})
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["verify", write_problem(tmp_path, alpha_zero_problem())]) == code
        assert main(["p1", "--blocks", "1:1"]) == EXIT_OK
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "redirect, code, err",
        [("<&-", EXIT_USAGE, b"error: cannot read problem file -: stdin is closed\n"),
         (">&-", EXIT_OK, b"")],
        ids=["stdin", "stdout"],
    )
    def test_closed_stream_in_a_shell(self, tmp_path, redirect, code, err):
        path = write_problem(tmp_path, alpha_zero_problem())
        run = subprocess.run(
            ["sh", "-c", f'exec "$0" -m quiverstab.cli verify "$1" {redirect}',
             sys.executable, path if redirect == ">&-" else "-"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, timeout=60,
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, b"", err)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", ["p1", "verify"])
    def test_unwritable_report_exits_usage(self, tmp_path, command):
        # every write to /dev/full fails with ENOSPC: one error line, no
        # traceback, and exit 2 even where the verdict was a match
        args = ["verify", write_problem(tmp_path, alpha_zero_problem())]
        run = subprocess.run(
            ["sh", "-c", 'exec "$0" -m quiverstab.cli "$@" >/dev/full', sys.executable,
             *(args if command == "verify" else ["p1", "--blocks", "1:1"])],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, timeout=60,
        )
        assert (run.returncode, run.stdout) == (EXIT_USAGE, b"")
        assert run.stderr.startswith(b"error: cannot write the report: [Errno 28] ")
        assert run.stderr.count(b"\n") == 1

    @pytest.mark.parametrize(
        "args, code",
        [(["p1", "--blocks", "nope"], EXIT_USAGE),
         (["verify", "PROBLEM", "--budget", "1"], EXIT_BUDGET)],
        ids=["usage", "budget"],
    )
    def test_closed_stderr_keeps_the_exit_code(self, tmp_path, args, code):
        # the error line is dropped, as argparse drops its own
        path = write_problem(tmp_path, alpha_zero_problem())
        run = subprocess.run(
            ["sh", "-c", 'exec "$0" -m quiverstab.cli "$@" 2>&-', sys.executable,
             *(path if a == "PROBLEM" else a for a in args)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, timeout=60,
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, b"", b"")


class TestVerifyResult:
    def test_alpha_zero_match(self):
        result = verify_result(alpha_zero_problem(), 10**6)
        assert result["match"] is True
        assert result["gamma"] == ["-1/1", "1/1"]
