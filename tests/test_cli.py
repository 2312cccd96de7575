import json

import pytest

from quiverstab import quiver as qv
from quiverstab.cli import (
    EXIT_BUDGET,
    EXIT_CONTRADICTION,
    EXIT_OK,
    EXIT_USAGE,
    ProblemFormatError,
    main,
    parse_problem,
    verify_result,
)


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
}


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

    def test_semistable_verify_ok(self, tmp_path, capsys):
        path = write_problem(tmp_path, semistable_problem())
        assert main(["verify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "semistable: True" in out

    def test_kempf_on_semistable_reports_cleanly(self, tmp_path, capsys):
        path = write_problem(tmp_path, semistable_problem())
        assert main(["kempf", path]) == EXIT_OK

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


class TestVerifyResult:
    def test_alpha_zero_match(self):
        result = verify_result(alpha_zero_problem(), 10**6)
        assert result["match"] is True
        assert result["gamma"] == ["-1/1", "1/1"]
