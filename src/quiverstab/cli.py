"""Command-line frontend.

Problem files are UTF-8 JSON.  Example:

    {
      "field": {"p": 2},
      "quiver": {"vertices": ["v0", "v1"], "arrows": [["v0", "v1"]]},
      "representation": {
        "dims": {"v0": 1, "v1": 1},
        "matrices": {"0": [[0]]}
      },
      "stability": {"theta": {"v0": 1, "v1": 0}, "sigma": {"v0": 1, "v1": 1}}
    }

Vertex ids are strings; integers (p, dims, theta, sigma, matrix
entries) are JSON integers, not true/false; dims, theta and sigma name
only declared vertices, and matrices only arrow indices.

Exit codes: 0 success / verified, 2 usage or schema error (including a
zero-dimensional representation, a problem file that is not UTF-8 or is
nested too deep to decode, a --budget below 1 and a degenerate rank3
input), 3 theorem contradiction (including a verify mismatch), 4
enumeration budget exceeded (by the candidate subspace tuples or by the
chains of the Kempf search).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from decimal import Decimal
from fractions import Fraction

from . import curves, kempf, quiver as qv
from .errors import (
    DegenerateInputError,
    EnumerationBudgetError,
    SemistableInputError,
    TheoremContradictionError,
    ZeroRepresentationError,
)
from .linalg import Matrix, PrimeField

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRADICTION = 3
EXIT_BUDGET = 4


class ProblemFormatError(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise ProblemFormatError(msg)


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _vertex_integers(obj, vertices, name):
    """obj must map exactly the declared vertices to integers."""
    _expect(isinstance(obj, dict), f"{name} must be an object")
    for v in vertices:
        _expect(v in obj, f"{name} missing vertex '{v}'")
        _expect(_is_int(obj[v]), f"{name}['{v}'] must be an integer")
    unknown = sorted(set(obj) - set(vertices))
    _expect(not unknown, f"{name} has unknown vertex {unknown[:1]}")


def parse_problem(data: dict):
    """Validate a problem dict and build the domain objects."""
    _expect(isinstance(data, dict), "problem must be a JSON object")
    for key in ("field", "quiver", "representation", "stability"):
        _expect(key in data, f"missing top-level field '{key}'")
    fld = data["field"]
    _expect(isinstance(fld, dict) and "p" in fld, "field must be {'p': prime}")
    try:
        field = PrimeField(fld["p"])
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc

    q = data["quiver"]
    _expect(isinstance(q, dict), "quiver must be an object")
    _expect(isinstance(q.get("vertices"), list), "quiver.vertices must be a list")
    _expect(isinstance(q.get("arrows"), list), "quiver.arrows must be a list")
    _expect(
        all(isinstance(v, str) for v in q["vertices"]),
        "quiver.vertices must be strings",
    )
    vertices = tuple(q["vertices"])
    arrows = []
    for i, arr in enumerate(q["arrows"]):
        _expect(
            isinstance(arr, list)
            and len(arr) == 2
            and all(isinstance(v, str) for v in arr),
            f"quiver.arrows[{i}] must be a [source, target] pair of vertex ids",
        )
        arrows.append((arr[0], arr[1]))
    try:
        quiver = qv.Quiver(vertices, tuple(arrows))
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc

    rep = data["representation"]
    _expect(isinstance(rep, dict), "representation must be an object")
    dims = rep.get("dims")
    _vertex_integers(dims, vertices, "representation.dims")
    for v in vertices:
        _expect(dims[v] >= 0, f"representation.dims['{v}'] must be non-negative")
    matrices = rep.get("matrices", {})
    _expect(isinstance(matrices, dict), "representation.matrices must be an object")
    unknown = sorted(set(matrices) - {str(i) for i in range(len(arrows))})
    _expect(not unknown, f"representation.matrices has no arrow {unknown[:1]}")
    arrow_maps = []
    for i, (src, tgt) in enumerate(arrows):
        raw = matrices.get(str(i))
        _expect(
            raw is not None,
            f"representation.matrices missing arrow index '{i}'",
        )
        nrows, ncols = dims[tgt], dims[src]
        _expect(
            isinstance(raw, list) and len(raw) == nrows,
            f"matrix {i} must have {nrows} rows",
        )
        for row in raw:
            _expect(
                isinstance(row, list) and len(row) == ncols,
                f"matrix {i} rows must have {ncols} entries",
            )
            _expect(
                all(_is_int(x) for x in row),
                f"matrix {i} entries must be integers",
            )
        arrow_maps.append(
            Matrix(field, nrows, ncols,
                   tuple(tuple(x % field.p for x in row) for row in raw))
        )
    representation = qv.Representation(
        quiver, field, {v: dims[v] for v in vertices}, tuple(arrow_maps)
    )

    stab = data["stability"]
    _expect(isinstance(stab, dict), "stability must be an object")
    theta = stab.get("theta")
    sigma = stab.get("sigma")
    _vertex_integers(theta, vertices, "stability.theta")
    _vertex_integers(sigma, vertices, "stability.sigma")
    try:
        params = qv.StabilityParams(
            {v: theta[v] for v in vertices}, {v: sigma[v] for v in vertices}
        )
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc
    return representation, params


def frac_str(x) -> str:
    f = Fraction(x)
    # Decimal prints an int of any length; str() refuses one longer
    # than sys.get_int_max_str_digits() digits
    return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def _score_payload(score: kempf.ExactScore) -> dict:
    return {"sign": score.sign, "square": frac_str(score.square)}


def _filtration_payload(f: qv.Filtration, params: qv.StabilityParams) -> dict:
    steps = []
    for s in f.steps:
        steps.append(
            {
                v: [list(row) for row in s.spaces[v].basis]
                for v in f.parent.quiver.vertices
            }
        )
    qslopes = [frac_str(qv.slope(d, params)) for d in f.quotient_dims()]
    return {
        "steps": steps,
        "step_dims": [
            {v: d[v] for v in f.parent.quiver.vertices} for d in f.step_dims()
        ],
        "quotient_slopes": qslopes,
    }


def _digest(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _make_report(command: str, input_data, result: dict, started: float) -> dict:
    return {
        "command": command,
        "input": input_data,
        "digest": _digest(input_data),
        "result": result,
        "timing_ms": round((time.monotonic() - started) * 1000, 3),
    }


# ---------------------------------------------------------------------------
# per-command result payloads (pure: problem dict in, payload out)


def _lattice_problem(data: dict, budget: int):
    """Parse a problem and enumerate its subrepresentation lattice, once
    for every route the command runs."""
    m, params = parse_problem(data)
    return qv.SubrepLattice(m, budget), params


def hn_result(data: dict, budget: int) -> dict:
    lat, params = _lattice_problem(data, budget)
    f = qv.hn_filtration(lat, params)
    report = qv.check_hn_properties(lat, f, params)
    payload = _filtration_payload(f, params)
    payload["strictly_descending"] = report.strictly_descending
    payload["quotients_semistable"] = report.quotients_semistable
    payload["properties_ok"] = report.ok
    return payload


def kempf_result(data: dict, budget: int) -> dict:
    lat, params = _lattice_problem(data, budget)
    try:
        f, gamma, score = kempf.kempf_filtration(lat, params)
    except SemistableInputError:
        return {"semistable": True}
    payload = _filtration_payload(f, params)
    payload["semistable"] = False
    payload["gamma"] = [frac_str(g) for g in gamma]
    payload["score"] = _score_payload(score)
    return payload


def verify_result(data: dict, budget: int) -> dict:
    """Both routes; 'match' is False exactly when the theorem fails."""
    lat, params = _lattice_problem(data, budget)
    try:
        kf, gamma, score = kempf.kempf_filtration(lat, params)
    except SemistableInputError:
        agree = kempf.kempf_semistability(lat, params)
        return {"semistable": True, "match": agree}
    hn = qv.hn_filtration(lat, params)
    match = [a.dim_vector() for a in hn.steps] == [
        b.dim_vector() for b in kf.steps
    ] and all(a.spaces == b.spaces for a, b in zip(hn.steps, kf.steps))
    return {
        "semistable": False,
        "match": match,
        "hn": _filtration_payload(hn, params),
        "kempf": _filtration_payload(kf, params),
        "gamma": [frac_str(g) for g in gamma],
        "score": _score_payload(score),
    }


def semistable_result(data: dict, budget: int) -> dict:
    lat, params = _lattice_problem(data, budget)
    slope_route = qv.is_semistable(lat, params)
    git_route = kempf.kempf_semistability(lat, params)
    return {
        "slope_semistable": slope_route,
        "git_semistable": git_route,
        "agree": slope_route == git_route,
    }


def enumerate_result(data: dict, budget: int) -> dict:
    lat, _params = _lattice_problem(data, budget)
    order = lat.rep.quiver.vertices
    return {
        "count": len(lat.subs),
        "dimension_vectors": [dict(zip(order, d)) for d in lat.dims],
    }


# ---------------------------------------------------------------------------
# inline-argument commands


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemFormatError(f"bad rational {text!r}") from exc


def p1_result(blocks_text: str) -> dict:
    blocks = []
    try:
        for part in blocks_text.split(","):
            a, b = part.split(":")
            blocks.append((int(a), int(b)))
    except ValueError as exc:
        raise ProblemFormatError(
            "--blocks must look like 'deg:mult,deg:mult,...'"
        ) from exc
    try:
        bundle = curves.SplitBundle(tuple(blocks))
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc
    prefixes = curves.p1_hn(bundle)
    return {
        "slope": frac_str(curves.p1_slope(bundle)),
        "steps": [[list(bl) for bl in pref.blocks] for pref in prefixes],
        "quotient_slopes": [str(a) for a, _ in bundle.blocks],
    }


def rank2_result(cands_text: str, deg_e: int, s: int, tau_text: str) -> dict:
    tau = _parse_fraction(tau_text)
    cands = []
    try:
        for part in cands_text.split(","):
            dl, el = part.split(":")
            cands.append(curves.Rank2Candidate(int(dl), int(el)))
    except ValueError as exc:
        raise ProblemFormatError(
            "--candidates must look like 'degL:epsL,degL:epsL,...'"
        ) from exc
    try:
        res = curves.rank2_best(cands, deg_e, s, tau)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc
    return {
        "best": {"deg_l": res.best.deg_l, "eps_l": res.best.eps_l},
        "value": frac_str(res.value),
        "verdict": res.verdict,
    }


def rank3_result(v_text: str, tau_text: str) -> dict:
    tau = _parse_fraction(tau_text)
    try:
        v = tuple(int(x) for x in v_text.split(","))
    except ValueError as exc:
        raise ProblemFormatError("--v must be three comma-separated integers") from exc
    try:
        slopes = curves.Rank3Slopes(v, tau)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc
    try:
        case, gamma = curves.rank3_weights(slopes)
    except DegenerateInputError as exc:
        raise ProblemFormatError(str(exc)) from exc
    return {
        "case": case,
        "gamma": None if gamma is None else [frac_str(g) for g in gamma],
    }


# ---------------------------------------------------------------------------
# rendering and dispatch


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}", f"digest: {report['digest']}"]

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, val in obj.items():
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(val, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {val}")
        elif isinstance(obj, list):
            for val in obj:
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(val, indent + 1)
                else:
                    lines.append(f"{pad}- {val}")

    walk(report["result"], 1)
    lines.append(f"timing_ms: {report['timing_ms']}")
    return "\n".join(lines)


def _load_problem_file(path: str) -> dict:
    try:
        if path == "-":
            # decoded as UTF-8, like a file, whatever the locale; a stream
            # with no byte layer under it (io.StringIO) is text already
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
            return json.loads(text)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers malformed JSON and bytes that are not UTF-8;
    # RecursionError, arrays or objects nested too deep to decode
    except (OSError, ValueError, RecursionError) as exc:
        raise ProblemFormatError(f"cannot read problem file {path}: {exc}") from exc


def _budget(text: str) -> int:
    budget = int(text)
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {budget}")
    return budget


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every main call, built on the first one."""
    parser = argparse.ArgumentParser(
        prog="quiverstab",
        description="Slope stability and maximally destabilizing filtrations "
        "for quiver representations over prime fields.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file_cmd(name, helptext):
        c = sub.add_parser(name, help=helptext)
        c.add_argument("problem", help="path to a JSON problem file, or - for stdin")
        c.add_argument("--budget", type=_budget, default=qv.DEFAULT_BUDGET)
        return c

    add_file_cmd("hn", "Harder-Narasimhan filtration with property report")
    add_file_cmd("kempf", "maximally destabilizing weighted filtration")
    add_file_cmd("verify", "check the two filtrations coincide")
    add_file_cmd("semistable", "semistability via both routes")
    add_file_cmd("enumerate", "list subrepresentation dimension vectors")

    p1 = sub.add_parser("p1", help="filtration of a split bundle on the line")
    p1.add_argument("--blocks", required=True, help="'deg:mult,deg:mult,...'")

    r2 = sub.add_parser("rank2", help="rank-2 candidate maximizer")
    r2.add_argument("--candidates", required=True, help="'degL:epsL,...'")
    r2.add_argument("--deg-e", type=int, required=True)
    r2.add_argument("--s", type=int, required=True)
    r2.add_argument("--tau", required=True, help="rational like 1/3")

    r3 = sub.add_parser("rank3", help="rank-3 optimal weight triple")
    r3.add_argument("--v", required=True, help="three integers, e.g. '-5,1,4'")
    r3.add_argument("--tau", required=True, help="positive rational like 1/3")
    return parser


def _file_command(args, result_fn):
    data = _load_problem_file(args.problem)
    return data, result_fn(data, args.budget)


# Command name -> handler(args) returning (input echoed in the report,
# result payload).  The lambdas look the *_result functions up at call
# time, so wrappers installed on this module (perfbench/tracing.py) see
# every call.
COMMANDS = {
    "hn": lambda a: _file_command(a, hn_result),
    "kempf": lambda a: _file_command(a, kempf_result),
    "verify": lambda a: _file_command(a, verify_result),
    "semistable": lambda a: _file_command(a, semistable_result),
    "enumerate": lambda a: _file_command(a, enumerate_result),
    "p1": lambda a: ({"blocks": a.blocks}, p1_result(a.blocks)),
    "rank2": lambda a: (
        {"candidates": a.candidates, "deg_e": a.deg_e, "s": a.s, "tau": a.tau},
        rank2_result(a.candidates, a.deg_e, a.s, a.tau),
    ),
    "rank3": lambda a: ({"v": a.v, "tau": a.tau}, rank3_result(a.v, a.tau)),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        input_data, result = COMMANDS[args.command](args)
    except (ProblemFormatError, SemistableInputError, ZeroRepresentationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TheoremContradictionError as exc:
        print(f"theorem contradiction: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION

    report = _make_report(args.command, input_data, result, started)
    try:
        if args.fmt == "json":
            print(json.dumps(report, sort_keys=True))
        else:
            print(_render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`verify f.json | head -1`); the verdict
        # stands, and with stdout on the null device the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if args.command == "verify" and not result["match"]:
        return EXIT_CONTRADICTION
    return EXIT_OK


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
