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

Exit codes: 0 success / verified, 2 usage or schema error,
3 theorem contradiction (including a verify mismatch), 4 enumeration
budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import curves, kempf, kronecker, quiver as qv
from .errors import (
    EnumerationBudgetError,
    SemistableInputError,
    TheoremContradictionError,
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
    vertices = tuple(q["vertices"])
    arrows = []
    for i, arr in enumerate(q["arrows"]):
        _expect(
            isinstance(arr, list) and len(arr) == 2,
            f"quiver.arrows[{i}] must be a [source, target] pair",
        )
        arrows.append((arr[0], arr[1]))
    try:
        quiver = qv.Quiver(vertices, tuple(arrows))
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc

    rep = data["representation"]
    _expect(isinstance(rep, dict), "representation must be an object")
    dims = rep.get("dims")
    _expect(isinstance(dims, dict), "representation.dims must be an object")
    for v in vertices:
        _expect(v in dims, f"representation.dims missing vertex '{v}'")
        _expect(
            isinstance(dims[v], int) and dims[v] >= 0,
            f"representation.dims['{v}'] must be a non-negative integer",
        )
    matrices = rep.get("matrices", {})
    _expect(isinstance(matrices, dict), "representation.matrices must be an object")
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
                all(isinstance(x, int) for x in row),
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
    _expect(isinstance(theta, dict), "stability.theta must be an object")
    _expect(isinstance(sigma, dict), "stability.sigma must be an object")
    for v in vertices:
        _expect(v in theta, f"stability.theta missing vertex '{v}'")
        _expect(v in sigma, f"stability.sigma missing vertex '{v}'")
    try:
        params = qv.StabilityParams(
            {v: theta[v] for v in vertices}, {v: sigma[v] for v in vertices}
        )
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc
    return representation, params


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


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


def hn_result(data: dict, budget: int) -> dict:
    m, params = parse_problem(data)
    f = qv.hn_filtration(m, params, budget)
    report = qv.check_hn_properties(f, params, budget)
    payload = _filtration_payload(f, params)
    payload["strictly_descending"] = report.strictly_descending
    payload["quotients_semistable"] = report.quotients_semistable
    payload["properties_ok"] = report.ok
    return payload


def kempf_result(data: dict, budget: int, heuristic_prune: bool = False) -> dict:
    m, params = parse_problem(data)
    if qv.is_semistable(m, params, budget):
        return {"semistable": True}
    f, gamma, score = kempf.kempf_filtration(m, params, budget, heuristic_prune)
    payload = _filtration_payload(f, params)
    payload["semistable"] = False
    payload["gamma"] = [frac_str(g) for g in gamma]
    payload["score"] = _score_payload(score)
    return payload


def verify_result(data: dict, budget: int) -> dict:
    """Both routes; 'match' is False exactly when the theorem fails."""
    m, params = parse_problem(data)
    if qv.is_semistable(m, params, budget):
        agree = kempf.kempf_semistability(m, params, budget)
        return {"semistable": True, "match": agree}
    hn = qv.hn_filtration(m, params, budget)
    kf, gamma, score = kempf.kempf_filtration(m, params, budget)
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
    m, params = parse_problem(data)
    slope_route = qv.is_semistable(m, params, budget)
    git_route = kempf.kempf_semistability(m, params, budget)
    return {
        "slope_semistable": slope_route,
        "git_semistable": git_route,
        "agree": slope_route == git_route,
    }


def enumerate_result(data: dict, budget: int) -> dict:
    m, params = parse_problem(data)
    subs = qv.enumerate_subreps(m, budget)
    order = m.quiver.vertices
    return {
        "count": len(subs),
        "dimension_vectors": [
            {v: s.spaces[v].dim for v in order} for s in subs
        ],
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
    case, gamma = curves.rank3_weights(slopes)
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
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFormatError(f"cannot read problem file {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
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
        c.add_argument("--budget", type=int, default=qv.DEFAULT_BUDGET)
        return c

    add_file_cmd("hn", "Harder-Narasimhan filtration with property report")
    k = add_file_cmd("kempf", "maximally destabilizing weighted filtration")
    k.add_argument("--heuristic-prune", action="store_true")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.monotonic()
    exit_code = EXIT_OK
    try:
        if args.command in ("hn", "kempf", "verify", "semistable", "enumerate"):
            data = _load_problem_file(args.problem)
            if args.command == "hn":
                result = hn_result(data, args.budget)
            elif args.command == "kempf":
                result = kempf_result(data, args.budget, args.heuristic_prune)
            elif args.command == "verify":
                result = verify_result(data, args.budget)
                if not result["match"]:
                    exit_code = EXIT_CONTRADICTION
            elif args.command == "semistable":
                result = semistable_result(data, args.budget)
            else:
                result = enumerate_result(data, args.budget)
            report = _make_report(args.command, data, result, started)
        elif args.command == "p1":
            result = p1_result(args.blocks)
            report = _make_report("p1", {"blocks": args.blocks}, result, started)
        elif args.command == "rank2":
            result = rank2_result(args.candidates, args.deg_e, args.s, args.tau)
            report = _make_report(
                "rank2",
                {
                    "candidates": args.candidates,
                    "deg_e": args.deg_e,
                    "s": args.s,
                    "tau": args.tau,
                },
                result,
                started,
            )
        else:
            result = rank3_result(args.v, args.tau)
            report = _make_report(
                "rank3", {"v": args.v, "tau": args.tau}, result, started
            )
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SemistableInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TheoremContradictionError as exc:
        print(f"theorem contradiction: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION

    if args.fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(_render_text(report))
    return exit_code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
