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
nested too deep to decode, a --budget below 1, a degenerate rank3 input
and an unwritable report, though a closed pipe keeps the verdict), 3
theorem contradiction (including a verify mismatch), 4 budget exceeded
(by the candidate subspace tuples or the chains of the Kempf search).
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

from . import kempf, quiver as qv
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


class _as_usage:
    """Within it, an error of the given types is a usage error: a
    ProblemFormatError with the given message, or else with the error's
    own after the given prefix."""

    __slots__ = ("message", "errors", "prefix")

    def __init__(self, message=None, errors=ValueError, prefix=""):
        self.message, self.errors, self.prefix = message, errors, prefix

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, _tb):
        if kind is not None and issubclass(kind, self.errors):
            raise ProblemFormatError(self.message or self.prefix + str(exc)) from exc


def _vertex_integers(obj, vertices, name):
    """obj must map exactly the declared vertices to integers."""
    _expect(isinstance(obj, dict), f"{name} must be an object")
    for v in vertices:
        _expect(v in obj, f"{name} missing vertex '{v}'")
        # JSON true/false load as bool, a subclass of int
        _expect(isinstance(obj[v], int) and not isinstance(obj[v], bool),
                f"{name}['{v}'] must be an integer")
    unknown = sorted(set(obj) - set(vertices))
    _expect(not unknown, f"{name} has unknown vertex {unknown[:1]}")


def parse_problem(data: dict):
    """Validate a problem dict and build the domain objects."""
    _expect(isinstance(data, dict), "problem must be a JSON object")
    for key in ("field", "quiver", "representation", "stability"):
        _expect(key in data, f"missing top-level field '{key}'")
    fld = data["field"]
    _expect(isinstance(fld, dict) and "p" in fld, "field must be {'p': prime}")
    with _as_usage():
        field = PrimeField(fld["p"])

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
    with _as_usage():
        quiver = qv.Quiver(vertices, tuple(arrows))

    rep = data["representation"]
    _expect(isinstance(rep, dict), "representation must be an object")
    dims = rep.get("dims")
    _vertex_integers(dims, vertices, "representation.dims")
    matrices = rep.get("matrices", {})
    _expect(isinstance(matrices, dict), "representation.matrices must be an object")
    unknown = sorted(set(matrices) - {str(i) for i in range(len(arrows))})
    _expect(not unknown, f"representation.matrices has no arrow {unknown[:1]}")
    arrow_maps = []
    for i, (src, _tgt) in enumerate(arrows):
        raw = matrices.get(str(i))
        _expect(raw is not None, f"representation.matrices missing arrow index '{i}'")
        _expect(isinstance(raw, list) and all(isinstance(row, list) for row in raw),
                f"matrix {i} must be a list of rows")
        # entries, shapes and signs are Matrix's and Representation's to check
        with _as_usage(prefix=f"matrix {i}: "):
            arrow_maps.append(
                Matrix.from_rows(field, raw, len(raw[0]) if raw else dims[src])
            )
    with _as_usage():
        representation = qv.Representation(
            quiver, field, {v: dims[v] for v in vertices}, tuple(arrow_maps)
        )

    stab = data["stability"]
    _expect(isinstance(stab, dict), "stability must be an object")
    theta = stab.get("theta")
    sigma = stab.get("sigma")
    _vertex_integers(theta, vertices, "stability.theta")
    _vertex_integers(sigma, vertices, "stability.sigma")
    with _as_usage():
        params = qv.StabilityParams(
            {v: theta[v] for v in vertices}, {v: sigma[v] for v in vertices}
        )
    return representation, params


def frac_str(x) -> str:
    f = Fraction(x)
    # Decimal prints an int of any length; str() refuses one longer
    # than sys.get_int_max_str_digits() digits
    return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def _score_payload(square: Fraction) -> dict:
    return {"sign": int(square > 0), "square": frac_str(square)}


def _filtration_payload(f: qv.Filtration, params: qv.StabilityParams) -> dict:
    order = f.parent.quiver.vertices
    steps = [{v: [list(row) for row in s.spaces[v].basis] for v in order} for s in f.steps]
    return {
        "steps": steps,
        "step_dims": [{v: d[v] for v in order} for d in f.step_dims()],
        "quotient_slopes": [frac_str(qv.slope(d, params)) for d in f.quotient_dims()],
    }


def _digest(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


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
    return {**_filtration_payload(f, params), "semistable": False,
            "gamma": [frac_str(g) for g in gamma], "score": _score_payload(score)}


def verify_result(data: dict, budget: int) -> dict:
    """Both routes; 'match' is False exactly when the theorem fails."""
    lat, params = _lattice_problem(data, budget)
    if qv.is_semistable(lat, params):
        return {"semistable": True, "match": kempf.kempf_semistability(lat, params)}
    try:
        kf, gamma, score = kempf.kempf_filtration(lat, params)
    except SemistableInputError as exc:
        raise TheoremContradictionError(
            "the slope route finds the input unstable, but the Kempf search "
            "finds no chain scoring above 0") from exc
    hn = qv.hn_filtration(lat, params)
    match = [a.spaces for a in hn.steps] == [b.spaces for b in kf.steps]
    # equal steps render to equal payloads, so an agreed filtration renders once
    hn_payload = _filtration_payload(hn, params)
    return {
        "semistable": False,
        "match": match,
        "hn": hn_payload,
        "kempf": hn_payload if match else _filtration_payload(kf, params),
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
# inline-argument commands: each parameter is the flag of its name


def _parse_fraction(text: str) -> Fraction:
    with _as_usage(f"bad rational {text!r}", (ValueError, ZeroDivisionError)):
        return Fraction(text)


def p1_result(blocks: str) -> dict:
    # the curve commands import their calculators here, so verify and the
    # other problem-file commands never load them
    from . import curves

    with _as_usage("--blocks must look like 'deg:mult,deg:mult,...'"):
        pairs = [(int(a), int(b))
                 for a, b in (p.split(":") for p in blocks.split(","))]
    with _as_usage():
        bundle = curves.SplitBundle(tuple(pairs))
    prefixes = curves.p1_hn(bundle)
    return {
        "slope": frac_str(curves.p1_slope(bundle)),
        "steps": [[list(bl) for bl in pref.blocks] for pref in prefixes],
        "quotient_slopes": [str(a) for a, _ in bundle.blocks],
    }


def rank2_result(candidates: str, deg_e: int, s: int, tau: str) -> dict:
    from . import curves

    tau = _parse_fraction(tau)
    with _as_usage("--candidates must look like 'degL:epsL,degL:epsL,...'"):
        cands = [curves.Rank2Candidate(int(dl), int(el))
                 for dl, el in (p.split(":") for p in candidates.split(","))]
    with _as_usage():
        res = curves.rank2_best(cands, deg_e, s, tau)
    return {
        "best": {"deg_l": res.best.deg_l, "eps_l": res.best.eps_l},
        "value": frac_str(res.value),
        "verdict": res.verdict,
    }


def rank3_result(v: str, tau: str) -> dict:
    from . import curves

    tau = _parse_fraction(tau)
    with _as_usage("--v must be three comma-separated integers"):
        v = tuple(int(x) for x in v.split(","))
    with _as_usage():
        slopes = curves.Rank3Slopes(v, tau)
    with _as_usage(errors=DegenerateInputError):
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
    # ValueError covers malformed JSON and bytes that are not UTF-8;
    # RecursionError, arrays or objects nested too deep to decode
    with _as_usage(errors=(OSError, ValueError, RecursionError),
                   prefix=f"cannot read problem file {path}: "):
        if path == "-":
            if sys.stdin is None:  # closed before the start (`<&-`)
                raise OSError("stdin is closed")
            # decoded as UTF-8, like a file, whatever the locale; a stream
            # with no byte layer under it (io.StringIO) is text already
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
            return json.loads(text)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)


def _budget(text: str) -> int:
    budget = int(text)
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {budget}")
    return budget


# each command and its one-line help; the first five read a problem file
COMMANDS = {
    "hn": "Harder-Narasimhan filtration with property report",
    "kempf": "maximally destabilizing weighted filtration",
    "verify": "check the two filtrations coincide",
    "semistable": "semistability via both routes",
    "enumerate": "list subrepresentation dimension vectors",
    "p1": "filtration of a split bundle on the line",
    "rank2": "rank-2 candidate maximizer",
    "rank3": "rank-3 optimal weight triple",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every main call, built on the first one: it reads
    --format and the command, and leaves the rest to the command's own."""
    parser = argparse.ArgumentParser(
        prog="quiverstab",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Slope stability and maximally destabilizing filtrations for\n"
        "quiver representations over prime fields.",
        epilog="commands:\n" + "".join(f"  {n:12}{h}\n" for n, h in COMMANDS.items())
        + "\n'quiverstab <command> --help' lists the options of a command.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    parser.add_argument("command", choices=COMMANDS, metavar="command")
    # everything after the command, options included, is the command's
    parser.add_argument("args", nargs=argparse.REMAINDER)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command's arguments, built the first time it runs."""
    parser = argparse.ArgumentParser(prog=f"quiverstab {name}", description=COMMANDS[name])
    add = parser.add_argument
    if name == "p1":
        add("--blocks", required=True, help="'deg:mult,deg:mult,...'")
    elif name == "rank2":
        add("--candidates", required=True, help="'degL:epsL,...'")
        add("--deg-e", type=int, required=True)
        add("--s", type=int, required=True)
        add("--tau", required=True, help="rational like 1/3")
    elif name == "rank3":
        add("--v", required=True, help="three integers, e.g. '-5,1,4'")
        add("--tau", required=True, help="positive rational like 1/3")
    else:
        add("problem", help="path to a JSON problem file, or - for stdin")
        add("--budget", type=_budget, default=qv.DEFAULT_BUDGET)
    return parser


def _warn(line: str):
    """Write line to stderr; a stderr that cannot be written (closed with
    `2>&-`) drops it, as argparse drops its own messages."""
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        flags = vars(_command_parser(args.command).parse_args(args.args))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.monotonic()
    # looked up at call time, so wrappers installed on this module
    # (perfbench/tracing.py) see every call
    run = globals()[f"{args.command}_result"]
    try:
        if "problem" in flags:
            data = _load_problem_file(flags["problem"])
            result = run(data, flags["budget"])
        else:
            data, result = flags, run(**flags)
    except (ProblemFormatError, ZeroRepresentationError) as exc:
        _warn(f"error: {exc}")
        return EXIT_USAGE
    except EnumerationBudgetError as exc:
        _warn(f"error: {exc}")
        return EXIT_BUDGET
    except TheoremContradictionError as exc:
        _warn(f"theorem contradiction: {exc}")
        return EXIT_CONTRADICTION

    report = {
        "command": args.command,
        "input": data,
        "digest": _digest(data),
        "result": result,
        "timing_ms": round((time.monotonic() - started) * 1000, 3),
    }
    try:
        # stdout is None when it was closed before the start (`>&-`)
        if sys.stdout is not None:
            print(json.dumps(report, sort_keys=True) if args.fmt == "json"
                  else _render_text(report))
            sys.stdout.flush()
    except OSError as exc:
        # a gone reader (`verify f.json | head -1`) leaves the verdict,
        # any other failure (`>/dev/full`) is a usage error; with stdout on
        # the null device the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            _warn(f"error: cannot write the report: {exc}")
            return EXIT_USAGE
    if args.command == "verify" and not result["match"]:
        return EXIT_CONTRADICTION
    return EXIT_OK


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
