"""Spans and counters at the layer boundaries of the ``verify`` path.

The tracer wraps the public entry points of each layer from outside the
library, on every binding a call goes through (a name imported into
another module is a second binding), and keeps its spans in memory as
[name, start_ns, end_ns, parent, problem, child_ns].  A span's self
time is its duration minus the durations of its direct children.
``Subspace.contains_vector`` runs millions of times, so it is counted,
not spanned.  Installing fails loudly if a boundary no longer resolves.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module key, attribute path, span name); one wrapper per original
# function, so two bindings of one function record one span per call.
BOUNDARIES = (
    ("linalg", "enumerate_subspaces", "linalg.enumerate_subspaces"),
    ("quiver", "enumerate_subspaces", "linalg.enumerate_subspaces"),
    ("quiver", "enumerate_subreps", "quiver.enumerate_subreps"),
    ("kempf", "enumerate_subreps", "quiver.enumerate_subreps"),
    ("quiver", "is_semistable", "quiver.is_semistable"),
    ("kempf", "is_semistable", "quiver.is_semistable"),
    ("quiver", "max_destabilizing", "quiver.max_destabilizing"),
    ("quiver", "hn_filtration", "quiver.hn_filtration"),
    ("kempf", "_chain_index_sets", "kempf._chain_index_sets"),
    ("kempf", "_chain_score", "kempf._chain_score"),
    ("kempf", "kempf_filtration", "kempf.kempf_filtration"),
    ("kempf", "kempf_semistability", "kempf.kempf_semistability"),
    ("cli", "parse_problem", "cli.parse_problem"),
    ("cli", "verify_result", "cli.verify_result"),
)
MEMBERSHIP = ("linalg", "Subspace.contains_vector")

# Spans each workload exists to stress; zero of them fails the run.
STRESSED = {
    "chain-heavy": (
        "kempf._chain_score",
        "kempf._chain_index_sets",
        "kempf.kempf_filtration",
        "kempf.kempf_semistability",
        "cli.main",
        "cli.parse_problem",
        "cli.verify_result",
    ),
    "enum-heavy": (
        "quiver.enumerate_subreps",
        "linalg.enumerate_subspaces",
        "quiver.is_semistable",
        "quiver.max_destabilizing",
        "quiver.hn_filtration",
    ),
    "small-sweep": tuple(sorted({name for _m, _a, name in BOUNDARIES} | {"cli.main"})),
}


class BoundaryError(RuntimeError):
    """A traced boundary is missing or recorded nothing."""


def _resolve(modules: dict, key: str, path: str):
    owner = modules[key]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        raise BoundaryError(f"traced boundary {key}.{path} no longer resolves")
    return owner, attr


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.linalg = modules["linalg"]
        self.spans = []
        self.stack = []
        self.problem = None
        self.counts = Counter()
        self.per_problem = defaultdict(Counter)
        self._sequences = set()
        self._membership = [0]  # a bare cell: the cheapest counter per call
        self._patches = []

    # -- recording -------------------------------------------------------

    def begin_problem(self, pid: str):
        self.problem = pid
        self._sequences = set()

    def count(self, key: str, n: int = 1):
        self.counts[key] += n
        self.per_problem[self.problem][key] += n

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        spans, stack = self.spans, self.stack
        parent = stack[-1] if stack else -1
        rec = [name, 0, 0, parent, self.problem, 0]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = rec[2] = time.perf_counter_ns()
            stack.pop()
            if parent >= 0:
                spans[parent][5] += end - rec[1]

    def _wrap(self, name: str, fn):
        hook = {
            "linalg.enumerate_subspaces": self._after_enumerate_subspaces,
            "quiver.enumerate_subreps": self._after_enumerate_subreps,
            "kempf._chain_index_sets": self._after_chain_index_sets,
            "kempf._chain_score": self._after_chain_score,
        }.get(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _after_enumerate_subspaces(self, args, result):
        self.count("subspaces_built", len(result))

    def _after_enumerate_subreps(self, args, result):
        m = args[0]
        gb = self.linalg.gaussian_binomial
        candidates = 1
        for d in m.dims.values():
            candidates *= sum(gb(d, k, m.field.p) for k in range(d + 1))
        self.count("candidates", candidates)
        self.count("subreps_kept", len(result))
        stats = self.per_problem[self.problem]
        stats["max_candidates"] = max(stats["max_candidates"], candidates)
        stats["max_subreps"] = max(stats["max_subreps"], len(result))

    def _after_chain_index_sets(self, args, result):
        subs, lower, _full = result
        self.count("dag_pairs", len(subs) * (len(subs) - 1))
        self.count("dag_edges", sum(len(pre) for pre in lower))

    def _after_chain_score(self, args, result):
        self.count("chains")
        key = (tuple(args[0]), args[1], args[2])
        if key not in self._sequences:
            self._sequences.add(key)
            self.count("distinct_sequences")

    # -- installing ------------------------------------------------------

    def install(self):
        wrappers = {}
        for key, path, name in BOUNDARIES:
            owner, attr = _resolve(self.modules, key, path)
            original = getattr(owner, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])
        owner, attr = _resolve(self.modules, *MEMBERSHIP)
        original = getattr(owner, attr)
        tally = self._membership

        def contains_vector(subspace, vec):
            tally[0] += 1
            return original(subspace, vec)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, contains_vector)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def require(self, workload: str):
        """Fail if a boundary this workload stresses recorded nothing."""
        calls = Counter(rec[0] for rec in self.spans)
        missing = [name for name in STRESSED[workload] if not calls[name]]
        if not self._membership[0]:
            missing.append("linalg.Subspace.contains_vector")
        if missing:
            raise BoundaryError(
                f"{workload}: no spans recorded at {', '.join(missing)}"
            )

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        total = Counter()
        own = Counter()
        calls = Counter()
        hn_top = 0
        for name, start, end, parent, _pid, child in self.spans:
            total[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
            if name == "quiver.hn_filtration" and (
                parent < 0 or self.spans[parent][0] != name
            ):
                hn_top += 1
        c = self.counts
        s = 1e-9
        return {
            "linalg.subspaces_s": total["linalg.enumerate_subspaces"] * s,
            "linalg.subspaces_built": c["subspaces_built"],
            "linalg.membership_tests": self._membership[0],
            "quiver.enumerate_calls": calls["quiver.enumerate_subreps"],
            "quiver.enumerate_self_s": own["quiver.enumerate_subreps"] * s,
            "quiver.candidates": c["candidates"],
            "quiver.subreps_kept": c["subreps_kept"],
            "quiver.keep_ratio": c["subreps_kept"] / max(c["candidates"], 1),
            "quiver.semistable_calls": calls["quiver.is_semistable"],
            "quiver.hn_self_s": (
                own["quiver.hn_filtration"] + own["quiver.max_destabilizing"]
            ) * s,
            "quiver.hn_depth": calls["quiver.hn_filtration"] / max(hn_top, 1),
            "kempf.dag_calls": calls["kempf._chain_index_sets"],
            "kempf.dag_self_s": own["kempf._chain_index_sets"] * s,
            "kempf.dag_pairs": c["dag_pairs"],
            "kempf.dag_edges": c["dag_edges"],
            "kempf.chains_scored": calls["kempf._chain_score"],
            "kempf.distinct_sequences": c["distinct_sequences"],
            "kempf.distinct_ratio": (
                c["distinct_sequences"] / max(calls["kempf._chain_score"], 1)
            ),
            "kempf.score_s": total["kempf._chain_score"] * s,
            "kempf.walk_self_s": (
                own["kempf.kempf_filtration"] + own["kempf.kempf_semistability"]
            ) * s,
            "cli.parse_s": total["cli.parse_problem"] * s,
            "cli.report_s": (total["cli.main"] - total["cli.verify_result"]) * s,
            "cli.report_bytes": c["report_bytes"],
        }
