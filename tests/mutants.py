"""Mutants of the library's sentinels, budget comparisons, closure and
containment rules, Kempf winner's lift and Kempf semistability verdict,
its two input rules (the zero representation, negative dimensions), the
shared layers that the metamorphic relation tests guard (arrow
transposition, image normalization, the PAV merge, the sigma tie-break
and the containment table), the looped-vertex walk (the k = 1 rule, the
row-0 filter, the pattern table's key, the order within one dimension),
the Kempf search's pooling and its carried square, the quotient's
per-class count, a subspace's points, the lattice's build of a subrep
when it is read and its index, and of the CLI's usage-error guard, input
echo, verify's reading of the two routes' verdicts and verify's import
path, that the Tier-1 tests must kill.

    python tests/mutants.py

Each entry of MUTANTS names a file under src/quiverstab/, a snippet that
must occur in it exactly once, its replacement, and the test node ids
that must fail once the replacement is made.  The script copies src/
and tests/ to a temporary directory (perfbench/ is linked, for the tests
that read its problem files), checks that every named node passes there
unmutated, then applies each mutant in turn and runs each of its nodes
alone with `pytest -q`.  A mutant is killed only when every one of its
nodes fails on its own, so no node that never fails hides behind one
that does.  It prints one line per mutant and exits 1 if a mutant
survives any of its nodes, a snippet does not occur exactly once or a
node fails unmutated, 0 otherwise.

A refactor that moves or rewrites a snippet updates its entry; an entry
is retired only with the code it mutates, and either is said in
CHANGES.md.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DUALITY = "tests/test_duality.py::test_dual_filtrations_are_the_annihilators_reversed"
DIRECT_SUM = "tests/test_direct_sum.py::test_direct_sum_type_is_the_slope_ordered_merge"
CHANGE_OF_BASIS = "tests/test_change_of_basis.py::test_each_route_commutes_with_change_of_basis"
INVARIANT = "tests/test_linalg.py::TestInvariantEnumeration::"
LAZY_INDEX = "tests/test_lattice.py::test_index_finds_an_equal_subrep_built_apart"
SHAPE_FILLS = "tests/test_shape_table.py::test_a_shape_lists_each_subspace_once"

# (file, snippet, replacement, kill node ids)
MUTANTS = [
    (
        "kempf.py",
        "    if best != Fraction(num, den):\n",
        "    if False:\n",
        ["tests/test_cli.py::TestExitCodes::"
         "test_winner_score_off_its_carried_score_exits_contradiction"],
    ),
    (
        "kempf.py",
        "    if ties != 1:\n",
        "    if ties < 1:\n",
        ["tests/test_kempf_search.py::"
         "test_tie_between_chains_with_one_sequence_is_raised"],
    ),
    (
        "kempf.py",
        "        carried.append((_chains_carrying(lower, labels, seq), sid, seq))\n",
        "        carried.append((1, sid, seq))\n",
        ["tests/test_kempf_search.py::"
         "test_tie_between_chains_with_one_sequence_is_raised"],
    ),
    (
        "kempf.py",
        "        chain.append(next(i for i, _k in lower[chain[-1]] if sid in states[i]))\n",
        "        chain.append(next(i for i, _k in lower[chain[-1]]))\n",
        ["tests/test_kempf_search.py::test_search_returns_the_single_winning_chain"],
    ),
    (
        "quiver.py",
        "    if len(best) != 1:\n",
        "    if False:\n",
        ["tests/test_cli.py::TestExitCodes::test_label_tie_exits_contradiction[hn]"],
    ),
    (
        "kempf.py",
        "labels)[0] <= 0\n",
        "labels)[0] >= 0\n",
        ["tests/test_kempf.py::TestKempfSemistability::"
         "test_agrees_with_slope_route_exhaustive"],
    ),
    (
        "cli.py",
        "    except SemistableInputError as exc:\n        raise TheoremContradictionError(\n",
        "    except SemistableInputError as exc:\n"
        "        return {\"semistable\": True, \"match\": False}\n"
        "        raise TheoremContradictionError(\n",
        ["tests/test_cli.py::TestExitCodes::test_no_positive_score_exits_contradiction"],
    ),
    (
        "kempf.py",
        "    if winner is None:\n        raise SemistableInputError(",
        "    if False:\n        raise SemistableInputError(",
        ["tests/test_kempf.py::TestKempfFiltration::test_semistable_input_rejected"],
    ),
    (
        "quiver.py",
        "        for row in spaces[src].basis\n",
        "        for row in spaces[src].basis[:1]\n",
        ["tests/test_enumeration.py::test_is_subrep_equals_the_image_span_rule"],
    ),
    (
        "quiver.py",
        "            if count * cur > budget:\n",
        "            if count * cur >= budget:\n",
        ["tests/test_lattice.py::test_candidate_budget_is_exact_at_the_boundary"],
    ),
    (
        "kempf.py",
        "    if chains[-1] > lat.budget:\n",
        "    if chains[-1] >= lat.budget:\n",
        ["tests/test_kempf_search.py::test_chain_budget_exits_4"],
    ),
    (
        "quiver.py",
        "        for k, shape in enumerate(self.subs.shapes):\n",
        "        for k, shape in enumerate(self.subs.shapes[:-1]):\n",
        ["tests/test_lattice.py::test_quotient_verdicts_on_chains_that_are_not_hn[A3]"],
    ),
    (
        "cli.py",
        "        if kind is not None and issubclass(kind, self.errors):\n",
        "        if False:\n",
        ["tests/test_cli.py::TestInlineCommands::test_bad_flags"],
    ),
    (
        "cli.py",
        "            data, result = flags, run(**flags)\n",
        "            data, result = vars(args), run(**flags)\n",
        ["tests/test_cli_pins.py::test_cli_output_matches_its_pin"
         "[--format json p1 --blocks 2:1,0:1,-1:1]"],
    ),
    # the two input rules, each checked in one place
    (
        "quiver.py",
        "            if self.rep.is_zero():\n",
        "            if False:\n",
        ["tests/test_cli.py::TestExitCodes::test_bad_input_exits_usage[zero-verify]"],
    ),
    (
        "quiver.py",
        " or d < 0:\n",
        " or d < -1:\n",
        ["tests/test_cli.py::TestExitCodes::test_bad_input_exits_usage[negative-dim]"],
    ),
    # shared layers that both routes read, killed by the metamorphic relations
    (
        "quiver.py",
        "            if u > w:",
        "            if u > w + 1:",
        [DUALITY + "[A3-222-F2]"],
    ),
    (
        "linalg.py",
        "        lead = next(filter(None, im), 0)\n",
        "        lead = next(filter(None, reversed(im)), 0)\n",
        [DUALITY + "[kron2-12-F3]", DUALITY + "[loop-plus-arrow-21-F3]",
         CHANGE_OF_BASIS + "[loop-plus-arrow-21-F3]",
         "tests/test_enumeration.py::test_loops_and_arrows_share_one_normalized_image"],
    ),
    (
        "kempf.py",
        "    return top[1] * w >= x * top[0]\n",
        "    return top[1] * w > x * top[0]\n",
        [DUALITY + "[A3-222-F2]", DIRECT_SUM + "[A3-111-F2]",
         CHANGE_OF_BASIS + "[A3-222-F2]"],
    ),
    (
        "quiver.py",
        " or s - best_s\n",
        " or best_s - s\n",
        [DUALITY + "[A3-222-F2]", DIRECT_SUM + "[A3-111-F2]",
         CHANGE_OF_BASIS + "[A3-222-F2]"],
    ),
    (
        "quiver.py",
        "        for k, shape in enumerate(self.subs.shapes):\n",
        "        for k, shape in list(enumerate(self.subs.shapes))[1:]:\n",
        [DIRECT_SUM + "[A3-121-F2]"],
    ),
    # the looped-vertex walk: the k = 1 rule, the row-0 filter, the
    # pattern table's key
    (
        "linalg.py",
        "                if all(image[x] in (None, x) for image in images)\n",
        "                if all(image[x] in (None, image[x]) for image in images)\n",
        [INVARIANT + "test_special_maps[F2]"],
    ),
    (
        "linalg.py",
        "(im[j] - sum(map(mul, c, coefs))) % p == 0]",
        "(im[j] - sum(map(mul, c, coefs))) == 0]",
        [INVARIANT + "test_benchmark_shapes[F3^5]", INVARIANT + "test_random_maps[F5]"],
    ),
    (
        "linalg.py",
        "    key = n, k, p\n",
        "    key = n, k\n",
        [INVARIANT + "test_a_warm_table_changes_no_list"],
    ),
    # the order within one dimension read off the rows from the last one
    (
        "linalg.py",
        '    out.sort(key=attrgetter("basis"))\n',
        "    out.sort(key=lambda s: s.basis[::-1])\n",
        ["tests/test_linalg.py::TestEnumeration::test_no_duplicates_and_sorted"],
    ),
    # the Kempf search pooling no step into the stack below, so that every
    # stack is read as one step per block
    (
        "kempf.py",
        "            while base and _merges(tops[base], w, x):\n",
        "            while False and _merges(tops[base], w, x):\n",
        ["tests/test_kempf_search.py::"
         "test_state_search_equals_sequence_search_on_shapes[cycle2]"],
    ),
    # the Kempf search carrying the square of the state pushed from, not
    # of the pooled base below the new top
    (
        "kempf.py",
        "_square_with(squares[base], tops[-1])",
        "_square_with(squares[sid], tops[-1])",
        ["tests/test_kempf_search.py::"
         "test_state_search_equals_sequence_search_on_shapes[d4-inwards]",
         DUALITY + "[A3-222-F2]"],
    ),
    # the quotient counting a class edge once, however many members of
    # the lower class lie below the node
    (
        "kempf.py",
        "        counts = [(mask & inside).bit_count() for inside in members]\n",
        "        counts = [min(1, (mask & inside).bit_count()) for inside in members]\n",
        ["tests/test_lattice.py::test_chain_dag_read_off_masks"],
    ),
    # a subspace's points without their c = p - 1 layer
    (
        "linalg.py",
        "[(a + c * b) % p for c in range(1, p) for a in col]",
        "[(a + c * b) % p for c in range(1, p - 1) for a in col]",
        ["tests/test_linalg.py::TestSubspace::"
         "test_membership_and_points_against_brute_force[F3]",
         "tests/test_lattice.py::test_containment_equals_pairwise_oracle[line-into-space-f7]",
         "tests/test_enumeration.py::test_join_equals_product[d4-inwards]",
         "tests/test_enumeration.py::test_join_equals_product[kron2-23-f7]"],
    ),
    # a later fill of a shape's point masks dropping the subspaces that an
    # earlier fill listed
    (
        "quiver.py",
        "        missing, found = points - self._masks.keys(), self._found\n",
        "        missing, found = points - self._masks.keys(), self._found.clear() or self._found\n",
        [SHAPE_FILLS + "[F7^3-kron2-23-f7]",
         "tests/test_lattice.py::test_containment_equals_pairwise_oracle[kron2-23-f7]"],
    ),
    # a point's mask built from the listed subspaces only, without the
    # subspaces tested against it
    (
        "quiver.py",
        "                hits = filter(t.contains_vector, missing)\n",
        "                hits = ()\n",
        [SHAPE_FILLS + "[F3^4-looped-seeded]",
         "tests/test_lattice.py::test_containment_equals_pairwise_oracle[kron2-23-f7]"],
    ),
    # the lattice building the subrep it is asked for from its neighbour's key
    (
        "quiver.py",
        "            at = zip(self.rep.quiver.vertices, self.shapes, self.keys[i][1])\n",
        "            at = zip(self.rep.quiver.vertices, self.shapes, self.keys[i - 1][1])\n",
        [LAZY_INDEX + "[d4-inwards]",
         "tests/test_enumeration.py::test_join_equals_product[d4-inwards]"],
    ),
    # index bisecting the keys one place short
    (
        "quiver.py",
        "            i = bisect_left(self.keys, key)\n",
        "            i = bisect_left(self.keys, key) - 1\n",
        [LAZY_INDEX + "[cycle2]",
         "tests/test_lattice.py::test_verify_builds_only_the_filtration_steps"],
    ),
    # the CLI importing the curve calculators with itself, on verify's path
    (
        "cli.py",
        "from . import kempf, quiver as qv\n",
        "from . import curves, kempf, quiver as qv\n",
        ["tests/test_cli.py::TestImports::test_verify_imports_only_what_it_runs"],
    ),
]


def pytest(copy: Path, nodes) -> int:
    """pytest -q on nodes in copy; its exit code."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes],
        cwd=copy,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(copy / "src")},
    ).returncode


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(
                ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "perfbench").symlink_to(ROOT / "perfbench")
        nodes = sorted({node for *_edit, kills in MUTANTS for node in kills})
        if pytest(copy, nodes) != 0:
            print("the kill nodes do not all pass unmutated")
            return 1
        for k, (name, snippet, replacement, kills) in enumerate(MUTANTS):
            path = copy / "src" / "quiverstab" / name
            text = path.read_text()
            found = text.count(snippet)
            if found != 1:
                print(f"mutant {k} ({name}): snippet occurs {found} times")
                bad += 1
                continue
            start = time.perf_counter()
            path.write_text(text.replace(snippet, replacement))
            # 1: a test failed; any other code is not a kill
            survived = [node for node in kills if pytest(copy, [node]) != 1]
            path.write_text(text)
            print(f"mutant {k} ({name}): "
                  + (f"SURVIVED {', '.join(survived)}" if survived else "killed")
                  + f" in {time.perf_counter() - start:.1f} s")
            bad += bool(survived)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
