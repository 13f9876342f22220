#!/usr/bin/env python3
"""Mutation probe: does tier-1 catch each listed one-line fault?

Each mutant is an explicit (file, old text, new text) entry plus the
tier-1 test expected to kill it. For each one the script copies the
repository (without ``.git`` and caches) into a temporary directory,
replaces the old text there (it must occur exactly once) and runs the
expected test in that copy; the checkout is never written. The mutant is
killed when that test fails or times out. Otherwise tier-1 runs whole: a
failure elsewhere makes the mutant suspect (another test, or a time
bound under load, noticed it, not the test meant to), and a pass means it
survived. The unmutated copy runs tier-1 first and must pass.

Not part of tier-1: about 10 s per mutant on a 2-core host, more for a
suspect or a survivor.

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py unstable-sort gemv-scores

Exits 0 when every mutant is killed, 1 when one is suspect, survives or
no longer applies (its old text moved: update the entry), 2 when the
unmutated copy fails. Grow the list with each invariant a change adds.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# tests/test_mutants.py checks each entry's old text against the checkout;
# in a mutated copy it fails by construction, so it is left out here
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 600
CATALOG = "src/lookforge/catalog.py"
VECMATH = "src/lookforge/vecmath.py"
ASSEMBLY = "src/lookforge/assembly.py"
PIPELINE = "src/lookforge/pipeline.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    test: str  # the tier-1 node expected to kill it


MUTANTS = (
    # blocked gemv gives identical rows position-dependent scores
    Mutant("gemv-scores", CATALOG,
           "scores = (matrix * q).sum(axis=1) / self._norms[category_id]",
           "scores = (matrix @ q) / self._norms[category_id]",
           "tests/test_index.py::test_duplicate_rows_tie_to_lower_id_regression"),
    # ties must go to the lower asset id
    Mutant("unstable-sort", CATALOG,
           'np.argsort(-scores, kind="stable")', 'np.argsort(-scores, kind="quicksort")',
           "tests/test_index.py::test_search_keeps_tied_rows_in_id_order_in_a_large_category"),
    # a row scores its cosine, not its dot product
    Mutant("no-norm-division", CATALOG,
           "scores = (matrix * q).sum(axis=1) / self._norms[category_id]",
           "scores = (matrix * q).sum(axis=1)",
           "tests/test_index.py::test_search_ranks_by_cosine"),
    # a zero row would score NaN
    Mutant("zero-norm-check", CATALOG,
           "if np.any(norms <= ZERO_NORM_EPS):", "if np.any(norms < 0):",
           "tests/test_catalog.py::test_catalog_rejects_row_without_finite_nonzero_norm[zero]"),
    # ingest skips a line whose norm overflows instead of failing the catalog
    Mutant("ingest-norm-unbounded", CATALOG,
           "if not ZERO_NORM_EPS < norm < math.inf:", "if not ZERO_NORM_EPS < norm:",
           "tests/test_catalog.py::test_ingest_rejects_embedding_whose_norm_overflows"),
    # rows are kept in ascending asset-id order
    Mutant("unsorted-ids", CATALOG,
           "order = sorted(range(len(ids)), key=ids.__getitem__)",
           "order = list(range(len(ids)))",
           "tests/test_catalog.py::test_embedding_matrix_order_matches_ids"),
    # the variance rule keeps the smallest rank that covers the threshold
    Mutant("rank-off-by-one", VECMATH,
           "np.searchsorted(covered, params.variance_threshold) + 1)",
           "np.searchsorted(covered, params.variance_threshold) + 0)",
           "tests/test_vecmath.py::test_subspace_variance_policy_two_directions"),
    # params.center subtracts the category mean before the SVD
    Mutant("center-ignored", VECMATH, "if params.center:", "if False:",
           "tests/test_vecmath.py::test_subspace_center_flag"),
    # a category without assets has no subspace
    Mutant("empty-not-skipped", VECMATH, "        if not ids:\n", "        if False:\n",
           "tests/test_synth.py::TestEstimateSubspaces::test_skips_empty_categories"),
    # fusion weights the inputs' directions, not their lengths
    Mutant("fuse-unnormalized", VECMATH,
           "    p = normalize(primary)\n"
           "    fused = w * p + (1.0 - w) * normalize(as_vector(text_prior, d=p.shape[0]))",
           "    p = as_vector(primary)\n"
           "    fused = w * p + (1.0 - w) * as_vector(text_prior, d=p.shape[0])",
           "tests/test_vecmath.py::test_fuse_weighs_directions_not_lengths"),
    # one run follows one taxonomy, the catalog's
    Mutant("second-taxonomy", PIPELINE, "if taxonomy != catalog.taxonomy:", "if False:",
           "tests/test_pipeline.py::test_second_taxonomy_is_refused"),
    # a judge edit cannot remove a required core category
    Mutant("edit-core-unchecked", ASSEMBLY,
           "if cat in taxonomy.required_core:", "if cat in ():",
           "tests/test_assembly.py::test_refine_skips_invalid_edits"),
    # slate picks respect the exclusion groups
    Mutant("pick-exclusion-dropped", ASSEMBLY,
           "if excluded_by(cat, look.selections, taxonomy.exclusion_groups) is not None:",
           "if False:",
           "tests/test_assembly.py::test_generate_candidates_exclusions_within_look"),
    # a list of strings never reads a bare string as its characters
    Mutant("strings-accept-bare-string", CATALOG,
           "for i, item in enumerate(check(value, list, path)):",
           "for i, item in enumerate(check(value, (list, str), path)):",
           "tests/test_shape_fuzz.py::test_shape_fuzz[prompt.json]"),
    # schema_version true is not version 1
    Mutant("version-accepts-true", CATALOG,
           'if check(version, int, at(name, "schema_version")) != supported:',
           "if version != supported:",
           "tests/test_shape_fuzz.py::test_shape_fuzz[config.json]"),
)

IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench"
)


def passes(copy: Path, tests: list[str]) -> tuple[bool, str]:
    """(passed, the failing test or the summary line) of pytest run on
    ``tests`` in ``copy``; a timeout fails."""
    try:
        proc = subprocess.run([*TIER1, *tests], cwd=copy, capture_output=True, text=True,
                              timeout=TIMEOUT_S,
                              env={**os.environ, "PYTHONPATH": str(copy / "src")})
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    failed = [ln for ln in lines if ln.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, (failed or lines or [proc.stderr.strip()[-200:]])[-1]


def run(mutant: Mutant | None) -> tuple[str, str]:
    """(verdict, detail) for one mutant, or for the unmutated copy: killed
    when its expected test fails, suspect when only the rest of tier-1
    fails, survived when everything passes."""
    with tempfile.TemporaryDirectory(prefix="lookforge-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return "stale", f"old text occurs {text.count(mutant.old)} times in {mutant.path}"
            target.write_text(text.replace(mutant.old, mutant.new))
            passed, detail = passes(copy, [mutant.test])
            if not passed:
                return "killed", detail
        passed, detail = passes(copy, [])
    return ("survived" if passed else "suspect"), detail


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    verdict, detail = run(None)
    if verdict != "survived":
        print(f"unmutated tier-1 fails ({detail}); fix it before probing", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if argv and mutant.name not in argv:
            continue
        t0 = time.perf_counter()
        verdict, detail = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:8} {mutant.name:26} {time.perf_counter() - t0:5.1f}s  {detail}",
              flush=True)
    print("all mutants killed" if not bad else f"{bad} mutant(s) not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
