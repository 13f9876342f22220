"""Every entry of scripts/mutants.py still applies: its old text occurs
exactly once in its file and the test expected to kill it exists, so a
stale entry fails here, not only in the slow mutation probe."""
from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


def test_mutant_tests_exist():
    # the probe runs each mutant's expected test first; a renamed test
    # would turn every kill into a suspect
    nodes = [m.test for m in mutants.MUTANTS]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *nodes],
        cwd=ROOT, capture_output=True, text=True,
    )
    collected = set(proc.stdout.splitlines())
    assert [node for node in nodes if node not in collected] == []
