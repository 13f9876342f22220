"""Every entry of scripts/mutants.py still applies: its old text occurs
exactly once in its file, so a stale entry fails here, not only in the
slow mutation probe."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
