"""The verdict rule of scripts/ab_pairs.py, on fixed numbers."""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

TIGHT = [10.0, 10.1, 10.2, 10.3, 10.4]  # spread about 2%
NOISY = [8.0, 9.0, 10.0, 12.0, 14.0]  # spread 45%


def test_worse_by_is_signed_so_positive_means_worse():
    assert ab_pairs.worse_by(10.0, 12.0, "lower") == pytest.approx(0.2)
    assert ab_pairs.worse_by(10.0, 12.0, "higher") == pytest.approx(-0.2)
    assert ab_pairs.worse_by(0.0, 0.0, "lower") == 0.0
    assert ab_pairs.worse_by(0.0, 1.0, "lower") == math.inf


@pytest.mark.parametrize("parent, change, better, bound, want", [
    (TIGHT, [13.0] * 5, "lower", 0.25, "worse"),  # +27%
    (TIGHT, [12.0] * 5, "lower", 0.25, "ok"),  # +17%
    (TIGHT, [7.0] * 5, "higher", 0.25, "worse"),  # 32% fewer
    (TIGHT, [20.0] * 5, "higher", 0.25, "ok"),
    (NOISY, [9.0, 10.0, 11.0, 12.0, 13.0], "lower", 0.25, "unresolved"),
    (NOISY, [20.0] * 5, "lower", 0.25, "worse"),  # noisy parent, median +100%
    (NOISY, [11.0, 12.0, 12.5], "lower", 0.25, "unresolved"),  # +20%, within bound
    (NOISY, [7.0, 7.5, 7.9], "lower", 0.25, "ok"),  # every change run beats
    (NOISY, [15.0, 16.0], "higher", 0.25, "ok"),
    (NOISY, [13.0, 16.0], "higher", 0.25, "unresolved"),
    (NOISY, [30.0] * 5, "lower", 0.5, "worse"),  # spread within a looser bound
], ids=["worse", "within_bound", "worse_higher", "better_higher", "noisy_close",
        "noisy_worse", "noisy_within_bound", "noisy_all_beat", "noisy_all_beat_higher",
        "noisy_overlap_higher",
        "loose_bound_worse"])
def test_verdict(parent, change, better, bound, want):
    assert ab_pairs.verdict(parent, change, better, bound) == want
