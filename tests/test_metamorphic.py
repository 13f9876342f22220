"""Metamorphic relations of the whole pipeline over small synth bundles.

Each relation rewrites a bundle's input files in a way that must not
change the outcome, runs the in-process pipeline on the original and the
rewrite, and compares pools.json and look.json bodies:

- catalog line order changes nothing;
- scaling view, part and text-prior vectors by factors c > 0 changes no
  pool id, source or bundle id, moves no score by more than 1e-12 and
  keeps the look;
- renaming asset ids by an order-preserving map renames them in the
  pools and the look and changes nothing else.

Renaming categories is not a relation yet: the router's modifier keyword
table names categories, so a renamed category routes differently.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lookforge.catalog import ingest_catalog, load_taxonomy
from lookforge.cli import build_judge, load_run_config
from lookforge.evidence import load_evidence
from lookforge.judge import DEFAULT_HTTP_TIMEOUT
from lookforge.pipeline import run_pipeline
from lookforge.retrieval import pools_to_dict
from lookforge.router import load_prompt
from lookforge.synth import generate_pipeline_scenario

seeds = st.integers(min_value=0, max_value=2**32 - 1)
bundle_seeds = st.integers(min_value=0, max_value=2**16)


def outcome(root: Path) -> tuple[dict, dict]:
    """(pools.json body, look.json body) of the bundle in ``root``."""
    cfg = load_run_config(root / "config.json")
    taxonomy = load_taxonomy(cfg.paths["taxonomy"])
    catalog, _ = ingest_catalog(cfg.paths["catalog"], taxonomy)
    result = run_pipeline(
        catalog, taxonomy, load_evidence(cfg.paths["evidence"]),
        load_prompt(cfg.paths["prompt"]),
        build_judge(cfg.judge_spec, cfg.root, DEFAULT_HTTP_TIMEOUT),
        retrieval_cfg=cfg.retrieval, budget=cfg.budget,
        subspace_params=cfg.subspace, body_category=cfg.body_category,
    )
    return pools_to_dict(result.retrievals), result.to_dict()


def outcomes(bundle_seed: int, rewrite) -> tuple[tuple[dict, dict], tuple[dict, dict]]:
    """The outcome of a fresh bundle, then of the same bundle after
    ``rewrite(root)`` has changed its files."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        generate_pipeline_scenario(root, seed=bundle_seed)
        before = outcome(root)
        rewrite(root)
        return before, outcome(root)


def catalog_lines(root: Path) -> list[str]:
    return (root / "catalog.jsonl").read_text().splitlines()


@settings(max_examples=10)
@given(bundle_seeds, seeds)
def test_catalog_line_order_changes_nothing(bundle_seed, seed):
    def shuffle(root: Path) -> None:
        lines = catalog_lines(root)
        np.random.default_rng(seed).shuffle(lines)
        (root / "catalog.jsonl").write_text("\n".join(lines) + "\n")

    before, after = outcomes(bundle_seed, shuffle)
    assert after == before


@settings(max_examples=10)
@given(bundle_seeds, seeds)
def test_evidence_vector_scale_changes_nothing(bundle_seed, seed):
    rng = np.random.default_rng(seed)

    def scaled(v: list[float]) -> list[float]:
        c = 10.0 ** rng.uniform(-3.0, 3.0)  # each vector its own factor
        return [x * c for x in v]

    def scale(root: Path) -> None:
        path = root / "evidence.json"
        doc = json.loads(path.read_text())
        doc["views"] = {v: scaled(e) for v, e in doc["views"].items()}
        doc["text_priors"] = {c: scaled(e) for c, e in doc["text_priors"].items()}
        for part in doc["parts"]:
            if part["embedding"] is not None:
                part["embedding"] = scaled(part["embedding"])
        path.write_text(json.dumps(doc))

    (pools, look), (scaled_pools, scaled_look) = outcomes(bundle_seed, scale)
    assert scaled_look == look
    assert scaled_pools.keys() == pools.keys()
    for cat, entry in pools["pools"].items():
        got = scaled_pools["pools"][cat]
        assert {k: v for k, v in got.items() if k != "pool"} == {
            k: v for k, v in entry.items() if k != "pool"
        }
        key = [(c["asset_id"], c["source"], c["bundle_id"]) for c in entry["pool"]]
        assert [(c["asset_id"], c["source"], c["bundle_id"]) for c in got["pool"]] == key
        for a, b in zip(entry["pool"], got["pool"]):
            assert abs(a["score"] - b["score"]) <= 1e-12


def renamed(doc, names: dict[str, str]):
    """``doc`` with every asset id in ``names`` replaced, also where it is
    one word of a longer string such as a look's history entry."""
    if isinstance(doc, dict):
        return {names.get(k, k): renamed(v, names) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(renamed(v, names) for v in doc)
    if isinstance(doc, str):
        return " ".join(names.get(word, word) for word in doc.split(" "))
    return doc


@settings(max_examples=10)
@given(bundle_seeds, seeds)
def test_order_preserving_asset_rename_renames_outcome(bundle_seed, seed):
    names: dict[str, str] = {}

    def rename(root: Path) -> None:
        records = [json.loads(line) for line in catalog_lines(root)]
        old = sorted(r["asset_id"] for r in records)
        # increasing numbers with random gaps keep the ids' order
        ranks = np.cumsum(np.random.default_rng(seed).integers(1, 1000, len(old)))
        names.update({a: f"item-{int(n):08d}" for a, n in zip(old, ranks)})
        for r in records:
            r["asset_id"] = names[r["asset_id"]]
        (root / "catalog.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))

    before, after = outcomes(bundle_seed, rename)
    assert after == renamed(before, names)
