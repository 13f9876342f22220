#!/usr/bin/env python3
"""Seeded planted-truth inputs for the lookforge benchmark.

Writes, for one workload and seed, everything lookforge is given: the
catalog JSONL, the taxonomy, and per prompt a prompt file, an evidence
file, a scripted-judge file and a CLI run config. ``truth.json`` holds the
planted asset of every routed category and stays with the benchmark.

The generator uses numpy and json only, never lookforge, so the benchmark
does not grade lookforge with lookforge's own synthesis code. Each prompt
plants one asset per category it should route to; the front view is the
normalized sum of the planted assets; a seeded subset of those categories
gets a part crop; text priors are category means. Nothing is resampled
until retrieval succeeds, and the judge scripts never name a planted
asset, so recall and top-1 are measured, not built in.

The same workload and seed give byte-identical files:

    python3 perfbench/gen.py --workload slate_heavy --seed 1 --out inputs
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CATEGORIES = ("body", "jacket", "pants", "sweater", "hat", "shoes", "gloves", "scarf")
BODY = "body"

# noun -> categories it may denote; "hoodie" is the ambiguous one.
CONCEPT_MAP = {
    "hoodie": ["jacket", "sweater"],
    "jacket": ["jacket"],
    "sweater": ["sweater"],
    "cargo pants": ["pants"],
    "pants": ["pants"],
    "hat": ["hat"],
    "beanie": ["hat"],
    "shoes": ["shoes"],
    "boots": ["shoes"],
    "gloves": ["gloves"],
    "scarf": ["scarf"],
}
EXCLUSION_GROUPS = [["jacket", "sweater"]]
VIEW_MAP = {"jacket": ["front"], "pants": ["front"], "shoes": ["left"]}

NOUNS = {
    "jacket": ["jacket", "hoodie"],
    "sweater": ["sweater", "hoodie"],
    "pants": ["pants", "cargo pants"],
    "hat": ["hat", "beanie"],
    "shoes": ["shoes", "boots"],
    "gloves": ["gloves"],
    "scarf": ["scarf"],
}
# A hoodie routes by modifier support, so its modifiers name the intent.
HOODIE_MODIFIERS = {"jacket": ["zip-up", "windbreaker"], "sweater": ["knit", "wool"]}
COLORS = ["black", "olive", "navy", "red", "grey", "tan", "white", "teal"]

PART_NOISE = 0.05
LEFT_VIEW_NOISE = 0.05


@dataclass(frozen=True)
class Shape:
    """Catalog size and prompt mix of one workload."""

    n_per_category: int
    d: int
    rank: int
    noise: float
    body_bundles: int
    n_prompts: int
    part_share: float
    judge: str  # "pass" or "slate"
    retrieval: dict
    budget: dict


DEFAULT_RETRIEVAL = {"alpha": 0.7, "beta": 0.7, "branch_k": 40, "pool_k": 40, "gate_k": 20}
DEFAULT_BUDGET = {
    "n_candidates": 6, "per_asset_cap": 2, "per_bundle_cap": 2,
    "bundle_rotation": 3, "max_refine_iters": 3, "batch_size": 4,
}

SHAPES = {
    "prompt_stream": Shape(5000, 256, 8, 0.3, 50, 12, 0.5, "pass",
                           DEFAULT_RETRIEVAL, DEFAULT_BUDGET),
    "cli_cold": Shape(2000, 128, 8, 0.3, 40, 4, 0.5, "pass",
                      DEFAULT_RETRIEVAL, DEFAULT_BUDGET),
    # 32 candidates x about 3 verifies each; every body asset survives the
    # gate and the caps leave room for 32 looks, so no look is infeasible.
    # No asset cap: the winner (the last candidate) keeps the ranked pick
    # in every category its edits leave alone, so planted_top1 measures
    # retrieval and gating rather than how deep the cap pushes the pick.
    # The bundle cap still spreads bodies over the bundles.
    "slate_heavy": Shape(48, 32, 3, 0.2, 12, 512, 0.5, "slate",
                         DEFAULT_RETRIEVAL,
                         {"n_candidates": 32, "per_asset_cap": 32, "per_bundle_cap": 8,
                          "bundle_rotation": 3, "max_refine_iters": 4, "batch_size": 4}),
}


def asset_id(category: str, i: int) -> str:
    return f"{category}-{i:05d}"


def unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def make_catalog(shape: Shape, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Rows near each category's own orthonormal block of one QR basis."""
    q, _ = np.linalg.qr(rng.standard_normal((shape.d, shape.rank * len(CATEGORIES))))
    rows: dict[str, np.ndarray] = {}
    for k, cat in enumerate(CATEGORIES):
        basis = q[:, k * shape.rank : (k + 1) * shape.rank]
        clean = unit_rows(rng.standard_normal((shape.n_per_category, shape.rank)) @ basis.T)
        noise = unit_rows(rng.standard_normal((shape.n_per_category, shape.d))) * shape.noise
        rows[cat] = unit_rows(clean + noise)
    return rows


def write_catalog(path: Path, rows: dict[str, np.ndarray], shape: Shape) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cat in CATEGORIES:
            for i, row in enumerate(rows[cat]):
                doc = {
                    "asset_id": asset_id(cat, i),
                    "category_id": cat,
                    "embedding": row.tolist(),
                    "title": f"{cat} item {i}",
                    "quality_flag": "curated",
                }
                if cat == BODY:
                    doc["bundle_id"] = f"body-bnd-{i % shape.body_bundles:03d}"
                fh.write(json.dumps(doc, sort_keys=True) + "\n")


def draw_prompt(rng: np.random.Generator) -> tuple[dict, list[str]]:
    """A prompt of 1-6 concepts and the categories it should route to."""
    wearables = [c for c in CATEGORIES if c != BODY]
    order = [wearables[i] for i in rng.permutation(len(wearables))]
    # at most one member of the jacket/sweater exclusion group
    top = next(c for c in order if c in ("jacket", "sweater"))
    order = [c for c in order if c not in ("jacket", "sweater") or c == top]
    chosen = order[: int(rng.integers(1, 7))]
    concepts = []
    for cat in chosen:
        noun = NOUNS[cat][int(rng.integers(len(NOUNS[cat])))]
        mods = [COLORS[int(rng.integers(len(COLORS)))]]
        if noun == "hoodie":
            mods.append(HOODIE_MODIFIERS[cat][int(rng.integers(2))])
        concepts.append({"noun": noun, "modifiers": mods})
    text = "an avatar wearing " + ", ".join(
        " ".join([*c["modifiers"], c["noun"]]) for c in concepts
    )
    return {"schema_version": 1, "text": text, "concepts": concepts}, sorted([BODY, *chosen])


def judge_script(shape: Shape, routed: list[str], rng: np.random.Generator) -> dict:
    """The scripted judge of one prompt. It knows the routed categories but
    never the planted assets, so it cannot steer a look to the truth."""
    if shape.judge == "pass":
        return {
            "cycle": True,
            "filter_grid": [{"keep": "all"}],
            "select_outfit": [{"select": "top"}],
            "verify": [{"verdict": "pass"}],
            "compare_batch": [{"winner": 0}],
        }

    def random_id(cat: str) -> str:
        return asset_id(cat, int(rng.integers(shape.n_per_category)))

    def keep_subset() -> list[str]:
        # every body asset survives, so the required core is never empty
        ids = [asset_id(BODY, i) for i in range(shape.n_per_category)]
        for cat in routed:
            if cat != BODY:
                mask = rng.random(shape.n_per_category) < 0.7
                ids += [asset_id(cat, i) for i in np.flatnonzero(mask)]
        return ids

    other = [c for c in routed if c != BODY] or [BODY]
    wear = other[int(rng.integers(len(other)))]
    excluded = "sweater" if "jacket" in routed else "jacket"
    return {
        "cycle": True,
        "filter_grid": [{"keep": "all"}, {"keep": keep_subset()}, {"keep": keep_subset()}],
        "select_outfit": [
            {"select": "top"},
            {"select": {c: random_id(c) for c in routed}},
        ],
        "verify": [
            {"verdict": "fail", "issues": ["wrong garment"], "edits": [
                {"action": "replace", "category_id": wear, "asset_id": random_id(wear)},
                {"action": "replace", "category_id": BODY, "asset_id": random_id(BODY)},
                {"action": "add", "category_id": excluded, "asset_id": random_id(excluded)},
            ]},
            {"verdict": "fail", "issues": ["too busy"], "edits": [
                {"action": "remove", "category_id": wear},
                {"action": "remove", "category_id": BODY},
                {"action": "add", "category_id": wear, "asset_id": random_id(wear)},
            ]},
            {"verdict": "pass"},
        ],
        "compare_batch": [{"winner": "max_look_id"}],
    }


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload and return its truth document."""
    shape = SHAPES[workload]
    rng = np.random.default_rng([seed, sorted(SHAPES).index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    rows = make_catalog(shape, rng)
    write_catalog(out / "catalog.jsonl", rows, shape)
    dump(out / "taxonomy.json", {
        "schema_version": 1,
        "categories": list(CATEGORIES),
        "concept_map": CONCEPT_MAP,
        "exclusion_groups": EXCLUSION_GROUPS,
        "view_map": VIEW_MAP,
        "required_core": [BODY],
    })
    priors = {c: unit_rows(rows[c].mean(axis=0)).tolist() for c in CATEGORIES}

    truth = []
    for p in range(shape.n_prompts):
        prompt, routed = draw_prompt(rng)
        picks = {c: int(rng.integers(shape.n_per_category)) for c in routed}
        planted = {c: asset_id(c, i) for c, i in picks.items()}
        front = unit_rows(sum(rows[c][i] for c, i in picks.items()))
        jitter = unit_rows(rng.standard_normal(shape.d)) * LEFT_VIEW_NOISE
        parts = []
        for c in routed:
            if rng.random() < shape.part_share:
                crop = rows[c][picks[c]] + unit_rows(rng.standard_normal(shape.d)) * PART_NOISE
                parts.append({"category_id": c, "status": "valid", "source_view": "front",
                              "embedding": unit_rows(crop).tolist()})
            else:
                parts.append({"category_id": c, "status": "failed", "source_view": None,
                              "embedding": None})
        tag = f"{p:03d}"
        dump(out / "prompts" / f"prompt_{tag}.json", prompt)
        dump(out / "evidence" / f"evidence_{tag}.json", {
            "schema_version": 1,
            "prompt_text": prompt["text"],
            "views": {"front": front.tolist(), "left": unit_rows(front + jitter).tolist()},
            "parts": parts,
            "text_priors": priors,
        })
        dump(out / "judge" / f"judge_{tag}.json", judge_script(shape, routed, rng))
        dump(out / f"config_{tag}.json", {
            "schema_version": 1,
            "seed": seed,
            "body_category": BODY,
            "paths": {
                "catalog": "catalog.jsonl",
                "taxonomy": "taxonomy.json",
                "evidence": f"evidence/evidence_{tag}.json",
                "prompt": f"prompts/prompt_{tag}.json",
                "index_dir": "indices",
                "output_dir": "output",
            },
            "retrieval": shape.retrieval,
            "budget": shape.budget,
            "judge": f"scripted:judge/judge_{tag}.json",
        })
        truth.append(planted)
    doc = {"workload": workload, "seed": seed, "n_prompts": shape.n_prompts,
           "body_category": BODY, "retrieval": shape.retrieval, "budget": shape.budget,
           "planted": truth}
    dump(out / "truth.json", doc)
    return doc


def dump(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
