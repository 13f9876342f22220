"""Release gate: ten end-to-end properties the package must hold.

One test per criterion, each funnelled through :func:`_check`, which
records a [PASS]/[FAIL] line that conftest's terminal-summary hook
prints after the run (capture-proof, one line per criterion). Criteria
with timing budgets measure wall clock and fail when the budget is
blown, not just when results are wrong.
"""
from __future__ import annotations

import hashlib
import random
import time

import numpy as np
from scipy.linalg import subspace_angles

from lookforge.assembly import (
    AvatarLook,
    GenerationBudget,
    generate_candidates,
    refine,
    tournament,
    validate_look,
)
from lookforge.catalog import (
    INDEX_FILE,
    MANIFEST_FILE,
    Taxonomy,
    load_index_dir,
    save_index_dir,
    save_taxonomy,
    write_doc,
)
from lookforge.cli import main as cli_main
from lookforge.errors import ChecksumMismatchError
from lookforge.evalsuite import markdown_table, run_interference_suite
from lookforge.judge import JudgeClient, ScriptedSource
from lookforge.retrieval import (
    Candidate,
    RetrievalConfig,
    build_pool,
    retrieve_concept_residual,
    retrieve_part,
)
from lookforge.router import Concept, PromptSpec, route
from lookforge.synth import (
    CategorySpec,
    SynthSpec,
    generate_catalog,
    generate_pipeline_scenario,
)
from lookforge.vecmath import (
    SubspaceParams,
    estimate_subspaces,
    normalize,
    suppress,
)
from oracle import brute_force_rank

_LINES: list[str] = []


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    _LINES.append(line)
    assert ok, line


def test_criterion_01_index_matches_reference_ranking():
    t0 = time.perf_counter()
    checked = 0
    mismatches: list[str] = []
    for seed in range(20):
        spec = SynthSpec(
            d=64,
            categories=(CategorySpec("stock", subspace_rank=8, n_assets=1000),),
            noise_sigma=0.3,
            seed=seed,
        )
        catalog, _ = generate_catalog(spec)
        rng = np.random.default_rng(10_000 + seed)
        for _ in range(10):
            q = rng.standard_normal(64)
            for k in (1, 10, 40):
                got = [aid for aid, _ in catalog.search("stock", q, k)]
                if got != brute_force_rank(catalog, "stock", q, k):
                    mismatches.append(f"seed={seed} k={k}")
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    _check(
        1,
        "index matches reference ranking",
        ok,
        f"{checked} rankings, {len(mismatches)} mismatches, {elapsed:.2f}s"
        + (f" (first: {mismatches[0]})" if mismatches else ""),
    )


def test_criterion_02_noiseless_subspace_recovery():
    worst = 0.0
    for seed in range(1, 6):
        spec = SynthSpec(
            d=64,
            categories=tuple(
                CategorySpec(c, subspace_rank=4, n_assets=48)
                for c in ("one", "two", "three")
            ),
            noise_sigma=0.0,
            seed=seed,
        )
        catalog, bases = generate_catalog(spec)
        recovered = estimate_subspaces(catalog, SubspaceParams(rank=4))
        for cid, planted in bases.items():
            angles = subspace_angles(recovered[cid], planted)
            worst = max(worst, float(np.max(angles)))
    ok = worst <= 1e-4
    _check(2, "noiseless subspace recovery", ok, f"max principal angle {worst:.2e} rad")


def test_criterion_03_projection_laws():
    rng = np.random.default_rng(33)
    d = 24
    worst_idem = worst_annih = worst_pres = 0.0
    for i in range(1000):
        r = 1 + i % 6
        q, _ = np.linalg.qr(rng.standard_normal((d, r)))
        others = {"s": np.ascontiguousarray(q[:, :r])}
        v = rng.standard_normal(d)
        # suppressing twice removes nothing more than suppressing once
        sv = suppress(v, others)
        worst_idem = max(
            worst_idem,
            float(np.linalg.norm(suppress(sv, others) - sv) / max(np.linalg.norm(sv), 1e-300)),
        )
        # vectors inside the subspace must be annihilated by suppression
        u = q[:, :r] @ rng.standard_normal(r)
        worst_annih = max(
            worst_annih,
            float(np.linalg.norm(suppress(u, others)) / np.linalg.norm(u)),
        )
        # vectors orthogonal to it must pass through unchanged
        w = v - q[:, :r] @ (q[:, :r].T @ v)
        worst_pres = max(
            worst_pres,
            float(np.linalg.norm(suppress(w, others) - w) / np.linalg.norm(w)),
        )
    ok = worst_idem <= 1e-9 and worst_annih <= 1e-6 and worst_pres <= 1e-6
    _check(
        3,
        "projection laws",
        ok,
        f"idempotence {worst_idem:.1e}, annihilation {worst_annih:.1e}, "
        f"preservation {worst_pres:.1e} over 1000 pairs",
    )


def test_criterion_04_suppression_efficacy():
    t0 = time.perf_counter()
    with_supp = run_interference_suite(100, base_seed=0, ablate="none")
    without = run_interference_suite(100, base_seed=0, ablate="suppression")
    elapsed = time.perf_counter() - t0

    table = markdown_table([with_supp, without])
    cells = {
        row.split("|")[1].strip(): float(row.split("|")[3])
        for row in table.splitlines()[2:]
    }
    ok = (
        with_supp.top1_accuracy == 1.0
        and without.top1_accuracy <= 0.10
        and cells["none"] > cells["suppression"]
        and elapsed < 30.0
    )
    _check(
        4,
        "suppression efficacy",
        ok,
        f"top-1 {with_supp.top1_accuracy:.2f} with suppression, "
        f"{without.top1_accuracy:.2f} without, {elapsed:.1f}s",
    )


def test_criterion_05_fusion_endpoints():
    spec = SynthSpec(
        d=16,
        categories=(CategorySpec("stock", subspace_rank=4, n_assets=30),),
        noise_sigma=0.3,
        seed=77,
    )
    catalog, _ = generate_catalog(spec)
    rng = np.random.default_rng(5)
    p_c = normalize(rng.standard_normal(16))
    t_c = normalize(rng.standard_normal(16))
    g = normalize(rng.standard_normal(16))

    def cfg(**kw) -> RetrievalConfig:
        return RetrievalConfig(branch_k=30, pool_k=30, gate_k=10, **kw)

    def ids(candidates) -> list[str]:
        return [c.asset_id for c in candidates]

    def ref(query) -> list[str]:
        return [aid for aid, _ in catalog.search("stock", query, 30)]

    failures = []
    if ids(retrieve_part(catalog, "stock", p_c, t_c, cfg(alpha=1.0))) != ref(p_c):
        failures.append("alpha=1 is not the part-only ranking")
    if ids(retrieve_part(catalog, "stock", p_c, t_c, cfg(alpha=0.0))) != ref(t_c):
        failures.append("alpha=0 is not the text-only ranking")
    if ids(retrieve_concept_residual(catalog, "stock", g, t_c, {}, cfg(beta=1.0))[0]) != ref(g):
        failures.append("beta=1 is not the residual-only ranking")
    if ids(retrieve_concept_residual(catalog, "stock", g, t_c, {}, cfg(beta=0.0))[0]) != ref(t_c):
        failures.append("beta=0 is not the text-only ranking")
    _check(
        5,
        "fusion endpoints",
        not failures,
        "; ".join(failures) if failures else "4 single-modality reductions exact",
    )


def test_criterion_06_pool_merge_fuzz():
    rnd = random.Random(123)
    universe = [f"a{i:02d}" for i in range(30)]
    bad = 0
    first = ""
    for case in range(10_000):
        # duplicate ids within a branch are deliberate: they stress the
        # same-source merge path, scores land on a 0.1 grid for tie pressure
        part = [
            Candidate(rnd.choice(universe), round(rnd.uniform(-1, 1), 1), "part")
            for _ in range(rnd.randint(0, 12))
        ]
        residual = [
            Candidate(rnd.choice(universe), round(rnd.uniform(-1, 1), 1), "concept_residual")
            for _ in range(rnd.randint(0, 12))
        ]
        pool_k = rnd.randint(1, 15)
        got = build_pool(part, residual, pool_k)

        expect: dict[str, tuple[float, str]] = {}
        for cand in [*part, *residual]:
            if cand.asset_id not in expect:
                expect[cand.asset_id] = (cand.score, cand.source)
                continue
            score, source = expect[cand.asset_id]
            expect[cand.asset_id] = (
                max(score, cand.score),
                "both" if source != cand.source else source,
            )
        want = sorted(
            (Candidate(aid, s, src) for aid, (s, src) in expect.items()),
            key=lambda c: (-c.score, c.asset_id),
        )[:pool_k]

        pool_ids = [c.asset_id for c in got]
        keys = [(-c.score, c.asset_id) for c in got]
        if not (
            got == want
            and len(pool_ids) == len(set(pool_ids))
            and len(got) <= pool_k
            and keys == sorted(keys)
        ):
            bad += 1
            first = first or f"case {case}: got {got!r}, want {want!r}"
    _check(
        6,
        "pool merge fuzz",
        bad == 0,
        f"10000 cases vs hash-map max-score oracle, {bad} diverged"
        + (f" ({first})" if first else ""),
    )


def test_criterion_07_router_coherence():
    taxonomy = Taxonomy(
        categories=("body", "jacket", "sweater", "pants", "hat"),
        concept_map={
            "hoodie": ("sweater", "jacket"),
            "cargo pants": ("pants",),
            "beanie": ("hat",),
        },
        exclusion_groups=(("jacket", "sweater"),),
        required_core=("body",),
    )
    modifiers = ("zip-up", "zippered", "knit", "wool", "black", "olive", "cozy", "bomber")
    rnd = random.Random(7)
    violations: list[str] = []
    for i in range(100):
        mods = tuple(m for m in modifiers if rnd.random() < 0.5)
        concepts = [Concept("hoodie", mods)]
        if rnd.random() < 0.5:
            concepts.append(Concept("cargo pants", ("olive",)))
        plan = route(
            PromptSpec(text=f"avatar {i} wearing a hoodie", concepts=tuple(concepts)),
            taxonomy,
        )
        targets = set(plan.target_categories)
        if "body" not in targets:
            violations.append(f"prompt {i}: required core missing")
        if {"jacket", "sweater"} <= targets:
            violations.append(f"prompt {i}: excluded pair both targeted")
        if not {"jacket", "sweater"} & targets:
            violations.append(f"prompt {i}: ambiguous pair fully dropped")

    full = run_interference_suite(100, base_seed=0, ablate="none")
    naive = run_interference_suite(100, base_seed=0, ablate="router")
    ok = not violations and naive.routed_coverage < full.routed_coverage
    _check(
        7,
        "router coherence",
        ok,
        f"{len(violations)} violations over 100 prompts; planted-category coverage "
        f"{full.routed_coverage:.2f} full router vs {naive.routed_coverage:.2f} naive",
    )


def test_criterion_08_assembly_state_machine():
    bundles = {f"b{i}": f"bnd-{i // 2}" for i in range(6)}
    pools = {
        "body": [Candidate(f"b{i}", 0.9 - i * 0.1, "both", bundles[f"b{i}"]) for i in range(6)],
        "hat": [Candidate(f"h{i}", 0.8 - i * 0.1, "part") for i in range(6)],
        "jacket": [Candidate(f"j{i}", 0.7 - i * 0.1, "concept_residual") for i in range(6)],
        "sweater": [Candidate(f"s{i}", 0.6 - i * 0.1, "concept_residual") for i in range(6)],
    }
    exclusions = (("jacket", "sweater"),)
    core = ("body",)
    taxonomy = Taxonomy(
        categories=tuple(pools), exclusion_groups=exclusions, required_core=core
    )
    budget = GenerationBudget()
    failures: list[str] = []

    # (a) the verify loop stops at the iteration budget
    src_a = ScriptedSource({
        "verify": [{
            "verdict": "fail",
            "edits": [{"action": "replace", "category_id": "hat", "asset_id": "h1"}],
        }],
        "cycle": True,
    })
    look_a = refine(
        AvatarLook("look-a", selections={"body": "b0", "hat": "h0"}),
        JudgeClient(src_a),
        budget,
        pools,
        taxonomy,
    )
    n_verify = sum(1 for op, _ in src_a.calls if op == "verify")
    if n_verify != budget.max_refine_iters:
        failures.append(f"(a) {n_verify} verifications, budget {budget.max_refine_iters}")
    if look_a.status != "draft":
        failures.append(f"(a) unverified look has status {look_a.status!r}")

    # (b) bad edits are rejected, good ones land, invariants hold throughout
    src_b = ScriptedSource({
        "verify": [
            {"verdict": "fail", "edits": [
                {"action": "replace", "category_id": "hat", "asset_id": "h9"},
                {"action": "add", "category_id": "sweater", "asset_id": "s0"},
                {"action": "remove", "category_id": "body"},
                {"action": "replace", "category_id": "hat", "asset_id": "h1"},
            ]},
            {"verdict": "fail", "edits": [
                {"action": "remove", "category_id": "jacket"},
                {"action": "add", "category_id": "sweater", "asset_id": "s0"},
            ]},
            {"verdict": "pass"},
        ],
    })
    look_b = refine(
        AvatarLook("look-b", selections={"body": "b0", "hat": "h0", "jacket": "j0"}),
        JudgeClient(src_b),
        budget,
        pools,
        taxonomy,
    )
    problems = validate_look(look_b, pools, exclusions, core)
    if problems:
        failures.append(f"(b) invariants violated: {problems}")
    if look_b.selections != {"body": "b0", "hat": "h1", "sweater": "s0"}:
        failures.append(f"(b) selections {look_b.selections}")
    if look_b.status != "verified":
        failures.append(f"(b) status {look_b.status!r}")
    for marker in (
        "skipped replace of off-pool asset h9 for hat",
        "skipped add of sweater (excluded against jacket)",
        "skipped remove of core category body",
    ):
        if marker not in look_b.history:
            failures.append(f"(b) missing rejection {marker!r}")

    # (c) 8 looks at batch size 4: two semifinals plus one final
    src_c = ScriptedSource({"compare_batch": [{"winner": "max_look_id"}], "cycle": True})
    looks = [AvatarLook(f"look-{i:03d}", selections={"body": "b0"}) for i in range(8)]
    winner = tournament(looks, JudgeClient(src_c), batch_size=4)
    n_compare = sum(1 for op, _ in src_c.calls if op == "compare_batch")
    if n_compare != 3:
        failures.append(f"(c) {n_compare} compare calls")
    if winner.look_id != "look-007":
        failures.append(f"(c) winner {winner.look_id}, scripted argmax is look-007")

    # (d) usage caps across a full slate
    src_d = ScriptedSource({"verify": [{"verdict": "pass"}], "cycle": True})
    slate = generate_candidates(
        pools,
        JudgeClient(src_d),
        budget,
        taxonomy=taxonomy,
        body_category="body",
        base_look=AvatarLook("no-base"),
    )
    asset_use: dict[str, int] = {}
    bundle_use: dict[str, int] = {}
    for lk in slate:
        for aid in lk.selections.values():
            asset_use[aid] = asset_use.get(aid, 0) + 1
            if aid in bundles:
                bundle_use[bundles[aid]] = bundle_use.get(bundles[aid], 0) + 1
    if len(slate) != budget.n_candidates:
        failures.append(f"(d) {len(slate)} candidates")
    over = {a: n for a, n in asset_use.items() if n > budget.per_asset_cap}
    over.update({b: n for b, n in bundle_use.items() if n > budget.per_bundle_cap})
    if over:
        failures.append(f"(d) caps exceeded: {over}")

    _check(
        8,
        "assembly state machine",
        not failures,
        "; ".join(failures)
        if failures
        else (
            f"{n_verify} verifications then draft, invalid edits rejected, "
            f"{n_compare} comparisons to {winner.look_id}, caps hold over "
            f"{len(slate)} looks"
        ),
    )


def test_criterion_09_end_to_end_determinism(tmp_path):
    root = tmp_path / "bundle"
    generate_pipeline_scenario(root, seed=11)
    cfg = ["--config", str(root / "config.json")]
    rcs = [cli_main([cmd, *cfg]) for cmd in ("ingest", "build-index", "route", "retrieve")]
    if any(rcs):
        _check(9, "end-to-end determinism", False, f"stage exit codes {rcs}")

    digests = []
    for _ in range(2):
        rc = cli_main(["assemble", *cfg])
        if rc != 0:
            _check(9, "end-to-end determinism", False, f"assemble exited {rc}")
        digests.append(
            hashlib.sha256((root / "output" / "look.json").read_bytes()).hexdigest()
        )
    ok = digests[0] == digests[1]
    _check(
        9,
        "end-to-end determinism",
        ok,
        f"look.json sha256 {digests[0][:16]}... on both runs"
        if ok
        else f"look.json digests differ: {digests[0][:16]} vs {digests[1][:16]}",
    )


def test_criterion_10_snapshot_fidelity(tmp_path):
    spec = SynthSpec(
        d=32,
        categories=(CategorySpec("stock", subspace_rank=6, n_assets=200),),
        noise_sigma=0.3,
        seed=9,
    )
    catalog, _ = generate_catalog(spec)
    sources = {"taxonomy": tmp_path / "taxonomy.json"}
    save_taxonomy(catalog.taxonomy, sources["taxonomy"])
    index_dir = tmp_path / "indices"
    write_doc(index_dir / MANIFEST_FILE, save_index_dir(catalog, index_dir, sources))
    reloaded = load_index_dir(index_dir, catalog.taxonomy, sources)

    rng = np.random.default_rng(17)
    mismatches = 0
    for _ in range(100):
        q = rng.standard_normal(32)
        # (rank, (asset id, score)): a hit's rank is its position in the list
        before = list(enumerate(catalog.search("stock", q, 10)))
        after = list(enumerate(reloaded.search("stock", q, 10)))
        if before != after:
            mismatches += 1

    path = index_dir / INDEX_FILE
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # lands in the row payload
    path.write_bytes(bytes(blob))
    rejected = False
    try:
        load_index_dir(index_dir, catalog.taxonomy, sources)
    except ChecksumMismatchError:
        rejected = True
    ok = mismatches == 0 and rejected
    _check(
        10,
        "snapshot fidelity",
        ok,
        f"{mismatches}/100 round-trip mismatches, corrupted snapshot rejected={rejected}",
    )
