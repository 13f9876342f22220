import hashlib
import json
import random
import shutil

import numpy as np
import pytest

from lookforge.catalog import ingest_catalog, load_taxonomy, read_doc
from lookforge.cli import (
    ENV_JUDGE_TIMEOUT,
    ENV_JUDGE_URL,
    build_judge,
    effective_judge_spec,
    effective_timeout,
    load_run_config,
    main,
    parse_judge_spec,
)
from lookforge.evidence import load_evidence
from lookforge.judge import DEFAULT_HTTP_TIMEOUT
from lookforge.pipeline import run_pipeline
from lookforge.retrieval import pools_to_dict
from lookforge.router import load_prompt, plan_to_dict
from lookforge.synth import generate_pipeline_scenario

DEMO_LOOK_SHA256 = "092c2b470c3ccaaa2ddcde27040866d31923ca5b9b619cb57c66ea33a6e9c6de"


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    truth = generate_pipeline_scenario(out, seed=2)
    return out, truth


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The seed-0 demo bundle after all five stage commands."""
    root = tmp_path_factory.mktemp("demo")
    assert main(["synth", "--out", str(root), "--seed", "0"]) == 0
    cfg_arg = ["--config", str(root / "config.json")]
    for command in ("ingest", "build-index", "route", "retrieve", "assemble"):
        assert main([command, *cfg_arg]) == 0, command
    return root


@pytest.fixture(scope="module")
def demo_pipeline(demo):
    """The demo bundle's run config and catalog, and run_pipeline's result."""
    cfg = load_run_config(demo / "config.json")
    taxonomy = load_taxonomy(cfg.paths["taxonomy"])
    catalog, _ = ingest_catalog(cfg.paths["catalog"], taxonomy)
    result = run_pipeline(
        catalog, taxonomy, load_evidence(cfg.paths["evidence"]),
        load_prompt(cfg.paths["prompt"]),
        build_judge(cfg.judge_spec, cfg.root, DEFAULT_HTTP_TIMEOUT),
        retrieval_cfg=cfg.retrieval, budget=cfg.budget,
        subspace_params=cfg.subspace, body_category=cfg.body_category,
    )
    return cfg, catalog, result


class TestJudgeSpec:
    def test_forms(self):
        assert parse_judge_spec("passthrough") == ("passthrough", None)
        assert parse_judge_spec("scripted:j.json") == ("scripted", "j.json")
        assert parse_judge_spec("http:http://h:1/x") == ("http", "http://h:1/x")
        assert parse_judge_spec("http://h:1/x") == ("http", "http://h:1/x")
        assert parse_judge_spec("https://h/x") == ("http", "https://h/x")
        # a url without a scheme takes the spec's
        assert parse_judge_spec("http:h:1/x") == ("http", "http://h:1/x")
        assert parse_judge_spec("https:h/x") == ("http", "https://h/x")

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_judge_spec("telepathy:judge")

    def test_flag_beats_env_beats_config(self, monkeypatch):
        monkeypatch.setenv(ENV_JUDGE_URL, "http://env:1/j")
        assert effective_judge_spec("passthrough", "scripted:x") == "passthrough"
        assert effective_judge_spec(None, "scripted:x") == "http://env:1/j"
        monkeypatch.delenv(ENV_JUDGE_URL)
        assert effective_judge_spec(None, "scripted:x") == "scripted:x"

    def test_env_url_without_scheme_gains_prefix(self, monkeypatch):
        monkeypatch.setenv(ENV_JUDGE_URL, "host:9/judge")
        assert parse_judge_spec(effective_judge_spec(None, "passthrough")) == (
            "http", "http://host:9/judge",
        )

    def test_timeout_env(self, monkeypatch):
        assert effective_timeout() == DEFAULT_HTTP_TIMEOUT
        monkeypatch.setenv(ENV_JUDGE_TIMEOUT, "2.5")
        assert effective_timeout() == 2.5
        for bad in ("-1", "nan", "inf"):
            monkeypatch.setenv(ENV_JUDGE_TIMEOUT, bad)
            with pytest.raises(ValueError, match="must be positive"):
                effective_timeout()
        monkeypatch.setenv(ENV_JUDGE_TIMEOUT, "soon")
        with pytest.raises(ValueError):
            effective_timeout()


class TestRunConfig:
    def test_loads_scenario_config(self, bundle):
        root, _ = bundle
        cfg = load_run_config(root / "config.json")
        assert cfg.paths["catalog"] == root / "catalog.jsonl"
        assert cfg.paths["output_dir"] == root / "output"
        assert cfg.retrieval.gate_k == 20
        assert cfg.budget.n_candidates == 6
        assert cfg.judge_spec == "scripted:judge.json"
        assert cfg.body_category == "body"
        expected = hashlib.sha256((root / "config.json").read_bytes()).hexdigest()
        assert cfg.config_sha256 == expected

    def test_missing_required_path_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"paths": {"catalog": "c.jsonl"}}))
        with pytest.raises(ValueError, match="taxonomy"):
            load_run_config(p)

    def test_bad_schema_version(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "schema_version": 99,
            "paths": {"catalog": "a", "taxonomy": "b"},
        }))
        with pytest.raises(ValueError, match="schema version"):
            load_run_config(p)

    def test_section_invariants_enforced(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "paths": {"catalog": "a", "taxonomy": "b"},
            "retrieval": {"gate_k": 50, "pool_k": 10},
        }))
        with pytest.raises(ValueError):
            load_run_config(p)

    @pytest.mark.parametrize("section, field, bad", [
        ("subspace", "max_rank", -1),
        ("subspace", "variance_threshold", 0),
        ("retrieval", "branch_k", 2.5),
        ("budget", "per_asset_cap", True),
        ("subspace", "center", "false"),
        ("retrieval", "alpha", True),
    ])
    def test_section_value_it_cannot_run_is_invalid_value(
        self, tmp_path, capsys, section, field, bad
    ):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "paths": {"catalog": "a", "taxonomy": "b"},
            section: {field: bad},
        }))
        assert main(["route", "--config", str(p)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "route.InvalidValue"
        assert field in err["message"]

    def test_unknown_section_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "paths": {"catalog": "a", "taxonomy": "b"},
            "budget": {"n_candidates": 3, "mystery": 1},
        }))
        with pytest.raises(ValueError, match="bad run config section"):
            load_run_config(p)


class TestStageCommands:
    def test_full_pipeline_recovers_planted_truth(self, bundle, capsys):
        root, truth = bundle
        cfg_arg = ["--config", str(root / "config.json")]
        for command in ("ingest", "build-index", "route", "retrieve", "assemble"):
            assert main([command, *cfg_arg]) == 0, capsys.readouterr()
        capsys.readouterr()

        look = json.loads((root / "output" / "look.json").read_text())
        assert look["winner"]["selections"] == truth["planted_selections"]
        assert look["winner"]["status"] == "verified"
        cfg_hash = hashlib.sha256((root / "config.json").read_bytes()).hexdigest()
        for name in ("ingest_report.json", "plan.json", "pools.json", "look.json"):
            doc = json.loads((root / "output" / name).read_text())
            assert doc["config_sha256"] == cfg_hash
            assert doc["schema_version"] == 1

    def test_assemble_is_deterministic(self, bundle, capsys):
        root, _ = bundle
        cfg_arg = ["--config", str(root / "config.json")]
        target = root / "output" / "look.json"
        assert main(["assemble", *cfg_arg]) == 0
        first = target.read_bytes()
        assert main(["assemble", *cfg_arg]) == 0
        capsys.readouterr()
        assert target.read_bytes() == first

    def test_index_manifest_checksums(self, bundle, capsys):
        root, _ = bundle
        assert main(["build-index", "--config", str(root / "config.json")]) == 0
        capsys.readouterr()
        manifest = json.loads((root / "indices" / "manifest.json").read_text())
        assert manifest["format_version"] == 2
        blob = (root / "indices" / "catalog.npz").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == manifest["index_sha256"]
        assert manifest["source_sha256"] == {
            name: hashlib.sha256((root / f).read_bytes()).hexdigest()
            for name, f in (("catalog", "catalog.jsonl"), ("taxonomy", "taxonomy.json"))
        }

    def test_build_index_is_deterministic(self, demo, tmp_path, capsys):
        cfg_arg = ["--config", str(demo / "config.json")]
        for run in ("one", "two"):
            assert main(["build-index", *cfg_arg, "--out", str(tmp_path / run)]) == 0
        capsys.readouterr()
        for name in ("catalog.npz", "manifest.json"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes(), name

    @pytest.mark.parametrize("changed", ["catalog", "taxonomy"])
    def test_retrieve_rejects_stale_index(self, demo, tmp_path, capsys, changed):
        # an index built before the catalog or taxonomy changed is never
        # searched: the planted jacket stays out of every pool
        root = tmp_path / "stale"
        shutil.copytree(demo, root)
        if changed == "catalog":
            lines = (root / "catalog.jsonl").read_text().splitlines(keepends=True)
            kept = [line for line in lines if '"jacket-008"' not in line]
            assert len(kept) == len(lines) - 1
            (root / "catalog.jsonl").write_text("".join(kept))
        else:
            tax = read_doc(root / "taxonomy.json")
            (root / "taxonomy.json").write_text(json.dumps(tax))
        (root / "output" / "pools.json").unlink()
        assert main(["retrieve", "--config", str(root / "config.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "retrieve.ChecksumMismatch"
        assert changed in err["error"]["message"]
        assert "build-index" in err["error"]["message"]
        assert not (root / "output" / "pools.json").exists()

    def test_retrieve_rejects_snapshot_format_index(self, demo, tmp_path, capsys):
        # an index dir of per-category .idx snapshots has no format version
        root = tmp_path / "old-index"
        shutil.copytree(demo, root)
        (root / "indices" / "catalog.npz").unlink()
        (root / "indices" / "manifest.json").write_text(json.dumps({
            "config_sha256": "0" * 64, "dimension": 32, "schema_version": 1,
            "indices": {"body": {"file": "body.idx", "n_assets": 12, "sha256": "0" * 64}},
        }))
        assert main(["retrieve", "--config", str(root / "config.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "retrieve.VersionMismatch"
        assert "build-index" in err["error"]["message"]

    def test_retrieve_reads_no_catalog_records(self, demo, tmp_path, monkeypatch, capsys):
        # retrieve searches the catalog build-index saved; it never parses
        # the JSONL, and its pools are the in-process pipeline's
        def no_ingest(*args, **kwargs):
            raise AssertionError("retrieve must not ingest the catalog")

        monkeypatch.setattr("lookforge.cli.ingest_catalog", no_ingest)
        root = tmp_path / "no-ingest"
        shutil.copytree(demo, root)
        (root / "output" / "pools.json").unlink()
        assert main(["retrieve", "--config", str(root / "config.json")]) == 0
        capsys.readouterr()
        assert (root / "output" / "pools.json").read_bytes() == (
            demo / "output" / "pools.json"
        ).read_bytes()

    def test_missing_taxonomy_is_stage_prefixed(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "paths": {
                "catalog": "c.jsonl", "taxonomy": "gone.json", "prompt": "p.json",
            },
        }))
        assert main(["route", "--config", str(p)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "route.FileNotFound"
        assert err["error"]["stage"] == "route"

    def test_conflicting_core_taxonomy_is_stage_prefixed(self, tmp_path, capsys):
        # two required-core categories in one exclusion group fail at load,
        # not later in assembly as a caps error
        root = tmp_path / "scn"
        generate_pipeline_scenario(root, seed=5)
        tax = read_doc(root / "taxonomy.json")
        tax["exclusion_groups"].append(["body", "pants"])
        tax["required_core"] = ["body", "pants"]
        (root / "taxonomy.json").write_text(json.dumps(tax))
        assert main(["route", "--config", str(root / "config.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "route.InvalidTaxonomy"

    def test_unknown_body_category_is_stage_prefixed(self, demo, tmp_path, capsys):
        # a typo in body_category would otherwise turn off body-bundle
        # rotation silently
        root = tmp_path / "bad-body"
        shutil.copytree(demo, root)
        config = read_doc(root / "config.json")
        config["body_category"] = "bdy"
        (root / "config.json").write_text(json.dumps(config))
        (root / "output" / "look.json").unlink()
        assert main(["assemble", "--config", str(root / "config.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "assemble.UnknownCategory"
        assert "'bdy'" in err["error"]["message"]
        assert not (root / "output" / "look.json").exists()

    def test_catalog_line_order_changes_nothing(self, demo, tmp_path, capsys):
        # ingest sorts each category by asset id, so a shuffled catalog
        # yields the same catalog and byte-identical stage documents
        lines = (demo / "catalog.jsonl").read_text().splitlines(keepends=True)
        taxonomy = load_taxonomy(demo / "taxonomy.json")
        reference, _ = ingest_catalog(demo / "catalog.jsonl", taxonomy)
        outputs = ("ingest_report.json", "plan.json", "pools.json", "look.json")
        for seed in (1, 2, 3):
            root = tmp_path / f"order-{seed}"
            root.mkdir()
            for name in ("taxonomy.json", "prompt.json", "evidence.json", "judge.json",
                         "config.json"):
                (root / name).write_bytes((demo / name).read_bytes())
            shuffled = list(lines)
            random.Random(seed).shuffle(shuffled)
            assert shuffled != lines
            (root / "catalog.jsonl").write_text("".join(shuffled))

            catalog, _ = ingest_catalog(root / "catalog.jsonl", taxonomy)
            assert catalog.bundles == reference.bundles
            for cid in taxonomy.categories:
                ids, rows = catalog.embedding_matrix(cid)
                ref_ids, ref_rows = reference.embedding_matrix(cid)
                assert ids == ref_ids
                np.testing.assert_array_equal(rows, ref_rows)

            cfg_arg = ["--config", str(root / "config.json")]
            for command in ("ingest", "build-index", "route", "retrieve", "assemble"):
                assert main([command, *cfg_arg]) == 0, command
            capsys.readouterr()
            for name in outputs:
                assert (root / "output" / name).read_bytes() == (
                    demo / "output" / name
                ).read_bytes(), (seed, name)

    def test_assemble_reads_no_catalog(self, demo, tmp_path):
        # bundle ids reach assembly on the pooled candidates, so assemble
        # needs only what the earlier stages wrote
        root = tmp_path / "no-catalog"
        shutil.copytree(demo, root)
        (root / "catalog.jsonl").unlink()
        (root / "output" / "look.json").unlink()
        assert main(["assemble", "--config", str(root / "config.json")]) == 0
        assert (root / "output" / "look.json").read_bytes() == (
            demo / "output" / "look.json"
        ).read_bytes()

    @pytest.mark.parametrize("bad", [None, 5], ids=["missing", "number"])
    def test_assemble_rejects_bad_pool_bundle_id(self, demo, tmp_path, capsys, bad):
        root = tmp_path / "bad-bundle"
        shutil.copytree(demo, root)
        pools_path = root / "output" / "pools.json"
        doc = json.loads(pools_path.read_text())
        entry = doc["pools"]["body"]["pool"][0]
        if bad is None:
            del entry["bundle_id"]
        else:
            entry["bundle_id"] = bad
        pools_path.write_text(json.dumps(doc))
        assert main(["assemble", "--config", str(root / "config.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "assemble.InvalidValue"
        message = err["error"]["message"]
        assert message.startswith("pools.json category 'body': pool entry 0")
        assert "bundle_id" in message and message.endswith("re-run retrieve")

    @pytest.mark.parametrize("key, bad", [
        ("asset_id", None), ("source", 7), ("score", True),
    ], ids=["null_asset", "number_source", "bool_score"])
    def test_assemble_rejects_pool_entry_of_wrong_type(self, demo, tmp_path, capsys, key, bad):
        # nothing is coerced: a null asset id never becomes the asset "None"
        root = tmp_path / "bad-entry"
        shutil.copytree(demo, root)
        pools_path = root / "output" / "pools.json"
        doc = json.loads(pools_path.read_text())
        doc["pools"]["body"]["pool"][0][key] = bad
        pools_path.write_text(json.dumps(doc))
        assert main(["assemble", "--config", str(root / "config.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "assemble.InvalidValue"
        assert err["error"]["message"].startswith(
            f"pools.json category 'body': pool entry 0: {key} must be"
        )

    @pytest.mark.parametrize("document, keys, bad", [
        ("plan.json", ("plan",), ["body"]),
        ("plan.json", ("plan", "provenance"), ["body"]),
        ("plan.json", ("plan", "resolved_exclusions"), [7]),
        ("pools.json", ("pools",), []),
    ], ids=["plan", "provenance", "resolved_exclusions", "pools"])
    def test_stage_document_of_wrong_shape_is_invalid_value(
        self, demo, tmp_path, capsys, document, keys, bad
    ):
        stage, rerun = (
            ("retrieve", "re-run route") if document == "plan.json"
            else ("assemble", "re-run retrieve")
        )
        root = tmp_path / "bad-shape"
        shutil.copytree(demo, root)
        path = root / "output" / document
        doc = json.loads(path.read_text())
        (doc if len(keys) == 1 else doc[keys[0]])[keys[-1]] = bad
        path.write_text(json.dumps(doc))
        assert main([stage, "--config", str(root / "config.json")]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == f"{stage}.InvalidValue"
        assert err["message"].endswith(rerun)

    @pytest.mark.parametrize("document, reshape, stage, code", [
        ("evidence.json", lambda d: {**d, "views": list(d["views"].values())},
         "retrieve", "InvalidValue"),
        ("evidence.json", lambda d: {**d, "text_priors": list(d["text_priors"].values())},
         "retrieve", "InvalidValue"),
        ("evidence.json", lambda d: {**d, "parts": [*d["parts"], 7]}, "retrieve", "InvalidValue"),
        ("evidence.json", lambda d: [d], "retrieve", "InvalidValue"),
        ("prompt.json", lambda d: [d], "route", "InvalidValue"),
        ("taxonomy.json", lambda d: [d], "route", "InvalidTaxonomy"),
        ("taxonomy.json", lambda d: {**d, "concept_map": list(d["concept_map"])},
         "route", "InvalidTaxonomy"),
        ("config.json", lambda d: {**d, "paths": list(d["paths"])}, "route", "InvalidValue"),
    ], ids=["evidence_views", "evidence_text_priors", "evidence_part_number", "evidence_list",
            "prompt_list", "taxonomy_list", "taxonomy_concept_map", "config_paths"])
    def test_input_document_of_wrong_shape_is_rejected(
        self, demo, tmp_path, capsys, document, reshape, stage, code
    ):
        # a list where an object belongs fails as the input's own error, not
        # as an AttributeError from deep in a stage
        root = tmp_path / "bad-input"
        shutil.copytree(demo, root)
        path = root / document
        path.write_text(json.dumps(reshape(json.loads(path.read_text()))))
        assert main([stage, "--config", str(root / "config.json")]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["code"] == f"{stage}.{code}"

    def test_retrieve_reads_documents_with_retired_keys(self, demo, tmp_path, capsys):
        # evidence as perfbench/gen.py writes it (prompt_text, and a part
        # source_view, null for a failed part) and a plan that still carries
        # query strings: both load, and the pools do not change
        root = tmp_path / "retired-keys"
        shutil.copytree(demo, root)
        evidence = json.loads((root / "evidence.json").read_text())
        evidence["prompt_text"] = "an explorer"
        for part in evidence["parts"]:
            part["source_view"] = "front" if part["embedding"] is not None else None
        assert {p["source_view"] for p in evidence["parts"]} == {"front", None}
        (root / "evidence.json").write_text(json.dumps(evidence))
        plan_path = root / "output" / "plan.json"
        plan = json.loads(plan_path.read_text())
        plan["plan"]["queries"] = {c: f"{c} query" for c in plan["plan"]["target_categories"]}
        plan_path.write_text(json.dumps(plan))
        (root / "output" / "pools.json").unlink()
        assert main(["retrieve", "--config", str(root / "config.json")]) == 0
        assert (root / "output" / "pools.json").read_bytes() == (
            demo / "output" / "pools.json"
        ).read_bytes()

    def test_retrieve_before_route_fails_cleanly(self, tmp_path, capsys):
        root = tmp_path / "fresh"
        generate_pipeline_scenario(root, seed=5)
        assert main(["retrieve", "--config", str(root / "config.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "retrieve.FileNotFound"

    def test_out_flag_overrides_output_dir(self, bundle, tmp_path, capsys):
        root, _ = bundle
        custom = tmp_path / "elsewhere"
        assert main([
            "route", "--config", str(root / "config.json"), "--out", str(custom),
        ]) == 0
        capsys.readouterr()
        assert (custom / "plan.json").exists()

    def test_judge_flag_overrides_config(self, bundle, capsys):
        root, truth = bundle
        assert main([
            "assemble", "--config", str(root / "config.json"),
            "--judge", "passthrough",
        ]) == 0
        capsys.readouterr()
        look = json.loads((root / "output" / "look.json").read_text())
        assert look["winner"]["selections"] == truth["planted_selections"]

    def test_demo_look_fingerprint(self, demo):
        # the behaviour fingerprint of the seed-0 demo bundle: look.json
        # embeds the config.json sha256, so this pins the bundle writer too
        digest = hashlib.sha256((demo / "output" / "look.json").read_bytes()).hexdigest()
        assert digest == DEMO_LOOK_SHA256

    def test_stage_documents_match_run_pipeline(self, demo, demo_pipeline):
        # the stage commands and the in-process pipeline are one path: each
        # stage document body is the library's to_dict of the same result
        cfg, _, result = demo_pipeline

        def body(name):
            doc = read_doc(demo / "output" / name)
            assert doc.pop("schema_version") == 1
            assert doc.pop("config_sha256") == cfg.config_sha256
            return doc

        assert body("plan.json") == plan_to_dict(result.plan)
        assert body("pools.json") == pools_to_dict(result.retrievals)
        assert body("look.json") == result.to_dict()

    def test_pooled_candidates_carry_catalog_bundle_ids(self, demo_pipeline):
        _, catalog, result = demo_pipeline
        pooled = [c for r in result.retrievals.values() for c in r.pool]
        assert [c.bundle_id for c in pooled] == [
            catalog.bundles.get(c.asset_id) for c in pooled
        ]
        assert any(c.bundle_id is not None for c in pooled)
        assert any(c.bundle_id is None for c in pooled)


class TestSynthAndEval:
    def test_synth_writes_bundle(self, tmp_path, capsys):
        out = tmp_path / "scn"
        assert main(["synth", "--out", str(out), "--seed", "3"]) == 0
        capsys.readouterr()
        for name in ("catalog.jsonl", "taxonomy.json", "prompt.json",
                     "evidence.json", "judge.json", "config.json", "truth.json"):
            assert (out / name).exists(), name

    def test_eval_prints_table_and_writes_report(self, tmp_path, capsys):
        assert main([
            "eval", "--ablate", "suppression", "none", "--n", "4", "--seed", "11",
            "--out", str(tmp_path),
        ]) == 0
        table = capsys.readouterr().out
        assert table.startswith("| ablation ")
        rows = table.strip().splitlines()[2:]
        assert [r.split("|")[1].strip() for r in rows] == ["suppression", "none"]
        assert "| suppression | 4 |" in table
        doc = json.loads((tmp_path / "eval_suppression.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["report"]["top1_accuracy"] == 0.0
        assert doc["params"] == {
            "ablate": "suppression", "n_scenarios": 4, "base_seed": 11,
        }
        doc = json.loads((tmp_path / "eval_none.json").read_text())
        assert doc["report"]["ablation"] == "none"
        assert doc["params"]["ablate"] == "none"

    def test_eval_rejects_unknown_ablation(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--ablate", "gravity"])
        capsys.readouterr()
