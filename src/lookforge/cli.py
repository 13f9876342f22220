"""Command-line surface for the whole pipeline.

Stage commands (ingest, build-index, route, retrieve, assemble) read a
JSON run config and compose through files: each writes the document the
next one reads. synth fabricates a runnable scenario bundle and eval runs
seeded ablation suites. Every output document is versioned and embeds the
sha256 of the config that produced it; with a scripted judge, identical
config and seed give byte-identical outputs.

Failures exit 1 and print one JSON error document to stderr with a
stage-prefixed code, for example:

    {"error": {"code": "route.FileNotFound", "message": "...", "stage": "route"}}
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .assembly import GenerationBudget
from .catalog import MANIFEST_FILE, Taxonomy, at, check, check_doc, ingest_catalog
from .catalog import load_index_dir, load_taxonomy, need, parse_doc, read_doc, save_index_dir
from .catalog import write_doc
from .errors import PipelineError
from .evalsuite import ABLATIONS, markdown_table, run_interference_suite
from .evidence import load_evidence
from .judge import DEFAULT_HTTP_TIMEOUT, PASS_SCRIPT, HttpSource, JudgeClient, ScriptedSource
from .pipeline import run_assembly, run_retrieval
from .retrieval import RetrievalConfig, pools_from_dict, pools_to_dict
from .router import load_prompt, plan_targets, plan_to_dict, route
from .synth import generate_pipeline_scenario
from .vecmath import SubspaceParams

RUN_CONFIG_SCHEMA_VERSION = 1
OUTPUT_SCHEMA_VERSION = 1

ENV_JUDGE_URL = "LOOKFORGE_JUDGE_URL"
ENV_JUDGE_TIMEOUT = "LOOKFORGE_JUDGE_TIMEOUT"

PATH_KEYS = ("catalog", "taxonomy", "evidence", "prompt", "index_dir", "output_dir")
SECTIONS = {"retrieval": RetrievalConfig, "budget": GenerationBudget, "subspace": SubspaceParams}


@dataclass(frozen=True)
class RunConfig:
    name: str  # the config file's name, as messages give it
    root: Path
    body_category: str | None
    paths: dict[str, Path]
    retrieval: RetrievalConfig
    budget: GenerationBudget
    subspace: SubspaceParams
    judge_spec: str
    advisor_spec: str | None
    config_sha256: str


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run config, whose relative paths resolve against
    its directory; a refusal is a ValueError naming the file and the key."""
    p = Path(path)
    raw = p.read_bytes()
    name = p.name
    doc = check_doc(parse_doc(raw, p), RUN_CONFIG_SCHEMA_VERSION, name)

    path_doc = {"index_dir": "indices", "output_dir": "output", **need(doc, "paths", dict, name)}
    paths = {  # catalog and taxonomy are required
        key: p.parent / need(path_doc, key, str, at(name, "paths"))
        for key in PATH_KEYS if key in path_doc or key in ("catalog", "taxonomy")
    }

    sections = {}
    for key, kind in SECTIONS.items():
        fields = check(doc.get(key, {}), dict, at(name, key))
        try:
            sections[key] = kind(**fields)
        except TypeError as exc:  # a key the section does not define
            raise ValueError(f"{at(name, key)}: bad run config section: {exc}") from exc
        except ValueError as exc:  # its message starts with the field's name
            raise ValueError(f"{at(name, key)}.{exc}") from exc

    judge = check(doc.get("judge", "passthrough"), str, at(name, "judge"))
    advisor = check(doc.get("advisor"), (str, type(None)), at(name, "advisor"))
    for key, spec in (("judge", judge), ("advisor", advisor or "passthrough")):
        try:
            parse_judge_spec(spec)
        except ValueError as exc:
            raise ValueError(f"{at(name, key)}: {exc}") from exc

    return RunConfig(
        name=name,
        root=p.parent,
        body_category=check(doc.get("body_category"), (str, type(None)), at(name, "body_category")),
        paths=paths,
        judge_spec=judge,
        advisor_spec=advisor,
        config_sha256=hashlib.sha256(raw).hexdigest(),
        **sections,
    )


def _require_path(cfg: RunConfig, key: str) -> Path:
    if key not in cfg.paths:
        raise ValueError(f"{at(cfg.name, 'paths', key)} is missing; this command needs it")
    return cfg.paths[key]


def parse_judge_spec(spec: str) -> tuple[str, str | None]:
    """Split a judge spec into (kind, target).

    Accepted forms: ``passthrough``, ``scripted:<path>``, ``http:<url>``.
    A bare ``http://host`` or ``https://host`` also works. A target without
    a scheme takes the spec's own: ``http:host:9/j`` targets ``http://host:9/j``.
    """
    if spec == "passthrough":
        return "passthrough", None
    if spec.startswith("scripted:"):
        return "scripted", spec[len("scripted:"):]
    if spec.startswith(("http:", "https:")):
        scheme, rest = spec.split(":", 1)
        if rest.startswith(("http:", "https:")):  # http:<url with scheme>
            scheme, rest = rest.split(":", 1)
        return "http", f"{scheme}://{rest.removeprefix('//')}"
    raise ValueError(
        f"unrecognized judge spec {spec!r}; "
        "use passthrough, scripted:<path>, or http:<url>"
    )


def build_judge(spec: str, root: Path, timeout: float) -> JudgeClient:
    """The judge or advisor client a spec names."""
    kind, target = parse_judge_spec(spec)
    if kind == "passthrough":
        return JudgeClient(ScriptedSource(PASS_SCRIPT))
    if kind == "scripted":
        return JudgeClient(ScriptedSource(root / target))
    return JudgeClient(HttpSource(target, timeout=timeout))


def effective_judge_spec(flag: str | None, config_spec: str) -> str:
    """CLI flag beats the environment; the environment beats the config."""
    if flag:
        return flag
    env_url = os.environ.get(ENV_JUDGE_URL)
    if env_url:
        return env_url if env_url.startswith(("http:", "https:")) else f"http:{env_url}"
    return config_spec


def effective_timeout() -> float:
    raw = os.environ.get(ENV_JUDGE_TIMEOUT)
    if raw is None:
        return DEFAULT_HTTP_TIMEOUT
    timeout = float(raw)
    if not math.isfinite(timeout) or timeout <= 0:
        raise ValueError(f"{ENV_JUDGE_TIMEOUT} must be positive, got {raw!r}")
    return timeout


def write_output(path: Path, cfg: RunConfig, body: dict) -> None:
    """Write a stage output under the versioned, config-stamped envelope."""
    write_doc(path, {
        "schema_version": OUTPUT_SCHEMA_VERSION,
        "config_sha256": cfg.config_sha256,
        **body,
    })


def _out_dir(args, cfg: RunConfig) -> Path:
    return Path(args.out) if args.out else cfg.paths["output_dir"]


# --- commands -----------------------------------------------------------------


def stage_command(func):
    """Give a stage command its run config and taxonomy, loaded once."""

    @functools.wraps(func)
    def run(args) -> int:
        cfg = load_run_config(args.config)
        return func(args, cfg, load_taxonomy(cfg.paths["taxonomy"]))

    return run


@stage_command
def cmd_ingest(args, cfg: RunConfig, taxonomy: Taxonomy) -> int:
    catalog, report = ingest_catalog(cfg.paths["catalog"], taxonomy)
    out = _out_dir(args, cfg) / "ingest_report.json"
    write_output(out, cfg, report.to_dict(catalog))
    print(f"loaded {report.n_loaded} assets, rejected {report.n_rejected} -> {out}")
    return 0


def _index_sources(cfg: RunConfig) -> dict[str, Path]:
    """The files an index directory is built from, by manifest name."""
    return {"catalog": cfg.paths["catalog"], "taxonomy": cfg.paths["taxonomy"]}


@stage_command
def cmd_build_index(args, cfg: RunConfig, taxonomy: Taxonomy) -> int:
    catalog, report = ingest_catalog(cfg.paths["catalog"], taxonomy)
    index_dir = Path(args.out) if args.out else cfg.paths["index_dir"]
    manifest = save_index_dir(catalog, index_dir, _index_sources(cfg))
    write_output(index_dir / MANIFEST_FILE, cfg, manifest)
    print(f"indexed {report.n_loaded} assets -> {index_dir}")
    return 0


@stage_command
def cmd_route(args, cfg: RunConfig, taxonomy: Taxonomy) -> int:
    prompt = load_prompt(_require_path(cfg, "prompt"))
    advisor = None
    if cfg.advisor_spec is not None:
        advisor = build_judge(cfg.advisor_spec, cfg.root, effective_timeout())
    plan = route(prompt, taxonomy, advisor=advisor)
    out = _out_dir(args, cfg) / "plan.json"
    write_output(out, cfg, plan_to_dict(plan))
    print(f"routed to {', '.join(plan.target_categories)} -> {out}")
    return 0


@stage_command
def cmd_retrieve(args, cfg: RunConfig, taxonomy: Taxonomy) -> int:
    out_dir = _out_dir(args, cfg)
    plan = check_doc(read_doc(out_dir / "plan.json"), OUTPUT_SCHEMA_VERSION, "plan.json")
    targets = plan_targets(plan, taxonomy)
    store = load_evidence(_require_path(cfg, "evidence"))
    catalog = load_index_dir(cfg.paths["index_dir"], taxonomy, _index_sources(cfg))
    retrievals = run_retrieval(targets, catalog, store, cfg.retrieval, subspace_params=cfg.subspace)
    out = out_dir / "pools.json"
    write_output(out, cfg, pools_to_dict(retrievals))
    sizes = ", ".join(f"{cat}:{len(r.pool)}" for cat, r in sorted(retrievals.items()))
    print(f"pooled candidates ({sizes}) -> {out}")
    return 0


@stage_command
def cmd_assemble(args, cfg: RunConfig, taxonomy: Taxonomy) -> int:
    out_dir = _out_dir(args, cfg)
    doc = check_doc(read_doc(out_dir / "pools.json"), OUTPUT_SCHEMA_VERSION, "pools.json")
    pools = pools_from_dict(doc, taxonomy)
    spec = effective_judge_spec(args.judge, cfg.judge_spec)
    judge = build_judge(spec, cfg.root, effective_timeout())
    result = run_assembly(pools, judge, cfg.budget, taxonomy=taxonomy,
                          body_category=cfg.body_category, gate_k=cfg.retrieval.gate_k)
    out = out_dir / "look.json"
    write_output(out, cfg, result.to_dict())
    print(f"winner {result.winner.look_id} ({result.winner.status}) -> {out}")
    return 0


def cmd_synth(args) -> int:
    truth = generate_pipeline_scenario(args.out, seed=args.seed)
    planted = ", ".join(
        f"{cat}={aid}" for cat, aid in sorted(truth["planted_selections"].items())
    )
    print(f"scenario bundle in {args.out} (planted {planted})")
    return 0


def cmd_eval(args) -> int:
    reports = [
        run_interference_suite(args.n, base_seed=args.seed, ablate=arm)
        for arm in args.ablate
    ]
    sys.stdout.write(markdown_table(reports))
    if args.out:
        for report in reports:
            params = {
                "ablate": report.ablation, "n_scenarios": args.n, "base_seed": args.seed,
            }
            canonical = json.dumps(params, sort_keys=True).encode("utf-8")
            write_doc(Path(args.out) / f"eval_{report.ablation}.json", {
                "schema_version": OUTPUT_SCHEMA_VERSION,
                "params": params,
                "params_sha256": hashlib.sha256(canonical).hexdigest(),
                "report": report.to_dict(),
            })
    return 0


# --- argument parsing -----------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lookforge",
        description="catalog-grounded avatar look retrieval and assembly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, func, help_text, *, judge_flag=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="override the config output dir")
        if judge_flag:
            p.add_argument(
                "--judge", default=None,
                help="judge spec: passthrough, scripted:<path>, or http:<url>",
            )
        p.set_defaults(func=func)
        return p

    stage("ingest", cmd_ingest, "validate a catalog file and report rejections")
    stage("build-index", cmd_build_index, "save the ingested catalog for retrieve")
    stage("route", cmd_route, "turn the prompt into a category routing plan")
    stage("retrieve", cmd_retrieve, "pool ranked candidates per routed category")
    stage("assemble", cmd_assemble, "assemble, refine, and pick the winning look",
          judge_flag=True)

    p = sub.add_parser("synth", help="write a runnable synthetic scenario bundle")
    p.add_argument("--out", required=True, help="bundle directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="run seeded interference ablation suites")
    p.add_argument(
        "--ablate", nargs="+", choices=ABLATIONS, default=["none"],
        help="one or more arms; each writes its own report",
    )
    p.add_argument("--n", type=int, default=100, help="number of scenarios")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--out", default=None, help="directory for the report JSON")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # every failure becomes one machine-readable line
        code = exc.code if isinstance(exc, PipelineError) else _generic_code(exc)
        doc = {
            "error": {
                "stage": args.command,
                "code": f"{args.command}.{code}",
                "message": str(exc),
            }
        }
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        return 1


def _generic_code(exc: Exception) -> str:
    if isinstance(exc, FileNotFoundError):
        return "FileNotFound"
    if isinstance(exc, json.JSONDecodeError):
        return "InvalidJson"
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        return "InvalidValue"
    if isinstance(exc, OSError):
        return "Io"
    return type(exc).__name__


if __name__ == "__main__":
    sys.exit(main())
