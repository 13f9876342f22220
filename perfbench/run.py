#!/usr/bin/env python3
"""lookforge benchmark: one workload, one closed-loop client, one run.

    python3 perfbench/run.py --workload prompt_stream --seed 1 --seconds 20 --trace 0

Run from the repository root. The run generates its seeded inputs with
perfbench/gen.py (never timed), sets up, then starts looks back to back
for ``--seconds``: the next prompt starts only after the previous look
is written. It checks every look and the demo bundle's ``look.json``
fingerprint, prints each metric on its own line with unit and sample
count, and ends with one JSON line. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps lookforge's public functions (perfbench/
spans.py) and reports per-layer metrics instead.

Workloads:
  prompt_stream  in-process run_pipeline, 8 x 5,000 assets, d=256
  cli_cold       route/retrieve/assemble CLI processes, 8 x 2,000, d=128
  slate_heavy    in-process run_pipeline with a 32-look judged slate,
                 8 x 48 assets, d=32

BLAS threads are capped at the number of usable cores, here and in every
CLI process. Inputs and outputs live under .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH_DIR))

from stats import median, tail  # noqa: E402
from spans import ROOT_SPAN, Aggregate, Tracer  # noqa: E402

WORKLOADS = ("prompt_stream", "cli_cold", "slate_heavy")
BODY = "body"
# Set-up repeats at least this often and until this much was measured.
SETUP_REPEATS = 3
SETUP_MIN_S = 5.0
SETUP_MAX_REPEATS = 1000
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# sha256 of output/look.json for `lookforge synth --seed 0` run through
# every CLI stage; a refactor that keeps behaviour keeps this value.
DEMO_LOOK_SHA256 = "092c2b470c3ccaaa2ddcde27040866d31923ca5b9b619cb57c66ea33a6e9c6de"
DEMO_STAGES = ("ingest", "build-index", "route", "retrieve", "assemble")
LOOK_STAGES = ("route", "retrieve", "assemble")

END_TO_END = (
    ("setup_s", "s"), ("look_p50_ms", "ms"), ("look_tail_ms", "ms"),
    ("looks_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("planted_top1", "share"), ("planted_recall", "share"),
)
MODULES = ("catalog", "synth", "vecmath", "index", "router", "evidence",
           "retrieval", "judge", "assembly", "pipeline", "cli")


class Checks:
    """Look validity, repeat determinism and planted-truth scoring."""

    def __init__(self, lf, taxonomy, planted: list[dict]) -> None:
        self.lf = lf
        self.taxonomy = taxonomy
        self.planted = planted
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.winner_hash: dict[int, str] = {}
        self.repeats = 0
        self.seconds = 0.0  # spent checking, kept out of the measured time
        self.top1 = 0
        self.recall = 0
        self.pairs = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def look(self, prompt: int, pools: dict[str, list[str]], looks: list) -> None:
        """Check one completed look: base, candidates and winner (last)."""
        t0 = time.perf_counter()
        try:
            self._look(prompt, pools, looks)
        finally:
            self.seconds += time.perf_counter() - t0

    def _look(self, prompt: int, pools: dict[str, list[str]], looks: list) -> None:
        lf = self.lf
        self.attempted += 1
        cand_pools = {c: [lf.retrieval.Candidate(a, 0.0, "") for a in ids]
                      for c, ids in pools.items()}
        for lk in looks:
            bad = lf.assembly.validate_look(
                lk, cand_pools, self.taxonomy.exclusion_groups, self.taxonomy.required_core)
            if bad:
                self.fail(f"prompt {prompt}: {lk.look_id} invalid: {bad[0]}")
                return
        winner = looks[-1]
        digest = hashlib.sha256(
            json.dumps(winner.selections, sort_keys=True).encode()).hexdigest()
        if prompt in self.winner_hash:
            self.repeats += 1
            if self.winner_hash[prompt] != digest:
                self.fail(f"prompt {prompt}: winner differs from its earlier run")
            return
        # planted truth is scored on the first run of each prompt only
        self.winner_hash[prompt] = digest
        for cat, aid in self.planted[prompt].items():
            self.pairs += 1
            self.top1 += winner.selections.get(cat) == aid
            self.recall += aid in pools.get(cat, ())

    def raised(self, prompt: int, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(f"prompt {prompt}: {type(exc).__name__}: {exc}")


# --- shared helpers ---------------------------------------------------------------


def import_lookforge():
    """lookforge from this checkout's src/, never from anywhere else."""
    if not (SRC / "lookforge" / "__init__.py").is_file():
        raise ImportError(f"no lookforge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lookforge.assembly
    import lookforge.catalog
    import lookforge.cli
    import lookforge.evidence
    import lookforge.judge
    import lookforge.pipeline
    import lookforge.retrieval
    import lookforge.router
    return lookforge


def cli_in_process(lf, argv: list[str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = lf.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"lookforge {' '.join(argv)} exited {rc}: {out.getvalue()[-500:]}")


def cli_process(argv: list[str], log: Path) -> tuple[float, float]:
    """Run one CLI stage as its own process: (wall seconds, peak RSS MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "lookforge.cli", *argv],
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail_text = log.read_text(errors="replace")[-500:]
        raise RuntimeError(f"lookforge {' '.join(argv)} exited {proc.returncode}: {tail_text}")
    return wall, usage.ru_maxrss / 1024.0


def peak_rss_self_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def demo_check(lf, work: Path, *, processes: bool) -> tuple[bool, dict[str, float]]:
    """Run the synth --seed 0 bundle through the CLI; compare look.json."""
    bundle = work / "demo"
    cli_in_process(lf, ["synth", "--out", str(bundle), "--seed", "0"])
    cfg = ["--config", str(bundle / "config.json")]
    stage_s: dict[str, float] = {}
    for stage in DEMO_STAGES:
        if processes:
            stage_s[stage], _ = cli_process([stage, *cfg], work / "demo.log")
        else:
            cli_in_process(lf, [stage, *cfg])
    digest = hashlib.sha256((bundle / "output" / "look.json").read_bytes()).hexdigest()
    return digest == DEMO_LOOK_SHA256, stage_s


def look_scope(tracer: Tracer | None, name: str, traced: bool):
    """What one look runs in: a traced scope, or the wrappers taken out."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.scoped(name, ROOT_SPAN) if traced else tracer.paused()


def setup_done(times: list[float]) -> bool:
    return len(times) >= SETUP_MAX_REPEATS or (
        len(times) >= SETUP_REPEATS and sum(times) >= SETUP_MIN_S)


def generate(workload: str, seed: int, out: Path) -> dict:
    subprocess.run([sys.executable, str(BENCH_DIR / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out)], check=True)
    return json.loads((out / "truth.json").read_text())


# --- in-process workloads ------------------------------------------------------------


class InProcess:
    """prompt_stream and slate_heavy: one run_pipeline call per look."""

    def __init__(self, lf, inputs: Path, truth: dict, tracer: Tracer | None) -> None:
        self.lf, self.inputs, self.truth, self.tracer = lf, inputs, truth, tracer
        self.taxonomy = lf.catalog.load_taxonomy(inputs / "taxonomy.json")
        self.checks = Checks(lf, self.taxonomy, truth["planted"])
        self.cfg = lf.retrieval.RetrievalConfig(**truth["retrieval"])
        self.budget = lf.assembly.GenerationBudget(**truth["budget"])
        self.catalog = None
        self.prompts: list[tuple] = []

    def scope(self, name: str, traced: bool = True):
        return look_scope(self.tracer, name, traced)

    def setup(self) -> list[float]:
        times: list[float] = []
        while not setup_done(times):
            i = len(times)
            self.catalog = None
            gc.collect()
            with self.scope(f"setup-{i}"):
                t0 = time.perf_counter()
                self.catalog, _ = self.lf.catalog.ingest_catalog(
                    self.inputs / "catalog.jsonl", self.taxonomy)
                times.append(time.perf_counter() - t0)
        with self.scope("inputs"):
            for p in range(self.truth["n_prompts"]):
                tag = f"{p:03d}"
                self.prompts.append((
                    self.lf.router.load_prompt(self.inputs / "prompts" / f"prompt_{tag}.json"),
                    self.lf.evidence.load_evidence(self.inputs / "evidence" / f"evidence_{tag}.json"),
                    json.loads((self.inputs / "judge" / f"judge_{tag}.json").read_text()),
                ))
        return times

    def look(self, k: int, p: int, traced: bool = True) -> float | None:
        """Look ``k`` (the warm-up when negative) of prompt ``p``; returns its
        latency, or None if it failed."""
        lf = self.lf
        prompt, store, script = self.prompts[p]
        judge = lf.judge.JudgeClient(lf.judge.ScriptedSource(script))
        try:
            with self.scope(f"look-{k}" if k >= 0 else "warmup", traced):
                t0 = time.perf_counter()
                res = lf.pipeline.run_pipeline(
                    self.catalog, self.taxonomy, store, prompt, judge,
                    retrieval_cfg=self.cfg, budget=self.budget, body_category=BODY)
                latency = time.perf_counter() - t0
        except Exception as exc:  # a failed look is counted, never skipped
            self.checks.raised(p, exc)
            return None
        pools = {c: [x.asset_id for x in cands] for c, cands in res.filtered_pools.items()}
        self.checks.look(p, pools, [res.base_look, *res.candidates, res.winner])
        return latency


# --- CLI workload ----------------------------------------------------------------------


class CliCold:
    """cli_cold: route, retrieve and assemble as separate CLI processes."""

    def __init__(self, lf, inputs: Path, truth: dict, tracer: Tracer | None, work: Path) -> None:
        self.lf, self.inputs, self.truth, self.tracer = lf, inputs, truth, tracer
        self.taxonomy = lf.catalog.load_taxonomy(inputs / "taxonomy.json")
        self.checks = Checks(lf, self.taxonomy, truth["planted"])
        self.looks_dir = work / "looks"
        self.log = work / "cli.log"
        self.peak_rss_mb = 0.0
        self.stage_s: dict[str, list[float]] = {s: [] for s in DEMO_STAGES}
        self.in_process = False

    def config(self, p: int) -> Path:
        return self.inputs / f"config_{p:03d}.json"

    def scope(self, name: str, traced: bool = True):
        return look_scope(self.tracer if self.in_process else None, name, traced)

    def stage(self, name: str, argv: list[str]) -> None:
        if self.in_process:
            t0 = time.perf_counter()
            cli_in_process(self.lf, [name, *argv])
            wall = time.perf_counter() - t0
        else:
            wall, rss = cli_process([name, *argv], self.log)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
        self.stage_s[name].append(wall)

    def setup(self, once: bool = False) -> list[float]:
        times: list[float] = []
        while not (once and times) and not setup_done(times):
            i = len(times)
            with self.scope(f"setup-{i}"):
                t0 = time.perf_counter()
                for name in ("ingest", "build-index"):
                    self.stage(name, ["--config", str(self.config(0))])
                times.append(time.perf_counter() - t0)
        return times

    def look(self, k: int, p: int, traced: bool = True) -> float | None:
        out = self.looks_dir / f"look_{k:04d}"
        argv = ["--config", str(self.config(p)), "--out", str(out)]
        try:
            with self.scope(f"look-{k}", traced):
                t0 = time.perf_counter()
                for name in LOOK_STAGES:
                    self.stage(name, argv)
                latency = time.perf_counter() - t0
        except Exception as exc:
            self.checks.raised(p, exc)
            return None
        t0 = time.perf_counter()
        doc = json.loads((out / "look.json").read_text())
        AvatarLook = self.lf.assembly.AvatarLook
        looks = [AvatarLook(look_id=d["look_id"], selections=dict(d["selections"]))
                 for d in (doc["base_look"], *doc["candidates"], doc["winner"])]
        shutil.rmtree(out, ignore_errors=True)
        self.checks.seconds += time.perf_counter() - t0
        self.checks.look(p, doc["gated_pools"], looks)
        return latency


# --- measured phase --------------------------------------------------------------------


def closed_loop(runner, seconds: float, first_look: int = 0,
                paired: bool = False) -> tuple[list[float], float, list[float]]:
    """Looks back to back for ``seconds`` of measured time.

    Checking a look's output is not part of the measured time. Returns the
    latencies of completed (traced) looks, the measured wall time of the
    phase, and, with ``paired``, the tracing overhead of each pair: every
    prompt then runs twice in a row, traced and untraced in alternating
    order, and the pair gives traced / untraced - 1.
    """
    n_prompts = runner.truth["n_prompts"]
    checks = runner.checks
    latencies: list[float] = []
    overheads: list[float] = []
    first: float | None = None
    start, checked, k = time.perf_counter(), checks.seconds, first_look
    measured = 0.0
    while measured < seconds or (paired and (k - first_look) % 2):
        i = k - first_look
        p = (i // 2 if paired else i) % n_prompts
        traced = not paired or i % 2 == (i // 2) % 2
        latency = runner.look(k, p, traced)
        if latency is not None and traced:
            latencies.append(latency)
        if paired and i % 2 == 0:
            first = latency
        elif paired and first is not None and latency is not None:
            tr, un = (latency, first) if traced else (first, latency)
            overheads.append(tr / un - 1.0)
        k += 1
        measured = time.perf_counter() - start - (checks.seconds - checked)
    return latencies, measured, overheads


# --- per-layer metrics --------------------------------------------------------------------


def layer_metrics(tracer: Tracer, stage_ms: dict[str, float], interp_ms: float,
                  overhead: float) -> dict:
    """Per-layer metrics; a layer the looks never call is read from set-up,
    then from the demo bundle's CLI pass. ``overhead`` is the measured
    tracing overhead, traced over untraced look latency minus one."""
    aggs = [Aggregate(tracer, kind) for kind in ("look", "setup", "inputs", "demo")]

    def pick(name: str) -> Aggregate:
        return next((a for a in aggs if a.calls.get(name)), aggs[0])

    def per_unit(name: str, scale: float) -> float:
        a = pick(name)
        return a.total_ns[name] / scale / max(a.units, 1)

    def per_call(name: str, scale: float) -> float:
        a = pick(name)
        return a.total_ns[name] / scale / max(a.calls[name], 1)

    def calls_per_unit(name: str) -> float:
        a = pick(name)
        return a.calls[name] / max(a.units, 1)

    def count_of(name: str, key: str) -> tuple[float, Aggregate]:
        a = next((a for a in aggs if a.counts.get(f"{name}.calls")), aggs[0])
        return a.counts[key], a

    def ratio(name: str, key: str, denom_key: str | None = None) -> float:
        num, a = count_of(name, key)
        den = a.counts[denom_key or f"{name}.calls"]
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["synth.estimate_subspaces.ms_per_look"] = per_unit("synth.estimate_subspaces", 1e6)
    m["vecmath.compute_category_subspace.calls_per_look"] = calls_per_unit(
        "vecmath.compute_category_subspace")
    m["catalog.embedding_matrix.calls_per_look"] = calls_per_unit("catalog.embedding_matrix")
    m["catalog.embedding_matrix.ms_per_look"] = per_unit("catalog.embedding_matrix", 1e6)
    m["index.build_indices.ms_per_look"] = per_unit("index.build_indices", 1e6)
    m["pipeline.bundle_map.ms_per_look"] = per_unit("pipeline.bundle_map", 1e6)
    m["index.search.calls_per_look"] = calls_per_unit("index.search")
    m["index.search.us_per_call"] = per_call("index.search", 1e3)
    rows, a = count_of("index.search", "index.search.rows")
    m["index.search.rows_scanned_per_look"] = rows / max(a.units, 1)
    m["index.load.ms_per_call"] = per_call("index.load", 1e6)
    m["index.save.ms_per_call"] = per_call("index.save", 1e6)
    m["evidence.load_evidence.ms"] = per_call("evidence.load_evidence", 1e6)
    m["catalog.ingest_catalog.ms"] = per_call("catalog.ingest_catalog", 1e6)
    records, a = count_of("catalog.ingest_catalog", "catalog.ingest_catalog.records")
    ingest_s = a.total_ns["catalog.ingest_catalog"] / 1e9
    m["catalog.ingest_catalog.records_per_s"] = records / ingest_s if ingest_s else 0.0
    m["cli.interp_start_ms"] = interp_ms
    m["cli.read_doc.ms"] = per_call("cli.read_doc", 1e6)
    m["cli.write_doc.ms"] = per_call("cli.write_doc", 1e6)
    m["vecmath.suppress.us_per_call"] = per_call("vecmath.suppress", 1e3)
    m["vecmath.suppress.calls_per_look"] = calls_per_unit("vecmath.suppress")
    m["router.route.us_per_look"] = per_unit("router.route", 1e3)
    m["retrieval.build_pool.us_per_call"] = per_call("retrieval.build_pool", 1e3)
    m["retrieval.retrieve_category.ms_per_look"] = per_unit("retrieval.retrieve_category", 1e6)
    name = "retrieval.retrieve_category"
    m["retrieval.pool_size_mean"] = ratio(name, "retrieval.pool_size")
    m["retrieval.both_share"] = ratio(name, "retrieval.both", "retrieval.pool_size")
    m["retrieval.part_branch_share"] = ratio(name, "retrieval.used_part")
    m["retrieval.residual_collapsed"] = ratio(name, "retrieval.collapsed")
    for op in ("filter_grid", "select_outfit", "verify", "compare_batch"):
        m[f"judge.{op}.calls_per_look"] = calls_per_unit(f"judge.{op}")
    m["judge.verify.pass_ratio"] = ratio("judge.verify", "judge.verify.pass")
    payload, a = count_of("judge.request", "judge.payload_bytes")
    m["judge.payload_bytes_per_look"] = payload / max(a.units, 1)
    for fn in ("filter_pools", "assemble_initial", "generate_candidates", "refine", "tournament"):
        m[f"assembly.{fn}.ms_per_look"] = per_unit(f"assembly.{fn}", 1e6)
    m["assembly.refine.calls_per_look"] = calls_per_unit("assembly.refine")
    m["assembly.edits_applied_ratio"] = ratio("assembly.apply_edit",
                                              "assembly.apply_edit.applied")
    m["pipeline.run_retrieval.ms_per_look"] = per_unit("pipeline.run_retrieval", 1e6)
    m["pipeline.run_assembly.ms_per_look"] = per_unit("pipeline.run_assembly", 1e6)
    m["trace.overhead_share"] = overhead
    looks = aggs[0]
    for stage, value in stage_ms.items():
        m[f"stage.{stage.replace('-', '_')}_ms"] = value
    for module in MODULES:
        m[f"{module}.self_share"] = looks.module_self_share(module)
    return m


# --- the run ------------------------------------------------------------------------------------


def run(args, lf, work: Path) -> dict:
    inputs = work / "inputs"
    truth = generate(args.workload, args.seed, inputs)
    tracer = Tracer() if args.trace else None
    missing = tracer.install() if tracer else []
    import numpy
    env = {"nproc": len(os.sched_getaffinity(0)),
           "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
           "python": platform.python_version(), "numpy": numpy.__version__}
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name in missing:
        print(f"missing layer {name}")

    stage_ms: dict[str, float] = {}
    interp_ms = 0.0
    overheads: list[float] = []
    if args.workload == "cli_cold":
        runner = CliCold(lf, inputs, truth, tracer, work)
        if tracer:
            # half the time as processes (stage times), half in process, traced
            setup = runner.setup(once=True)
            lat, wall, _ = closed_loop(runner, args.seconds / 2)
            stage_ms = {s: median(v) * 1e3 for s, v in runner.stage_s.items()}
            runner.in_process = True
            runner.stage_s = {s: [] for s in DEMO_STAGES}
            runner.setup(once=True)
            # new look ids and --out directories; prompts restart at 0
            _, _, overheads = closed_loop(runner, args.seconds / 2,
                                          first_look=len(lat) + 1000, paired=True)
            inproc = {s: median(v) * 1e3 for s, v in runner.stage_s.items()}
            interp_ms = median([stage_ms[s] - inproc[s] for s in DEMO_STAGES])
        else:
            setup = runner.setup()
            lat, wall, _ = closed_loop(runner, args.seconds)
            stage_ms = {s: median(v) * 1e3 for s, v in runner.stage_s.items()}
        peak_rss = runner.peak_rss_mb
    else:
        runner = InProcess(lf, inputs, truth, tracer)
        setup = runner.setup()
        # keep the preloaded inputs out of every full collection in a look
        gc.collect()
        gc.freeze()
        runner.look(-1, 0)  # warm-up look: checked, not timed
        lat, wall, overheads = closed_loop(runner, args.seconds, paired=tracer is not None)
        peak_rss = peak_rss_self_mb()
    if runner.checks.repeats == 0:  # every run checks one prompt twice
        runner.look(10_000, 0)

    if tracer:
        with tracer.scoped("demo", ROOT_SPAN):
            demo_ok, _ = demo_check(lf, work / "traced", processes=False)
        if args.workload != "cli_cold":
            ok, demo_stage_s = demo_check(lf, work / "processes", processes=True)
            demo_ok = demo_ok and ok
            stage_ms = {s: v * 1e3 for s, v in demo_stage_s.items()}
            # in-process stage times of the demo, from its traced cli.cmd_* spans
            demo = Aggregate(tracer, "demo")
            gaps = [stage_ms[s] - demo.total_ns[f"cli.cmd_{s.replace('-', '_')}"] / 1e6
                    for s in DEMO_STAGES]
            interp_ms = median(gaps)
        tracer.uninstall()
        WORK_ROOT.mkdir(exist_ok=True)
        tracer.write_jsonl(WORK_ROOT / f"spans-{args.workload}.jsonl")
    else:
        demo_ok, _ = demo_check(lf, work, processes=False)

    checks = runner.checks
    correct = checks.failed == 0 and demo_ok and bool(lat)
    for problem in checks.problems:
        print(f"check failed: {problem}")
    print(f"check demo look.json sha256 {'matches' if demo_ok else 'DIFFERS'}")
    print(f"check looks attempted={checks.attempted} failed={checks.failed} "
          f"failed_share={checks.failed / max(checks.attempted, 1):.4f}")

    n = len(lat)
    if tracer:
        metrics = layer_metrics(tracer, stage_ms, interp_ms, median(overheads))
        units = {name: layer_unit(name) for name in metrics}
        traced = Aggregate(tracer, "look").units
        for name, value in metrics.items():
            print(f"metric {name} = {value:.6g} {units[name]} (n={traced} traced looks)")
    else:
        tail_ms, pct = tail([x * 1e3 for x in lat]) if lat else (0.0, 0.0)
        pairs = max(checks.pairs, 1)
        metrics = {
            "setup_s": median(setup),
            "look_p50_ms": median(lat) * 1e3 if lat else 0.0,
            "look_tail_ms": tail_ms,
            "looks_per_s": n / wall if wall else 0.0,
            "peak_rss_mb": peak_rss,
            "planted_top1": checks.top1 / pairs,
            "planted_recall": checks.recall / pairs,
        }
        units = dict(END_TO_END)
        counts = {"setup_s": f"n={len(setup)} set-ups", "look_tail_ms": f"p{pct:.1f}, n={n} looks",
                  "planted_top1": f"n={checks.pairs} pairs", "planted_recall": f"n={checks.pairs} pairs"}
        for name, value in metrics.items():
            print(f"metric {name} = {value:.6g} {units[name]} ({counts.get(name, f'n={n} looks')})")
        for stage, value in stage_ms.items():
            samples = len(runner.stage_s[stage])
            print(f"metric stage.{stage.replace('-', '_')}_ms = {value:.6g} ms "
                  f"(median, n={samples} processes)")
    return {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


# unit of a per-layer metric, by the end of its name
LAYER_UNITS = (
    ("_ms", "ms"), (".ms", "ms"), ("ms_per_look", "ms"), ("ms_per_call", "ms"),
    ("us_per_look", "us"), ("us_per_call", "us"), ("records_per_s", "1/s"),
    ("bytes_per_look", "bytes"), ("share", "share"), ("ratio", "share"),
    ("residual_collapsed", "share"),
)


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in LAYER_UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:  # before numpy loads, here and in CLI processes
        os.environ[var] = nproc
    try:
        lf = import_lookforge()
    except ImportError as exc:
        print(f"perfbench: cannot import lookforge from {SRC}: {exc}", file=sys.stderr)
        return 2
    import logging
    logging.getLogger().addHandler(logging.NullHandler())  # keep warnings off stderr

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, lf, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
