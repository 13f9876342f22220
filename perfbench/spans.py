"""Spans around lookforge's public functions, installed from outside.

Each wrapper replaces a module attribute at the place callers look it up:
a function imported by name into another module (``pipeline`` imports
``estimate_subspaces`` from ``synth``) is wrapped in the importing module,
and methods are wrapped on their class. Nothing under ``src/`` changes.
A target that no longer exists is reported as a missing layer.

A span records its layer name, the scope it ran in (``look-12``,
``setup-0``, ``demo``), its parent span and its start and end in
``perf_counter_ns``. Spans stay in memory and are written as JSONL when
the run ends. A recursive call folds into the outer span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module callers use, attribute path, layer name)
SPAN_TARGETS = (
    ("lookforge.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("lookforge.pipeline", "route", "router.route"),
    ("lookforge.pipeline", "run_retrieval", "pipeline.run_retrieval"),
    ("lookforge.pipeline", "build_indices", "index.build_indices"),
    ("lookforge.pipeline", "estimate_subspaces", "synth.estimate_subspaces"),
    ("lookforge.synth", "compute_category_subspace", "vecmath.compute_category_subspace"),
    ("lookforge.catalog", "AssetCatalog.embedding_matrix", "catalog.embedding_matrix"),
    ("lookforge.pipeline", "retrieve_category", "retrieval.retrieve_category"),
    ("lookforge.retrieval", "suppress", "vecmath.suppress"),
    ("lookforge.retrieval", "build_pool", "retrieval.build_pool"),
    ("lookforge.index", "CategoryIndex.search", "index.search"),
    ("lookforge.index", "CategoryIndex.load", "index.load"),
    ("lookforge.index", "CategoryIndex.save", "index.save"),
    ("lookforge.pipeline", "bundle_map", "pipeline.bundle_map"),
    ("lookforge.pipeline", "run_assembly", "pipeline.run_assembly"),
    ("lookforge.pipeline", "filter_pools", "assembly.filter_pools"),
    ("lookforge.pipeline", "assemble_initial", "assembly.assemble_initial"),
    ("lookforge.pipeline", "generate_candidates", "assembly.generate_candidates"),
    ("lookforge.assembly", "refine", "assembly.refine"),
    ("lookforge.pipeline", "tournament", "assembly.tournament"),
    ("lookforge.judge", "JudgeClient.filter_grid", "judge.filter_grid"),
    ("lookforge.judge", "JudgeClient.select_outfit", "judge.select_outfit"),
    ("lookforge.judge", "JudgeClient.verify", "judge.verify"),
    ("lookforge.judge", "JudgeClient.compare_batch", "judge.compare_batch"),
    ("lookforge.catalog", "ingest_catalog", "catalog.ingest_catalog"),
    ("lookforge.evidence", "load_evidence", "evidence.load_evidence"),
    ("lookforge.cli", "ingest_catalog", "catalog.ingest_catalog"),
    ("lookforge.cli", "load_evidence", "evidence.load_evidence"),
    ("lookforge.cli", "build_indices", "index.build_indices"),
    ("lookforge.cli", "route", "router.route"),
    ("lookforge.cli", "run_retrieval", "pipeline.run_retrieval"),
    ("lookforge.cli", "run_assembly", "pipeline.run_assembly"),
    ("lookforge.cli", "bundle_map", "pipeline.bundle_map"),
    ("lookforge.cli", "read_doc", "cli.read_doc"),
    ("lookforge.cli", "write_doc", "cli.write_doc"),
    ("lookforge.cli", "cmd_ingest", "cli.cmd_ingest"),
    ("lookforge.cli", "cmd_build_index", "cli.cmd_build_index"),
    ("lookforge.cli", "cmd_route", "cli.cmd_route"),
    ("lookforge.cli", "cmd_retrieve", "cli.cmd_retrieve"),
    ("lookforge.cli", "cmd_assemble", "cli.cmd_assemble"),
)

# Counted, not timed: too frequent or too small to be worth a span.
COUNT_TARGETS = (
    ("lookforge.assembly", "_apply_edit", "assembly.apply_edit"),
    ("lookforge.judge", "ScriptedSource.request", "judge.request"),
)

ROOT_SPAN = "bench.look"


def _count_search(counts, args, result):
    counts["index.search.rows"] += args[0].size


def _count_verify(counts, args, result):
    counts["judge.verify.pass"] += result.get("verdict") == "pass"


def _count_edit(counts, args, result):
    counts["assembly.apply_edit.applied"] += bool(result)




def _count_retrieval(counts, args, result):
    counts["retrieval.pool_size"] += len(result.pool)
    counts["retrieval.both"] += sum(c.source == "both" for c in result.pool)
    counts["retrieval.used_part"] += bool(result.used_part_evidence)
    counts["retrieval.collapsed"] += bool(result.residual_collapsed)


def _count_ingest(counts, args, result):
    counts["catalog.ingest_catalog.records"] += result[1].n_loaded


HOOKS = {
    "index.search": _count_search,
    "judge.verify": _count_verify,
    "assembly.apply_edit": _count_edit,
    "retrieval.retrieve_category": _count_retrieval,
    "catalog.ingest_catalog": _count_ingest,
}


def scope_kind(scope: str) -> str:
    """``look-12`` -> ``look``; ``demo`` -> ``demo``."""
    return scope.split("-", 1)[0]


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        # [name, scope, parent index, start ns, end ns]
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.scope = "none"
        self.missing: list[str] = []
        # judge payloads of the open scope, sized once it closes so that
        # serializing them adds to no span
        self._payloads: list = []
        self._stack: list[int] = []
        # (owner, attribute, original, wrapper) of every patched target
        self._patched: list[tuple[object, str, object, object]] = []

    # --- installation -------------------------------------------------------

    def install(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS) -> list[str]:
        for targets, timed in ((span_targets, True), (count_targets, False)):
            for module_name, path, layer in targets:
                try:
                    self._patch(importlib.import_module(module_name), path, layer, timed)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}.{path}")
        return self.missing

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, _ = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """The originals back in place, so what runs inside is untraced."""
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, wrapper in self._patched:
                setattr(owner, attr, wrapper)

    def _patch(self, module, path: str, layer: str, timed: bool) -> None:
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if not callable(fn):
            raise AttributeError(f"{path} is not callable")
        wrapped = self.wrap(layer, fn, timed=timed)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrapped)
        self._patched.append((owner, attr, raw, wrapped))
        setattr(owner, attr, wrapped)

    def wrap(self, name: str, fn, *, timed: bool = True):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)
        clock = time.perf_counter_ns

        def run_hook(args, result):
            counts = self.counts[self.scope]
            counts[f"{name}.calls"] += 1
            if name == "judge.request":
                self._payloads.append(args[2])
            elif hook is not None:
                hook(counts, args, result)

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                run_hook(args, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, self.scope, stack[-1] if stack else -1, clock(), 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = clock()
            run_hook(args, result)
            return result
        return traced

    # --- scopes ---------------------------------------------------------------

    @contextmanager
    def scoped(self, scope: str, root: str | None = None):
        """Attribute spans to ``scope``; ``root`` opens a parent span for them."""
        previous, self.scope = self.scope, scope
        idx = None
        if root is not None:
            idx = len(self.spans)
            self.spans.append([root, scope, -1, time.perf_counter_ns(), 0])
            self._stack.append(idx)
        try:
            yield
        finally:
            if idx is not None:
                self._stack.pop()
                self.spans[idx][4] = time.perf_counter_ns()
            self.counts[scope]["judge.payload_bytes"] += sum(
                len(json.dumps(p, sort_keys=True)) for p in self._payloads)
            self._payloads.clear()
            self.scope = previous

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, scope, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "look": scope,
                                     "parent": parent, "start_ns": start,
                                     "end_ns": end}) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, scope, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, scope, parent, start, end) in enumerate(spans):
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


class Aggregate:
    """Calls, total and self time per layer within one kind of scope."""

    def __init__(self, tracer: Tracer, kind: str) -> None:
        self.kind = kind
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.units = 0  # root spans: looks, set-ups or demo passes
        self.root_ns = 0
        selfs = self_times(tracer.spans)
        for (name, scope, parent, start, end), own in zip(tracer.spans, selfs):
            if scope_kind(scope) != kind:
                continue
            if name == ROOT_SPAN:
                self.units += 1
                self.root_ns += end - start
            else:
                self.calls[name] += 1
                self.total_ns[name] += end - start
            self.self_ns[name] += own
        for scope, counts in tracer.counts.items():
            if scope_kind(scope) == kind:
                for key, value in counts.items():
                    self.counts[key] += value

    def module_self_share(self, module: str) -> float:
        own = sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == module)
        return own / self.root_ns if self.root_ns else 0.0
