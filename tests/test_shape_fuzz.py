"""Shape fuzz: every key of every stage input document, wrong-typed or deleted.

In each of the seven documents the stages read (run config, taxonomy,
prompt, evidence, judge script, plan.json and pools.json of the seed-0
demo bundle), every key, and the first element of every list, is replaced
by a value of each other JSON type, then deleted. Each case runs in
process through the stages that read the document, via the CLI's parser
and command functions, so the exception type stays visible. A case may
end in a ``PipelineError`` (an ``InvalidTaxonomyError`` naming the
document), or in a ``ValueError`` whose message names the document and
the key path; one that exits 0 must match an ``ACCEPTED`` row, which says
why. Anything else fails the document's test, and so does a row no case
needs.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import shutil

import pytest

from lookforge.cli import ENV_JUDGE_URL, main, make_parser
from lookforge.errors import InvalidTaxonomyError, PipelineError

# the stages that read each document, in the order they run
STAGES = {
    "config.json": ("route", "retrieve", "assemble"),
    "taxonomy.json": ("route", "assemble"),
    "prompt.json": ("route",),
    "evidence.json": ("retrieve",),
    "judge.json": ("assemble",),
    "plan.json": ("retrieve",),
    "pools.json": ("assemble",),
}
STAGE_OUTPUTS = ("plan.json", "pools.json")

# one value of each JSON type; a key gets every one of another type
VALUES = (None, True, 7, "x", [], {})
DELETE = object()
EMBEDDING_ELEMENT = re.compile(r"(views|text_priors)\.\w+\[0\]|parts\[0\]\.embedding\[0\]")

# (document, key path pattern, mutations, reason): the cases that may exit
# 0. In a pattern ``*`` matches any characters; mutations are the labels
# ``deleted``, ``null``, ``true``, ``7``, ``"x"``, ``[]`` and ``{}``, or
# ``*`` for all of them.
DEFAULTED = "an optional key was deleted and its default applies"
UNREAD = "no stage reads this key"
UNROUTED = "the text prior belongs to a category that was not routed"
EMBEDDED_BOOL = (
    "a boolean inside an embedding reads as 0 or 1; checking each element in "
    "Python would loop over every vector of every evidence read"
)
SHORTER = "the list lost an element and is still well formed"
ACCEPTED = (
    ("config.json", "seed", "*", UNREAD),
    ("config.json", "schema_version", "deleted", DEFAULTED),
    ("config.json", "paths.index_dir", "deleted", DEFAULTED),
    ("config.json", "paths.output_dir", "deleted", DEFAULTED),
    ("config.json", "retrieval.*", "deleted", DEFAULTED),
    ("config.json", "budget.*", "deleted", DEFAULTED),
    ("config.json", "subspace.*", "deleted", DEFAULTED),
    ("config.json", "retrieval", "deleted", DEFAULTED),
    ("config.json", "budget", "deleted", DEFAULTED),
    ("config.json", "subspace", "deleted", DEFAULTED),
    ("config.json", "subspace.rank", "7", "7 is a valid fixed rank"),
    ("config.json", "body_category", "deleted null", "null, the default, means no body category"),
    ("config.json", "judge", "deleted", "the default judge is passthrough"),
    ("config.json", "advisor", "deleted", DEFAULTED),
    ("taxonomy.json", "schema_version", "deleted", DEFAULTED),
    ("taxonomy.json", "view_map", "deleted", DEFAULTED),
    ("taxonomy.json", "concept_map", "deleted", DEFAULTED),
    ("taxonomy.json", "view_map.*", "deleted", SHORTER),
    ("taxonomy.json", "concept_map.*", "deleted", SHORTER),
    ("taxonomy.json", "concept_map.hoodie[0]", "deleted", SHORTER),
    ("taxonomy.json", "exclusion_groups", "deleted", DEFAULTED),
    ("taxonomy.json", "exclusion_groups[0]", "deleted", SHORTER),
    ("taxonomy.json", "required_core", "deleted", DEFAULTED),
    ("taxonomy.json", "required_core[0]", "deleted", SHORTER),
    ("prompt.json", "schema_version", "deleted", DEFAULTED),
    ("prompt.json", "text", "deleted", DEFAULTED),
    ("prompt.json", "concepts", "deleted", DEFAULTED),
    ("prompt.json", "concepts[0]", "deleted", SHORTER),
    ("prompt.json", "concepts[0].modifiers", "deleted", DEFAULTED),
    ("prompt.json", "concepts[0].modifiers[0]", "deleted", SHORTER),
    ("evidence.json", "schema_version", "deleted", DEFAULTED),
    ("evidence.json", "views.*", "deleted", "retrieval falls back to another view, with a warning"),
    ("evidence.json", "views.*[0]", "true", EMBEDDED_BOOL),
    ("evidence.json", "parts", "deleted", DEFAULTED),
    ("evidence.json", "parts[0]", "deleted", SHORTER),
    ("evidence.json", "parts[0].embedding", "deleted", DEFAULTED),
    ("evidence.json", "text_priors.sweater", "deleted", UNROUTED),
    ("evidence.json", "text_priors.*[0]", "true", EMBEDDED_BOOL),
    ("judge.json", "select_outfit[0].select", "{}",
     "an empty outfit selection is an answer; assembly fills the required core itself"),
    ("plan.json", "schema_version", "deleted", DEFAULTED),
    ("plan.json", "config_sha256", "*", UNREAD),
    ("plan.json", "plan.provenance*", "*", UNREAD),
    ("plan.json", "plan.resolved_exclusions*", "*", UNREAD),
    ("plan.json", "plan.warnings", "*", UNREAD),
    ("plan.json", "plan.target_categories[0]", "deleted", SHORTER),
    ("pools.json", "schema_version", "deleted", DEFAULTED),
    ("pools.json", "config_sha256", "*", UNREAD),
    ("pools.json", "pools.*.used_part_evidence", "*", UNREAD),
    ("pools.json", "pools.*.residual_collapsed", "*", UNREAD),
    ("pools.json", "pools.*.source_view", "*", UNREAD),
    ("pools.json", "pools.*.warnings", "*", UNREAD),
    ("pools.json", "pools.*.pool[0]", "deleted", SHORTER),
    ("pools.json", "pools.*.pool[0].bundle_id", 'null "x"', "any string, or null, is a bundle id"),
    ("pools.json", "pools.jacket", "deleted",
     "pools.json lacks a routed category; refusing that needs the routed "
     "categories recorded in pools.json (ROADMAP item 19)"),
    ("pools.json", "pools.pants", "deleted",
     "pools.json lacks a routed category; refusing that needs the routed "
     "categories recorded in pools.json (ROADMAP item 19)"),
)


def json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def key_path(keys) -> str:
    """``("parts", 0, "category_id")`` -> ``parts[0].category_id``."""
    out = ""
    for key in keys:
        out += f"[{key}]" if isinstance(key, int) else f"{'.' if out else ''}{key}"
    return out


def mutated(doc, keys, new):
    """A copy of ``doc`` with the value at ``keys`` replaced by ``new``, or
    deleted when ``new`` is DELETE."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if new is DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = new
    return doc


def cases(doc):
    """(key path, mutation label, mutated document) for every key of
    ``doc`` and the first element of every list in it."""

    def walk(node, keys):
        if isinstance(node, dict):
            children = list(node.items())
        elif isinstance(node, list) and node:
            children = [(0, node[0])]
        else:
            return
        for key, value in children:
            at = (*keys, key)
            for new in [v for v in VALUES if json_type(v) != json_type(value)] + [DELETE]:
                label = "deleted" if new is DELETE else json.dumps(new)
                yield key_path(at), label, mutated(doc, at, new)
            yield from walk(value, at)

    yield from walk(doc, ())


def run_stages(work, document):
    """Run the stages that read ``document`` on the bundle in ``work``;
    the first exception propagates."""
    for stage in STAGES[document]:
        args = make_parser().parse_args(
            [stage, "--config", str(work / "config.json"), "--out", str(work / "out")]
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert args.func(args) == 0


def names(message: str, document: str, path: str) -> bool:
    """Whether ``message`` names the document and the key path; an element
    of an embedding may be named by its embedding, which numpy converts."""
    if document == "evidence.json" and EMBEDDING_ELEMENT.fullmatch(path):
        path = path.removesuffix("[0]")
    return document in message and path in message


def fuzz(demo, work, document) -> list[tuple[str, str, str]]:
    """(key path, mutation, outcome) of every case of ``document``. The
    outcome is ``exit 0``, ``refused``, or the exception type and message
    of a case that ended in anything else."""
    stage_output = document in STAGE_OUTPUTS
    target = work / ("out" if stage_output else "") / document
    original = json.loads((demo / ("output" if stage_output else "") / document).read_text())
    results = []
    for path, label, doc in cases(original):
        for name in STAGE_OUTPUTS:
            shutil.copyfile(demo / "output" / name, work / "out" / name)
        target.write_text(json.dumps(doc))
        try:
            run_stages(work, document)
            outcome = "exit 0"
        except InvalidTaxonomyError as exc:  # a broken rule may span keys
            outcome = "refused" if document in str(exc) else f"InvalidTaxonomyError: {exc}"
        except PipelineError:
            outcome = "refused"
        except ValueError as exc:
            outcome = "refused" if names(str(exc), document, path) else f"ValueError: {exc}"
        except Exception as exc:  # noqa: BLE001 - every other type is a finding
            outcome = f"{type(exc).__name__}: {exc}"
        results.append((path, label, outcome))
    target.write_text(json.dumps(original))
    return results


def accepted_by(document, path, label):
    """The ACCEPTED rows that cover one case."""
    return [
        row for row in ACCEPTED
        if row[0] == document
        and re.fullmatch(re.escape(row[1]).replace(r"\*", ".*"), path)
        and (row[2] == "*" or label in row[2].split())
    ]


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The seed-0 demo bundle after all five stage commands."""
    root = tmp_path_factory.mktemp("demo")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(root), "--seed", "0"]) == 0
        for command in ("ingest", "build-index", "route", "retrieve", "assemble"):
            assert main([command, "--config", str(root / "config.json")]) == 0, command
    return root


@pytest.mark.parametrize("document", list(STAGES))
def test_shape_fuzz(demo, tmp_path, monkeypatch, document):
    monkeypatch.delenv(ENV_JUDGE_URL, raising=False)
    work = tmp_path / "work"
    shutil.copytree(demo, work)
    (work / "out").mkdir()
    results = fuzz(demo, work, document)
    assert results
    failures = [
        f"{path} {label}: {outcome}"
        for path, label, outcome in results
        if outcome not in ("exit 0", "refused")
    ]
    unlisted = [
        f"{path} {label}"
        for path, label, outcome in results
        if outcome == "exit 0" and not accepted_by(document, path, label)
    ]
    used = {
        row for path, label, outcome in results if outcome == "exit 0"
        for row in accepted_by(document, path, label)
    }
    unused = [row[1:3] for row in ACCEPTED if row[0] == document and row not in used]
    assert failures == [], "cases that end in an unchecked error"
    assert unlisted == [], "cases that exit 0 without an ACCEPTED row"
    assert unused == [], "ACCEPTED rows that no case needs"
