"""Catalog and taxonomy ingestion, exact per-category search, and the
index directory.

Catalogs arrive as JSONL, one asset per line:

    {"asset_id": "hat-001", "category_id": "hat", "embedding": [...],
     "title": "straw sun hat", "quality_flag": "curated", "bundle_id": "b1"}

``bundle_id`` is optional; ``title`` and ``quality_flag`` are validated
but not kept. Bad records, an embedding without a finite nonzero norm
among them, are skipped and reported per line; only a dimension mismatch
between valid records aborts the ingest. The catalog holds each
category's rows and their norms, and searches them with one flat scan
(:meth:`AssetCatalog.search`), plus the bundle map.

``build-index`` saves the catalog as ``catalog.npz`` (format version 2):
``meta``, JSON of each non-empty category's asset ids (JSON round-trips
any id; numpy strings drop a trailing NUL) and the bundle map, and
``rows_<i>``, the i-th category's float64 matrix. ``manifest.json`` holds
the sha256 of the npz and of the catalog and taxonomy files; loading
checks them all, so a stale index is never searched.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Container, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ChecksumMismatchError,
    DimensionMismatchError,
    InvalidTaxonomyError,
    NonFiniteVectorError,
    SnapshotIoError,
    UnknownCategoryError,
    VersionMismatchError,
    ZeroVectorError,
)
from .vecmath import ZERO_NORM_EPS, as_vector, normalize

logger = logging.getLogger(__name__)

# All views a look can be rendered from; order is the fallback preference.
VIEWS: tuple[str, ...] = ("front", "back", "left", "right")

QUALITY_FLAGS = frozenset({"curated", "unfiltered"})

TAXONOMY_SCHEMA_VERSION = 1
REQUIRED_ASSET_FIELDS = ("asset_id", "category_id", "embedding", "title", "quality_flag")

INDEX_FORMAT_VERSION = 2
INDEX_FILE = "catalog.npz"
MANIFEST_FILE = "manifest.json"


@dataclass(frozen=True)
class Taxonomy:
    """Declared categories plus the routing and assembly side tables.

    ``concept_map`` sends a surface concept phrase to the categories it may
    denote. ``exclusion_groups`` lists sets of mutually exclusive
    categories. ``view_map`` gives per-category preferred render views, and
    ``required_core`` names the categories every look must fill.
    """

    categories: tuple[str, ...]
    concept_map: dict[str, tuple[str, ...]] = field(default_factory=dict)
    exclusion_groups: tuple[tuple[str, ...], ...] = ()
    view_map: dict[str, tuple[str, ...]] = field(default_factory=dict)
    required_core: tuple[str, ...] = ()

    def validate(self) -> list[str]:
        """Return human-readable structural violations (empty when valid)."""
        problems = [] if self.categories else ["no categories declared"]
        declared = set(self.categories)
        lists = [
            ("categories", self.categories),
            *((f"concept {k!r}", v) for k, v in self.concept_map.items()),
            *((f"exclusion group {list(g)}", g) for g in self.exclusion_groups),
            ("view map", tuple(self.view_map)),
            ("required core", self.required_core),
        ]
        for name, ids in lists:
            if len(set(ids)) != len(ids):
                problems.append(f"duplicate category id in {name}")
            problems += [f"{name} references unknown category {c!r}"
                         for c in ids if c not in declared]
        problems += [f"concept {k!r} maps to no categories"
                     for k, v in self.concept_map.items() if not v]
        for group in self.exclusion_groups:
            if len(group) < 2:
                problems.append(f"exclusion group {list(group)} has fewer than 2 members")
            core = [c for c in group if c in self.required_core]
            if len(core) > 1:  # no look could hold them all
                problems.append(f"exclusion group {list(group)} holds required core {core}")
        problems += [f"view map for {cat!r} lists unknown view {v!r}"
                     for cat, views in self.view_map.items() for v in views if v not in VIEWS]
        return problems

    def to_dict(self) -> dict:
        return {
            "schema_version": TAXONOMY_SCHEMA_VERSION,
            "categories": list(self.categories),
            "concept_map": {k: list(v) for k, v in self.concept_map.items()},
            "exclusion_groups": [list(g) for g in self.exclusion_groups],
            "view_map": {k: list(v) for k, v in self.view_map.items()},
            "required_core": list(self.required_core),
        }

    @classmethod
    def from_dict(cls, doc: dict, name: str) -> Taxonomy:
        """Parse and validate the taxonomy ``name``; refusals are InvalidTaxonomyError."""
        try:
            check_doc(doc, TAXONOMY_SCHEMA_VERSION, name)
            maps = {
                key: {k: strings(v, at(name, key, k))
                      for k, v in check(doc.get(key, {}), dict, at(name, key)).items()}
                for key in ("concept_map", "view_map")
            }
            groups = check(doc.get("exclusion_groups", []), list, at(name, "exclusion_groups"))
            tax = cls(
                categories=need(doc, "categories", strings, name),
                exclusion_groups=tuple(
                    strings(g, at(name, "exclusion_groups", i)) for i, g in enumerate(groups)
                ),
                required_core=strings(doc.get("required_core", []), at(name, "required_core")),
                **maps,
            )
        except ValueError as exc:
            raise InvalidTaxonomyError(str(exc)) from exc
        problems = tax.validate()
        if problems:
            raise InvalidTaxonomyError(f"{name}: " + "; ".join(problems))
        return tax


def excluded_by(
    category_id: str,
    chosen: Container[str],
    exclusion_groups: tuple[tuple[str, ...], ...],
) -> str | None:
    """The first chosen category that shares an exclusion group with
    ``category_id``, or None when it may join the chosen ones."""
    for group in exclusion_groups:
        if category_id in group:
            for other in group:
                if other != category_id and other in chosen:
                    return other
    return None


def read_doc(path: str | Path) -> dict:
    """Read one JSON document; every JSON file the package reads goes through here."""
    return parse_doc(Path(path).read_bytes(), path)


def parse_doc(raw: bytes, path: str | Path) -> dict:
    """Parse JSON read from ``path``; a decode error's message starts with the path."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None


# Shape checks for every stage input: a refusal is a ValueError naming the document and
# key path ("evidence.json: parts[0].status is missing"). Optional keys: check(doc.get(...)).

_KINDS = {str: "a string", bool: "true or false", int: "an integer", float: "a number",
          list: "a list", dict: "an object", type(None): "null"}


def at(where: str, *keys: str | int) -> str:
    """The path of ``keys`` below ``where``, a document or a path in one:
    ``at("evidence.json", "parts", 0, "status")`` is ``evidence.json: parts[0].status``."""
    for key in keys:
        where += f"[{key}]" if isinstance(key, int) else f"{'.' if ': ' in where else ': '}{key}"
    return where


def check(value, kind, path: str):
    """``value`` if it is a ``kind``, a type or tuple of types (a bool is no
    number: ``true`` is never 1), else a ValueError naming ``path``."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool)):
        return value
    wanted = " or ".join(_KINDS[k] for k in kinds if not (k is int and float in kinds))
    raise ValueError(f"{path} must be {wanted}, got {value!r}")


def strings(value, path: str) -> tuple[str, ...]:
    """A list of strings as a tuple; a bare string is refused, not read as its characters."""
    for i, item in enumerate(check(value, list, path)):
        check(item, str, at(path, i))
    return tuple(value)


def need(doc: dict, key: str, kind, where: str):
    """The required ``doc[key]``, checked by ``kind`` (``strings`` or a :func:`check` kind);
    ``where`` is the path of ``doc``."""
    path = at(where, key)
    if key not in doc:
        raise ValueError(f"{path} is missing")
    return strings(doc[key], path) if kind is strings else check(doc[key], kind, path)


def check_doc(doc, supported: int, name: str) -> dict:
    """``doc`` if it is an object whose ``schema_version`` is ``supported``
    (a document without one has it), else a ValueError naming ``name``."""
    version = check(doc, dict, name).get("schema_version", supported)
    if check(version, int, at(name, "schema_version")) != supported:
        raise ValueError(f"{name}: unsupported schema version {version!r}")
    return doc


def write_doc(path: str | Path, doc: dict) -> None:
    """Write one JSON document: indent 2, sorted keys, trailing newline.

    Every JSON file the package writes goes through here, so identical
    documents are byte-identical on disk (output documents embed the
    sha256 of the config file this writes). A document that fails to
    serialize leaves any previous file in place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    replace_file(path, lambda fh: fh.write(text.encode("utf-8")))


def replace_file(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Call ``write`` on a temp file beside ``path``, then ``os.replace`` it,
    so a reader finds the old file or the new one, never a partial write."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_taxonomy(path: str | Path) -> Taxonomy:
    return Taxonomy.from_dict(read_doc(path), Path(path).name)


def save_taxonomy(tax: Taxonomy, path: str | Path) -> None:
    write_doc(path, tax.to_dict())


@dataclass(frozen=True)
class RejectedRecord:
    line_no: int
    reason: str
    detail: str


@dataclass
class IngestReport:
    n_loaded: int = 0
    rejections: list[RejectedRecord] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.rejections)

    def reject(self, line_no: int, reason: str, detail: str) -> None:
        self.rejections.append(RejectedRecord(line_no, reason, detail))
        logger.warning("catalog line %d rejected (%s): %s", line_no, reason, detail)

    def to_dict(self, catalog: AssetCatalog) -> dict:
        """The ingest_report.json body for this report and the catalog it loaded."""
        return {
            "n_loaded": self.n_loaded,
            "n_rejected": self.n_rejected,
            "rejections": [asdict(r) for r in self.rejections],
            "dimension": catalog.dimension,
            "categories": {
                c: len(catalog.embedding_matrix(c)[0]) for c in catalog.taxonomy.categories
            },
        }


class AssetCatalog:
    """Each category's asset ids in ascending order, one read-only float64
    n x d matrix whose rows follow them and each row's norm, plus
    ``bundles`` (asset id -> bundle id, where one exists).

    ``rows`` maps a category id to (asset ids, matrix with one row per id)
    in any row order; categories left out are empty. The catalog owns each
    matrix and keeps one already in id order without a copy, as a
    read-only view: the caller must not write that array afterwards,
    because the row norms are computed once. Raises
    :class:`UnknownCategoryError` for a category outside the taxonomy,
    :class:`DimensionMismatchError` when a matrix does not fit its ids or
    the first matrix's dimension, ``ValueError`` for a repeated id, and
    :class:`NonFiniteVectorError` or :class:`ZeroVectorError` for a row
    without a finite nonzero norm.
    """

    def __init__(
        self,
        taxonomy: Taxonomy,
        rows: Mapping[str, tuple[Sequence[str], np.ndarray]],
        bundles: Mapping[str, str] | None = None,
    ) -> None:
        unknown = sorted(set(rows) - set(taxonomy.categories))
        if unknown:
            raise UnknownCategoryError(f"unknown category {unknown[0]!r}")
        self.taxonomy = taxonomy
        self.bundles = dict(bundles or {})
        self.dimension = next((int(np.shape(m)[1]) for _, m in rows.values()), None)
        self._rows: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
        self._norms: dict[str, np.ndarray] = {}
        seen: set[str] = set()
        for cid in taxonomy.categories:
            ids, matrix = rows.get(cid, ((), np.empty((0, self.dimension or 0))))
            matrix = np.asarray(matrix, dtype=np.float64)
            if matrix.shape != (len(ids), self.dimension or 0):
                raise DimensionMismatchError(
                    f"category {cid!r} has {len(ids)} ids and a matrix of shape "
                    f"{matrix.shape}; catalog dimension is {self.dimension}"
                )
            if len(set(ids)) != len(ids) or not seen.isdisjoint(ids):
                raise ValueError(f"duplicate asset id in category {cid!r}")
            seen.update(ids)
            order = sorted(range(len(ids)), key=ids.__getitem__)
            matrix = matrix.view() if order == sorted(order) else matrix[order]
            matrix.flags.writeable = False
            self._rows[cid] = (tuple(ids[k] for k in order), matrix)
            # each row's norm, computed once; einsum makes no n x d temporary
            norms = self._norms[cid] = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
            if not np.all(np.isfinite(norms)):
                raise NonFiniteVectorError(f"a {cid!r} row's norm is not finite")
            if np.any(norms <= ZERO_NORM_EPS):
                raise ZeroVectorError(f"a {cid!r} row's norm is at most {ZERO_NORM_EPS}")

    def embedding_matrix(self, category_id: str) -> tuple[tuple[str, ...], np.ndarray]:
        """(asset ids, read-only embedding matrix) for a category, in
        asset-id order; the stored values, not copies."""
        if category_id not in self._rows:
            raise UnknownCategoryError(f"unknown category {category_id!r}")
        return self._rows[category_id]

    def search(self, category_id: str, query, k: int) -> list[tuple[str, float]]:
        """The category's top-``k`` (asset id, cosine) pairs against the
        normalized query: a row scores ``(row . q) / norm``.

        Ties break toward the lower asset id. ``k`` larger than the
        category returns everything; an empty category returns nothing.
        """
        ids, matrix = self.embedding_matrix(category_id)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        q = normalize(as_vector(query, d=matrix.shape[1]))
        # not `matrix @ q`: blocked gemv kernels give identical rows
        # position-dependent scores, breaking the id tie-break
        scores = (matrix * q).sum(axis=1) / self._norms[category_id]
        order = np.argsort(-scores, kind="stable")[:k]
        return [(ids[i], float(scores[i])) for i in order]


def _parse_record(
    doc: dict, taxonomy: Taxonomy, dimension: int | None
) -> tuple[str, str, np.ndarray, str | None]:
    """Validate one parsed JSONL record into (asset id, category id,
    embedding, bundle id). Raises ValueError with a reason tag."""
    for field_name in REQUIRED_ASSET_FIELDS:
        if field_name not in doc:
            raise ValueError(f"missing_field: {field_name}")
    asset_id = doc["asset_id"]
    category_id = doc["category_id"]
    if not isinstance(asset_id, str) or not asset_id:
        raise ValueError("missing_field: asset_id must be a non-empty string")
    if category_id not in taxonomy.categories:
        raise ValueError(f"unknown_category: {category_id!r}")
    flag = doc["quality_flag"]
    if flag not in QUALITY_FLAGS:
        raise ValueError(f"invalid_quality_flag: {flag!r}")
    raw = doc["embedding"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("bad_embedding: embedding must be a non-empty list")
    try:
        emb = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad_embedding: {exc}") from exc
    # the catalog's row rule, computed the same way; a NaN norm fails too
    norm = math.sqrt(np.einsum("i,i", emb, emb)) if emb.ndim == 1 else math.nan
    if not ZERO_NORM_EPS < norm < math.inf:
        raise ValueError("bad_embedding: must be a 1-D vector with a finite nonzero norm")
    if dimension is not None and emb.shape[0] != dimension:
        # Dimension disagreement is not a per-record defect.
        raise DimensionMismatchError(
            f"asset {asset_id!r} has dimension {emb.shape[0]}, catalog has {dimension}"
        )
    bundle = doc.get("bundle_id")
    if bundle is not None and not isinstance(bundle, str):
        raise ValueError("bad_bundle_id: bundle_id must be a string when present")
    return asset_id, category_id, emb, bundle


def ingest_catalog(
    source: str | Path | Iterable[str],
    taxonomy: Taxonomy,
) -> tuple[AssetCatalog, IngestReport]:
    """Stream a JSONL catalog into memory, one line at a time.

    Returns the catalog plus a report of skipped lines. Raises
    :class:`DimensionMismatchError` if valid records disagree on embedding
    dimension (the first valid record fixes it). Each category's rows go
    straight into a matrix that doubles when full, so neither the file
    nor per-row arrays are held.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return ingest_catalog(fh, taxonomy)

    report = IngestReport()
    dimension: int | None = None
    ids: dict[str, list[str]] = {}
    buffers: dict[str, np.ndarray] = {}
    bundles: dict[str, str] = {}
    seen: set[str] = set()
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            report.reject(line_no, "malformed_json", str(exc))
            continue
        if not isinstance(doc, dict):
            report.reject(line_no, "malformed_json", "record is not an object")
            continue
        try:
            asset_id, category_id, emb, bundle = _parse_record(doc, taxonomy, dimension)
        except DimensionMismatchError:
            raise
        except ValueError as exc:
            reason, _, detail = str(exc).partition(": ")
            report.reject(line_no, reason, detail)
            continue
        if asset_id in seen:
            report.reject(line_no, "duplicate_asset_id", asset_id)
            continue
        seen.add(asset_id)
        dimension = emb.shape[0]
        cat_ids = ids.setdefault(category_id, [])
        n = len(cat_ids)
        buf = buffers.get(category_id)
        if buf is None or n == len(buf):
            grown = np.empty((max(2 * n, 64), dimension), dtype=np.float64)
            if buf is not None:
                grown[:n] = buf
            buffers[category_id] = buf = grown
        buf[n] = emb
        cat_ids.append(asset_id)
        if bundle is not None:
            bundles[asset_id] = bundle
        report.n_loaded += 1
    rows = {cid: (cat_ids, buffers[cid][: len(cat_ids)]) for cid, cat_ids in ids.items()}
    return AssetCatalog(taxonomy, rows, bundles), report


def _sha256(fh) -> str:
    """Hex sha256 of an open binary file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        digest.update(chunk)
    return digest.hexdigest()


def _source_sha256(sources: Mapping[str, str | Path]) -> dict[str, str]:
    digests = {}
    for name, path in sorted(sources.items()):
        with open(path, "rb") as fh:
            digests[name] = _sha256(fh)
    return digests


def save_index_dir(
    catalog: AssetCatalog, index_dir: str | Path, sources: Mapping[str, str | Path]
) -> dict:
    """Write ``catalog`` to ``index_dir/catalog.npz``; returns the manifest
    body, which records the npz's digest and that of each named source file."""
    categories = [c for c in catalog.taxonomy.categories if catalog.embedding_matrix(c)[0]]
    meta = {
        "categories": [[c, list(catalog.embedding_matrix(c)[0])] for c in categories],
        "bundles": dict(sorted(catalog.bundles.items())),
    }
    arrays = {f"rows_{i}": catalog.embedding_matrix(c)[1] for i, c in enumerate(categories)}
    meta_bytes = np.frombuffer(json.dumps(meta).encode("ascii"), np.uint8)
    index_dir = Path(index_dir)
    index_dir.mkdir(parents=True, exist_ok=True)
    path = index_dir / INDEX_FILE
    replace_file(path, lambda fh: np.savez(fh, meta=meta_bytes, **arrays))
    with open(path, "rb") as fh:
        index_sha256 = _sha256(fh)
    return {
        "format_version": INDEX_FORMAT_VERSION,
        "index_sha256": index_sha256,
        "source_sha256": _source_sha256(sources),
    }


def load_index_dir(
    index_dir: str | Path, taxonomy: Taxonomy, sources: Mapping[str, str | Path]
) -> AssetCatalog:
    """The catalog ``save_index_dir`` wrote. A missing or malformed manifest
    or npz raises :class:`SnapshotIoError`, another format version
    :class:`VersionMismatchError`, and a source file or npz whose digest
    differs from the manifest's :class:`ChecksumMismatchError`."""
    index_dir = Path(index_dir)
    manifest_path = index_dir / MANIFEST_FILE
    try:
        manifest = read_doc(manifest_path)
        version = manifest.get("format_version")
    except (OSError, ValueError, AttributeError) as exc:
        raise SnapshotIoError(f"cannot read {manifest_path}: {exc}; run build-index") from exc
    if version != INDEX_FORMAT_VERSION:
        raise VersionMismatchError(
            f"{manifest_path} has index format version {version}, supported version "
            f"{INDEX_FORMAT_VERSION}; run build-index"
        )
    recorded = manifest.get("source_sha256")
    for name, digest in _source_sha256(sources).items():
        if not isinstance(recorded, dict) or recorded.get(name) != digest:
            raise ChecksumMismatchError(
                f"{name} file {sources[name]} changed since the index was built; run build-index"
            )
    path = index_dir / INDEX_FILE
    try:
        with open(path, "rb") as fh:
            if _sha256(fh) != manifest.get("index_sha256"):
                raise ChecksumMismatchError(f"{path} failed checksum verification")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                meta = json.loads(npz["meta"].tobytes())
                cats = meta["categories"]
                rows = {cid: (ids, npz[f"rows_{i}"]) for i, (cid, ids) in enumerate(cats)}
                bundles = dict(meta["bundles"])
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise SnapshotIoError(f"cannot read {path}: {exc}; run build-index") from exc
    return AssetCatalog(taxonomy, rows, bundles)
