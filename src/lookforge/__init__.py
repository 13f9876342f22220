"""Scaffold-conditioned retrieval and judge-verified assembly for avatar catalogs.

The package is organized around a small pipeline:

- :mod:`lookforge.vecmath` -- embedding normalization, category subspaces,
  cross-category suppression, and weighted fusion.
- :mod:`lookforge.catalog` -- catalog / taxonomy ingestion and validation,
  exact per-category cosine search, and the checksummed index directory
  that carries an ingested catalog to ``retrieve``.
- :mod:`lookforge.router` -- prompt-to-category routing and exclusion
  resolution.
- :mod:`lookforge.evidence` -- per-part visual evidence and text priors.
- :mod:`lookforge.retrieval` -- the two retrieval branches and pooling.
- :mod:`lookforge.judge` -- the one judge and advisor client, over scripted
  or HTTP sources.
- :mod:`lookforge.assembly` -- gating, look assembly, refinement, tournament.
- :mod:`lookforge.synth` -- synthetic catalogs with planted ground truth.
- :mod:`lookforge.evalsuite` -- ablation metrics over planted scenarios.
- :mod:`lookforge.pipeline` -- end-to-end orchestration.
- :mod:`lookforge.cli` -- the ``lookforge`` command line tool.
"""

__version__ = "0.1.0"
