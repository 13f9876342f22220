"""Error taxonomy shared across the pipeline.

Every error carries a stable ``code`` string (the class name without the
``Error`` suffix) so the CLI can emit machine-readable error documents
without maintaining a parallel mapping.
"""
from __future__ import annotations


class PipelineError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        name = type(self).__name__
        return name[: -len("Error")] if name.endswith("Error") else name


# --- vector math -----------------------------------------------------------

class ZeroVectorError(PipelineError):
    """Normalization of a vector with norm below the zero threshold."""


class NonFiniteVectorError(PipelineError):
    """A vector contains NaN or infinity."""


class DimensionMismatchError(PipelineError):
    """Operands disagree on embedding dimension."""


class DegenerateFusionError(PipelineError):
    """Fusion inputs cancel; the fused vector has no direction."""


# --- catalog / taxonomy ----------------------------------------------------

class UnknownCategoryError(PipelineError):
    """A category id is not declared in the taxonomy."""


class InvalidTaxonomyError(PipelineError):
    """The taxonomy file violates its own structural rules."""


# --- index directory -------------------------------------------------------

class SnapshotIoError(PipelineError):
    """An index file is missing, unreadable or structurally broken."""


class ChecksumMismatchError(PipelineError):
    """An index file, or a file it was built from, differs from its recorded digest."""


class VersionMismatchError(PipelineError):
    """An index was written by an incompatible format version."""


# --- routing / evidence ----------------------------------------------------

class NoViewsAvailableError(PipelineError):
    """No rendered views exist for a look that requires at least one."""


class MissingTextPriorError(PipelineError):
    """A routed category has no text prior embedding."""


# --- judge / assembly ------------------------------------------------------

class JudgeUnavailableError(PipelineError):
    """The judge or advisor failed, ran out of scripted responses, or sent
    an answer that does not parse; route catches it for the advisor."""


class MissingCoreCategoryError(PipelineError):
    """A required core category has no usable candidates."""


class BudgetInfeasibleError(PipelineError):
    """Candidate generation cannot satisfy caps and core requirements."""


# --- synthetic data --------------------------------------------------------

class InfeasibleSpecError(PipelineError):
    """A synthetic spec cannot produce the requested construction."""


class ScenarioConstructionFailedError(PipelineError):
    """Planted scenario resampling exhausted its retry budget."""
