"""Exception types shared across the package."""


class SgparseError(Exception):
    """Base class for all contract violations raised by this package."""


class AlignmentConflict(SgparseError):
    """Alignment spans overlap, fall out of bounds, or reference unknown nodes."""


class ArcConflict(SgparseError):
    """An arc set violates the single-head property or another arc invariant."""


class MalformedArcs(SgparseError):
    """Arcs imply contradictory node types.

    Carries the offending token indices and the arcs that voted conflicting
    types, so callers can drop arcs deterministically and retry.
    """

    def __init__(self, message: str, tokens=(), arcs=()):
        super().__init__(message)
        self.tokens = tuple(tokens)
        self.arcs = tuple(arcs)


class IllegalAction(SgparseError):
    """A transition action was applied to a configuration that forbids it."""


class OracleStuck(SgparseError):
    """No zero-cost action exists; the gold arcs are unreachable (non-projective
    or corrupt) from the current configuration."""


class CorpusCorrupt(SgparseError):
    """Too large a fraction of corpus records failed to parse."""


class CheckpointCorrupt(SgparseError):
    """A checkpoint's header and payload do not describe one complete model."""


class LexiconCorrupt(SgparseError):
    """A synonym lexicon line holds a word or synonym that is not a single word."""


class ParameterNonFinite(SgparseError):
    """A training update left a parameter tensor with an infinite or NaN value."""
