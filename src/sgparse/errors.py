"""Exception types shared across the package."""


class SgparseError(Exception):
    """Base class for all contract violations raised by this package."""


class AlignmentConflict(SgparseError):
    """Alignment spans overlap, fall out of bounds, or reference unknown nodes."""


class ArcConflict(SgparseError):
    """An arc set violates the single-head property or another arc invariant."""


class MalformedArcs(SgparseError):
    """Arcs imply contradictory node types, or CONT chains in both directions.

    Carries the offending token indices and the arcs that voted conflicting
    types, each once and sorted (or every CONT arc).  graph.to_node_centric_lenient resolves the
    same conflicts by dropping arcs instead of raising.
    """

    def __init__(self, message: str, tokens=(), arcs=()):
        super().__init__(message)
        self.tokens = tuple(tokens)
        self.arcs = tuple(arcs)


class IllegalAction(SgparseError):
    """A transition action was applied to a configuration that forbids it."""


class OracleStuck(SgparseError):
    """No zero-cost action exists, or the oracle's path ends without the gold
    arcs; they are unreachable (non-projective or corrupt)."""


class CorpusCorrupt(SgparseError):
    """Too large a fraction of corpus records failed to parse."""


class CheckpointCorrupt(SgparseError):
    """A checkpoint's header and payload do not describe one complete model."""


class LexiconCorrupt(SgparseError):
    """A synonym lexicon entry is empty or not a single word."""


class ParameterNonFinite(SgparseError):
    """A training update left a parameter tensor with an infinite or NaN value."""
