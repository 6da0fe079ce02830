"""Exception types raised across the toolkit."""


class EumError(Exception):
    """Base class for all toolkit errors."""


class ZeroVector(EumError):
    """Vector norm too small to normalize (below 1e-12)."""


class DimensionMismatch(EumError):
    """Operands disagree on the embedding dimension."""


class EmptyBatch(EumError):
    """An operation that needs at least one element got none."""


class InvalidDimension(EumError):
    """Requested embedding dimension is not a positive integer."""


class BatchTooSmall(EumError):
    """Training forward pass needs at least 2 rows for batch statistics."""


class CacheMismatch(EumError):
    """Forward cache does not match the parameters or gradient shapes."""


class ShapeMismatch(EumError):
    """Gradient arrays do not line up with the parameters they update."""


class InsufficientIdentities(EumError):
    """Triplet sampling needs at least two identities."""


class MissingPairForIdentity(EumError):
    """An identity lacks the masked or unmasked records triplets require."""


class NonFiniteLoss(EumError):
    """A training iteration produced a NaN or infinite loss."""


class EmptyValidationSet(EumError):
    """No validation triplets could be built."""


class InvalidSpec(EumError):
    """Synthetic dataset spec violates its invariants."""


class MissingMaskedRecords(EumError):
    """Dataset lacks masked (or unmasked) records needed for the report."""


class EmptyScores(EumError):
    """Metric computation requires nonempty genuine and imposter arrays."""


class DegenerateDistributions(EumError):
    """Both score distributions have zero variance; separability undefined."""


class EmptySet(EumError):
    """Reference or probe collection is empty."""


class IoError(EumError):
    """Underlying file could not be read or written."""


class BadMagic(EumError):
    """File does not start with the expected magic tag."""


class VersionUnsupported(EumError):
    """File version is unknown to this reader."""


class CorruptRecord(EumError):
    """File is malformed; .offset is the byte offset of the bad record,
    layer or header field."""

    def __init__(self, path, what: str, offset: int):
        super().__init__(f"{path}: {what} (byte offset {offset})")
        self.offset = offset
