"""Exception types raised across the toolkit.

Every error is a ``ValueError`` subclass so callers that don't care about
the precise failure mode can catch the usual thing.  The CLI maps these
onto its exit-code contract (see ``toph.cli``).
"""


class TophError(ValueError):
    """Base class for all toolkit errors."""


# --- distribution construction / math -----------------------------------

class EmptyInput(TophError):
    pass


class NegativeProbability(TophError):
    pass


class NormalizationOutOfTolerance(TophError):
    pass


class NonFiniteValue(TophError):
    pass


class NonPositiveTemperature(TophError):
    pass


class EmptySubset(TophError):
    pass


class ZeroMassSubset(TophError):
    pass


class IndexOutOfRange(TophError):
    pass


class DimensionMismatch(TophError):
    pass


class GammaOutOfRange(TophError):
    pass


# --- truncation configs ---------------------------------------------------

class AlphaOutOfRange(TophError):
    pass


class ZeroK(TophError):
    pass


class NucleusOutOfRange(TophError):
    pass


class PBaseOutOfRange(TophError):
    pass


class EtaOutOfRange(TophError):
    pass


# --- exhaustive oracle ----------------------------------------------------

class VocabularyTooLarge(TophError):
    pass


# --- hardness pipeline ----------------------------------------------------

class WrongMass(TophError):
    pass


class TooManyHeavyItems(TophError):
    pass


# --- dataset I/O ----------------------------------------------------------

class MalformedRecord(TophError):
    """A bad input record; ``line_number`` is None when the whole file is bad."""

    def __init__(self, line_number: int | None, reason: str):
        super().__init__(reason if line_number is None else f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class MixedSchema(TophError):
    pass


class InvalidParameters(TophError):
    pass
