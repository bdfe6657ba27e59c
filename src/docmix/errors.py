"""Exception types shared across the package."""


class DocmixError(Exception):
    """Base class for errors raised by docmix."""


class ParseError(DocmixError, ValueError):
    """Malformed input text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyVocabularyError(DocmixError):
    """Pruning removed every word from the vocabulary."""


class FormatError(DocmixError):
    """A persisted payload is unreadable, truncated, or has the wrong version."""


class InfeasibleFloorError(DocmixError, ValueError):
    """The density floor cannot be satisfied (num_words * epsilon > 1)."""


class DegenerateFitError(DocmixError):
    """Every mixture component was annihilated."""


class NumericalError(DocmixError):
    """A non-finite quantity appeared during fitting."""

    def __init__(self, message: str, iteration: int | None = None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


class InsufficientDataError(DocmixError, ValueError):
    """Too few sweep points for the requested calibration."""


class DegenerateRegressionError(DocmixError, ValueError):
    """Regression input has no usable spread in model dimension."""


class OracleInfeasibleError(DocmixError):
    """A brute-force reference computation would not be trustworthy here."""


class ConfigError(DocmixError, ValueError):
    """An experiment configuration violates its schema. Carries the field name."""

    def __init__(self, message: str, *, field: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field
        self.reason = message
