"""Exception types shared across the package."""


class BalmatError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(BalmatError):
    """A value is outside its documented domain (non-finite, negative tolerance, ...)."""


class DimensionError(BalmatError):
    """Matrix shapes are incompatible with the requested operation."""


class SingularMatrixError(BalmatError):
    """The matrix is singular under the active tolerance policy."""


class SymmetryError(BalmatError):
    """An operation defined only for symmetric matrices received an asymmetric one."""


class ConfigurationError(BalmatError):
    """A generator spec or campaign request is malformed."""


class UnsupportedDimensionError(ConfigurationError):
    """The requested generator kind does not exist at this dimension."""


class HypothesisError(BalmatError):
    """A theorem hypothesis does not hold for the given input.

    These are expected outcomes when probing arbitrary matrices, not bugs.
    `hypothesis` names the failed hypothesis in kebab case ("not-balanced",
    "not-2x2", "not-one-fair-row", ...). It is the one way a theorem check
    says "not applicable": a check returns a CheckRecord or raises this.
    A campaign trial is not applicable exactly when its check raises it.
    """

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        msg = f"hypothesis not satisfied: {hypothesis}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ParseError(BalmatError):
    """Malformed matrix text input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}"
            if column is not None:
                where += f", column {column}"
        super().__init__(message + where)
