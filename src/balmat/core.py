"""Dense matrix values, tolerance policies, and approximate comparison.

Everything downstream (balance classification, spectral estimates,
discrepancy reports) is phrased in terms of the three types defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from balmat.errors import DimensionError, InvalidInputError


@dataclass(frozen=True)
class TolerancePolicy:
    """Hybrid relative/absolute tolerance.

    Two reals are considered equal when |x - y| <= atol + rtol * max(|x|, |y|).
    The absolute term handles comparisons against values near zero, the
    relative term keeps the test scale-free for large magnitudes.
    """

    rtol: float = 1e-6
    atol: float = 1e-9

    def __post_init__(self):
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
                raise InvalidInputError(f"{name} must be finite and non-negative, got {value!r}")
        if self.rtol == 0 and self.atol == 0:
            raise InvalidInputError("at least one of rtol, atol must be positive")

    def allowance(self, x: float, y: float) -> float:
        """Largest |x - y| that still counts as equal."""
        return self.atol + self.rtol * max(abs(x), abs(y))


#: Policy used when a caller does not supply one: tight enough for
#: exact-arithmetic identities, loose enough to absorb float rounding.
DEFAULT_TOL = TolerancePolicy(rtol=1e-6, atol=1e-9)

#: Matrix families `genfuzz.generate` builds; also the CLI's `fuzz --kind`
#: choices, kept here so the parser needs no fuzzing code.
GENERATOR_KINDS = ("constant", "symmetric2", "hadamard_like", "scaled_orthogonal", "perturbed")


def approx_eq(x: float, y: float, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Whether x and y agree under `tol`. Symmetric in its arguments."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInputError(f"approx_eq requires finite inputs, got {x!r} and {y!r}")
    return abs(x - y) <= tol.allowance(x, y)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense real matrix with row-major entries."""

    n_rows: int
    n_cols: int
    entries: tuple[float, ...]

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise DimensionError(f"matrix dimensions must be positive, got {self.n_rows}x{self.n_cols}")
        if len(self.entries) != self.n_rows * self.n_cols:
            raise DimensionError(
                f"{self.n_rows}x{self.n_cols} matrix needs {self.n_rows * self.n_cols} entries, "
                f"got {len(self.entries)}"
            )
        entries = self.entries
        if type(entries) is tuple:
            # Already a tuple of finite floats, as every generated matrix is:
            # nothing to convert.
            isfinite = math.isfinite
            for v in entries:
                if type(v) is not float or not isfinite(v):
                    break
            else:
                return
        cleaned = []
        for value in entries:
            try:
                v = float(value)
            except (TypeError, ValueError, OverflowError):
                raise InvalidInputError(f"matrix entry {value!r} is not a real number") from None
            if not math.isfinite(v):
                raise InvalidInputError(f"matrix entries must be finite, got {value!r}")
            cleaned.append(v)
        object.__setattr__(self, "entries", tuple(cleaned))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def is_zero(self) -> bool:
        """True when every entry is exactly 0.0."""
        return all(e == 0.0 for e in self.entries)

    def entry(self, i: int, j: int) -> float:
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise DimensionError(f"index ({i}, {j}) out of range for {self.n_rows}x{self.n_cols}")
        return self.entries[i * self.n_cols + j]

    def row(self, i: int) -> tuple[float, ...]:
        if not 0 <= i < self.n_rows:
            raise DimensionError(f"row {i} out of range for {self.n_rows} rows")
        return self.entries[i * self.n_cols : (i + 1) * self.n_cols]

    def col(self, j: int) -> tuple[float, ...]:
        if not 0 <= j < self.n_cols:
            raise DimensionError(f"column {j} out of range for {self.n_cols} columns")
        return self.entries[j :: self.n_cols]

    def to_rows(self) -> list[list[float]]:
        return [list(self.row(i)) for i in range(self.n_rows)]

    def __str__(self) -> str:
        return "\n".join("  ".join(f"{v:.12g}" for v in self.row(i)) for i in range(self.n_rows))


def matrix_from_rows(rows: Sequence[Iterable[float]]) -> Matrix:
    """Build a Matrix from a sequence of equal-length rows.

    Raises DimensionError for ragged input and InvalidInputError for
    non-finite or non-numeric values.
    """
    materialized = [list(r) for r in rows]
    if not materialized or any(len(r) == 0 for r in materialized):
        raise DimensionError("matrix needs at least one row and one column")
    width = len(materialized[0])
    for idx, r in enumerate(materialized):
        if len(r) != width:
            raise DimensionError(f"row {idx} has {len(r)} entries, expected {width}")
    flat = [v for r in materialized for v in r]
    return Matrix(len(materialized), width, tuple(flat))


def identity(n: int) -> Matrix:
    entries = [0.0] * (n * n)
    for i in range(n):
        entries[i * n + i] = 1.0
    return Matrix(n, n, tuple(entries))


def constant_matrix(n_rows: int, n_cols: int, value: float) -> Matrix:
    return Matrix(n_rows, n_cols, tuple([float(value)] * (n_rows * n_cols)))


@dataclass(frozen=True)
class CheckRecord:
    """Uniform outcome carrier for theorem and property checks.

    `slack` measures how far the check is from failing: negative or zero
    means it holds, positive means it is violated, and the magnitude is the
    distance past (or before) the allowed tolerance.
    """

    name: str
    holds: bool
    lhs: float
    rhs: float
    slack: float

    def __post_init__(self):
        if self.holds != (self.slack <= 0):
            raise InvalidInputError(
                f"inconsistent check record {self.name!r}: holds={self.holds} but slack={self.slack}"
            )

    @classmethod
    def bounded(cls, name: str, lhs: float, rhs: float) -> "CheckRecord":
        """Check of the form lhs <= rhs."""
        slack = lhs - rhs
        return cls(name, slack <= 0, lhs, rhs, slack)

    @classmethod
    def close(cls, name: str, lhs: float, rhs: float, allowed: float) -> "CheckRecord":
        """Check of the form |lhs - rhs| <= allowed."""
        slack = abs(lhs - rhs) - allowed
        return cls(name, slack <= 0, lhs, rhs, slack)

    @classmethod
    def verdict(cls, name: str, holds: bool, lhs: float, rhs: float) -> "CheckRecord":
        """Boolean check; lhs/rhs carry diagnostic values only."""
        return cls(name, holds, lhs, rhs, -1.0 if holds else 1.0)
