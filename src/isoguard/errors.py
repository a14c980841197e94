import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class IsoguardError(ValueError):
    """Raised when an input violates a documented contract."""


class PipelineError(IsoguardError):
    """Stage-level failure; the message names the failing stage."""


class ArtifactError(IsoguardError):
    """An artifact that does not hold what its writer writes; ``paths`` are the file(s) at fault."""

    def __init__(self, message: str, *paths: str | Path) -> None:
        super().__init__(message)
        self.paths = tuple(Path(p) for p in paths)


def checked_int(value: object, what: str) -> int:
    """``value`` as an int; a float or bool is rejected, not truncated."""
    if type(value) is not int:
        raise IsoguardError(f"{what} must be an integer, got {value!r}")
    return value


def checked_float(value: object, what: str) -> float:
    """``value`` as a finite float; an int is widened, and a bool, a string or a non-finite number rejected."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise IsoguardError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def checked_labels(values, what: str = "labels", n: int | None = None) -> np.ndarray:
    """``values`` as an int64 vector of 0/1 labels, of length ``n`` when given. The values are
    checked before the cast, so a fractional (0.6) or string ("1") label is rejected, not truncated."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise IsoguardError(f"{what} must be a vector, got shape {values.shape}")
    if n is not None and values.size != n:
        raise IsoguardError("label vector length must match row count")
    if not np.isin(values, (0, 1)).all():
        raise IsoguardError(f"{what} must be binary 0/1")
    return values.astype(np.int64, copy=False)


def checked_matrix(X, n_features: int | None = None) -> np.ndarray:
    """``X`` as C-ordered float64 rows of finite values, copied only when it is laid out otherwise.
    It must be 2-D with at least one column. A matrix to fit (no ``n_features``) needs a row; one
    to score needs ``n_features`` columns and may hold no rows."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0 or (n_features is None and X.shape[0] == 0):
        raise IsoguardError(f"X must be a non-empty 2-D matrix, got shape {X.shape}")
    if n_features is not None and X.shape[1] != n_features:
        raise IsoguardError(f"feature count mismatch: model expects {n_features}, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise IsoguardError("X holds NaN or infinite values")
    return X


@contextmanager
def artifact_reader(path: str | Path):
    """Turn what parsing a truncated or hand-edited JSON artifact raises
    into an ArtifactError that names the file."""
    try:
        yield
    # JSONDecodeError is a ValueError; AttributeError and TypeError come
    # from a JSON value of the wrong type where an object was expected, and
    # OverflowError from an integer too large for an int64 array, and
    # RecursionError from JSON nested deeper than the parser's stack
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ArtifactError(f"{path}: unreadable artifact ({detail})", path) from None
