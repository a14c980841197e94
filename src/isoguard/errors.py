import sys
from contextlib import contextmanager
from pathlib import Path


class IsoguardError(ValueError):
    """Raised when an input violates a documented contract."""


class PipelineError(IsoguardError):
    """Stage-level failure; the message names the failing stage."""


class ArtifactError(IsoguardError):
    """An artifact that does not hold what its writer writes; ``paths`` are the file(s) at fault."""

    def __init__(self, message: str, *paths: str | Path) -> None:
        super().__init__(message)
        self.paths = tuple(Path(p) for p in paths)


def checked_int(value: object, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int in [low, high); a float or bool is rejected, not truncated."""
    if type(value) is not int or (low is not None and value < low) or (high is not None and value >= high):
        bound = "" if low is None else f" in [{low}, {high})" if high is not None else f" >= {low}"
        raise IsoguardError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def checked_float(value: object, what: str) -> float:
    """``value`` as a finite float; an int is widened, and a bool, a string or a non-finite number rejected."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise IsoguardError(f"{what} must be a finite number, got {value!r}")
    return float(value)


@contextmanager
def artifact_reader(path: str | Path):
    """Turn what parsing a truncated or hand-edited JSON artifact raises
    into an ArtifactError that names the file."""
    try:
        yield
    # JSONDecodeError is a ValueError; AttributeError and TypeError come
    # from a JSON value of the wrong type where an object was expected, and
    # OverflowError from an integer too large for an int64 array
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ArtifactError(f"{path}: unreadable artifact ({detail})", path) from None
