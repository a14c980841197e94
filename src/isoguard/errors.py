from contextlib import contextmanager
from pathlib import Path


class IsoguardError(ValueError):
    """Raised when an input violates a documented contract."""


class PipelineError(IsoguardError):
    """Stage-level failure; the message names the failing stage."""


@contextmanager
def artifact_reader(path: str | Path):
    """Turn what parsing a truncated or hand-edited JSON artifact raises
    into an IsoguardError that names the file."""
    try:
        yield
    # JSONDecodeError is a ValueError; AttributeError and TypeError come
    # from a JSON value of the wrong type where an object was expected
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise IsoguardError(f"{path}: unreadable artifact ({detail}); rerun the stage that writes it") from None
