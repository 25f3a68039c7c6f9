"""Friendly parsing for ``REPRO_*`` environment knobs.

Scale knobs are set by hand in shells and CI files, where a stray
``REPRO_JOBS=four`` is easy to type.  A bare ``ValueError`` traceback
from deep inside a runner hides which knob was wrong;
:func:`env_int`/:func:`env_float` fail with a one-line message naming
the knob and the offending value instead.  (CLI flags get the same
contract from their argparse types in :mod:`repro.cli`.)
"""

from __future__ import annotations

import os


def parse_int(name: str, raw: str | None, default: int) -> int:
    """``int(raw)`` with a one-line failure mode.

    Exits (via :class:`SystemExit`, so no traceback reaches the
    terminal) when ``raw`` is not an integer; ``None``/empty falls back
    to ``default``.  ``name`` is the knob the value came from.
    """
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(
            f"{name}={raw!r} is not an integer; "
            f"unset it or use e.g. {name}={default}") from None


def parse_float(name: str, raw: str | None, default: float) -> float:
    """``float(raw)`` with the same one-line failure mode."""
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise SystemExit(
            f"{name}={raw!r} is not a number; "
            f"unset it or use e.g. {name}={default}") from None


def env_int(name: str, default: int) -> int:
    """``int(os.environ[name])`` with a one-line failure mode."""
    return parse_int(name, os.environ.get(name), default)


def env_float(name: str, default: float) -> float:
    """``float(os.environ[name])`` with a one-line failure mode."""
    return parse_float(name, os.environ.get(name), default)

