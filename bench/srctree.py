"""Import glnztree from this tree's src/ and nowhere else.  The package is
not installed, and a stale egg-info is tracked at the root, so the location
is checked rather than trusted."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_package():
    """Return the modules (glnz, sanov, checks, cli) of the tree under test."""
    sys.path.insert(0, str(SRC))
    import glnztree
    from glnztree import checks, cli, glnz, sanov

    location = Path(glnztree.__file__).resolve()
    if not location.is_relative_to(SRC.resolve()):
        raise SystemExit(f"glnztree imported from {location}, not from {SRC}")
    return glnz, sanov, checks, cli
