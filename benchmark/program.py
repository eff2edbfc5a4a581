"""Locate the qltest sources of the checkout this benchmark sits in.

The benchmark always measures the package under ``<root>/src``, never an
installed copy, so a checkout without sources fails instead of silently
timing some other version.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable qltest sources."""


def import_qltest():
    """Import qltest from ``<root>/src`` and return the package module."""
    if not (SRC / "qltest" / "__init__.py").is_file():
        raise ProgramMissing(f"no qltest sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qltest

    if Path(qltest.__file__).resolve().parent != SRC / "qltest":
        raise ProgramMissing(f"qltest imported from {qltest.__file__}, not from {SRC}")
    return qltest
