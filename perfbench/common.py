"""Paths and imports shared by the benchmark scripts.

The benchmark always measures the protopipe sources of the checkout it sits
in (``<root>/src``), never an installed copy, and keeps everything it writes
under ``<root>/.perfbench-work``.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# The rigged scenario's own seed: at this seed the fixtures are byte-identical
# to `evaluation.make_rigged_scenario` and outputs are checked against
# `baseline.json`.
DEFAULT_SEED = 15


class MissingSources(RuntimeError):
    pass


def import_protopipe():
    """Import protopipe from this checkout's src/ or raise MissingSources."""
    package = SRC / "protopipe"
    if not (package / "__init__.py").is_file():
        raise MissingSources(f"no protopipe sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import protopipe

    if Path(protopipe.__file__).resolve().parent != package.resolve():
        raise MissingSources(
            f"imported protopipe from {protopipe.__file__}, expected {package}"
        )
    return protopipe
