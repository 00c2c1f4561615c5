"""Tests that start `python -m mdconv.cli` in a subprocess need the package on
the child's path too; `pythonpath` in pyproject.toml covers only this process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
