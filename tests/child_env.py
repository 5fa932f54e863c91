"""The environment of a new interpreter that imports the package under test."""

import os
from pathlib import Path

import arasent

_SRC = str(Path(arasent.__file__).resolve().parents[1])


def child_env(base=os.environ) -> dict:
    """``base`` with the directory that holds the imported ``arasent``
    leading its ``PYTHONPATH``, so that a child process imports the same
    package, from a checkout or from an installed wheel."""
    return {**base, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, base.get("PYTHONPATH")]))}
