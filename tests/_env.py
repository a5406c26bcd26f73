"""Environment for child Python processes started by the tests."""
from __future__ import annotations

import os
from pathlib import Path

import toruspert


def subprocess_env():
    """Environment for a child Python that runs the package under test.

    ``PYTHONPATH`` leads with the directory holding the ``toruspert`` package
    this suite imported, so a child process runs the same code whether or not
    the package is installed or the caller exported ``PYTHONPATH``.
    """
    env = dict(os.environ)
    package_root = str(Path(toruspert.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env
