"""Block numpy in every Python process started with this directory on
``PYTHONPATH`` (``make test-pure``).

The finder below raises ``ModuleNotFoundError`` for ``numpy`` and its
submodules, exactly as a numpy-less install does, so every optional-numpy
guard takes its fallback: the arena kernels run their pure-Python twins,
and Hypothesis skips its numpy integration.  Because ``PYTHONPATH`` is
inherited, subprocesses and pool workers are blocked too.  Setting
``sys.modules["numpy"] = None`` instead is not equivalent: Hypothesis
then sees "numpy" as imported, imports ``numpy.random`` and fails.

Python imports only the first ``sitecustomize`` on ``sys.path``, and with
this directory first that is this module; so that an interpreter's or a
virtualenv's own hook (a distro's, or coverage's ``process_startup``)
still runs, this module then runs the ``sitecustomize`` it shadows.
"""

import os
import sys
from importlib.machinery import ModuleSpec, PathFinder
from importlib.util import module_from_spec


class _BlockNumpy:
    """Meta-path finder that refuses ``numpy`` and ``numpy.*``."""

    @staticmethod
    def find_spec(name: str, path: object = None,
                  target: object = None) -> ModuleSpec | None:
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(
                f"No module named {name!r} (blocked for the pure-Python "
                f"test run)", name=name)
        return None


def _run_shadowed_sitecustomize() -> None:
    """Execute the next ``sitecustomize`` on ``sys.path``, if any."""
    here = os.path.dirname(os.path.abspath(__file__))
    rest = [entry for entry in sys.path
            if os.path.abspath(entry or os.curdir) != here]
    spec = PathFinder.find_spec("sitecustomize", rest)
    if spec is not None and spec.loader is not None:
        spec.loader.exec_module(module_from_spec(spec))


sys.meta_path.insert(0, _BlockNumpy())
_run_shadowed_sitecustomize()
