"""What the tools share: one file loader, one way to import spgrid from a
chosen source tree, and perfbench's ``Tracer`` for their instrument hooks.

A tool imports this module by name: Python puts tools/ first on
``sys.path`` when a tool runs as a script, and the test configuration
puts it there for the tool tests.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name: str, path: Path, package_dir: Path | None = None):
    """Import the file ``path`` as module ``name`` (a package if it has a dir)."""
    search = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def perfbench(name: str):
    """``perfbench/<name>.py``, loaded once (perfbench is no package)."""
    module = sys.modules.get(f"perfbench_{name}")
    return module or load(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")


def import_spgrid(src: Path):
    """Import ``spgrid`` from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import spgrid

    if Path(spgrid.__file__).resolve().parent != src.resolve() / "spgrid":
        raise SystemExit(f"spgrid imported from {spgrid.__file__}, not {src}")
    return spgrid


class Tracer(perfbench("tracing").Tracer):
    """perfbench's tracer.  A tool overrides ``wrap`` to hook the spans it
    measures and returns every other function as it is; ``uninstall``
    restores every binding."""

    def install(self, sp) -> None:
        importlib.import_module(f"{sp.__name__}.cli")  # the tracer rebinds there too
        super().install(sp)
