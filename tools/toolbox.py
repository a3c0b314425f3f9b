"""What the tools share: one file loader, one way to load spgrid from a
chosen source tree, and perfbench's ``Tracer`` for their instrument hooks.

A tool imports this module by name: Python puts tools/ first on
``sys.path`` when a tool runs as a script, and the test configuration
puts it there for the tool tests, which import the tools by name too.
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


def load_spgrid(src: Path, name: str = "spgrid"):
    """``src/spgrid`` as package ``name``, with its ``cli`` submodule; a
    ``name`` already loaded from there is returned as it is, and a ``name``
    loaded from elsewhere or a ``src`` without ``spgrid`` is an error."""
    package_dir = (src / "spgrid").resolve()
    if not (package_dir / "__init__.py").is_file():
        raise FileNotFoundError(f"no spgrid sources under {src}")
    sp = sys.modules.get(name)
    if sp is None:
        sp = load(name, package_dir / "__init__.py", package_dir)
    elif Path(sp.__file__).resolve().parent != package_dir:
        raise ValueError(f"{name} is already loaded from {sp.__file__}, not {src}")
    importlib.import_module(f"{name}.cli")
    return sp


# perfbench's tracer, which rebinds in ``cli`` too.  A tool overrides ``wrap``
# to hook the spans it measures and returns every other function as it is;
# ``uninstall`` restores every binding.
Tracer = perfbench("tracing").Tracer
