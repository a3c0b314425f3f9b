"""What the tools share: one file loader, one way to load spgrid from a
chosen source tree, one way to watch the solver through a profile hook, and
perfbench's ``Tracer`` for ``bench_layers``' timing spans.

A tool imports this module by name: Python puts tools/ first on
``sys.path`` when a tool runs as a script, and the test configuration
puts it there for the tool tests, which import the tools by name too.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name: str, path: Path, package_dir: Path | None = None, *submodules: str):
    """Import the file ``path`` as module ``name`` (a package if it has a dir),
    then its ``submodules``; a load that fails leaves no ``name`` or
    ``name.*`` module behind."""
    search = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        for submodule in submodules:
            importlib.import_module(f"{name}.{submodule}")
    except BaseException:
        for key in [k for k in sys.modules if k == name or k.startswith(f"{name}.")]:
            del sys.modules[key]
        raise
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
        return load(name, package_dir / "__init__.py", package_dir, "cli")
    if Path(sp.__file__).resolve().parent != package_dir:
        raise ValueError(f"{name} is already loaded from {sp.__file__}, not {src}")
    return sp


@contextmanager
def profiled(hook):
    """Run the block under ``sys.setprofile(hook)``, then put back the profile
    function in force before, also when the block raises."""
    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(before)


# perfbench's tracer, for ``bench_layers``' timing spans: its wrappers cost far
# less than a profile hook, which runs on every Python and C call.
Tracer = perfbench("tracing").Tracer
