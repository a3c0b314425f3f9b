"""What the tools share: perfbench's modules, one way to load spgrid from a
chosen source tree, and one way to watch the solver through a profile hook.

A tool imports this module by name: Python puts tools/ first on
``sys.path`` when a tool runs as a script, and the test configuration
puts it there for the tool tests, which import the tools by name too.

perfbench is no package and its modules import each other by name, so this
module appends perfbench/ and tests/ to ``sys.path`` once and imports ``run``,
``tracing`` and ``workloads`` by name; the tools take them from here and
import ``tests/oracles.py`` by name too: one copy of each per process.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.extend([path for path in (str(ROOT / "perfbench"), str(ROOT / "tests"))
                 if path not in sys.path])

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def load_spgrid(src: Path, name: str = "spgrid"):
    """``src/spgrid`` as package ``name``, with its ``cli`` submodule; a
    ``name`` already loaded from there is returned as it is, and a ``name``
    loaded from elsewhere or a ``src`` without ``spgrid`` is an error.  A
    load that fails leaves no ``name`` or ``name.*`` module behind."""
    package_dir = (src / "spgrid").resolve()
    if not (package_dir / "__init__.py").is_file():
        raise FileNotFoundError(f"no spgrid sources under {src}")
    sp = sys.modules.get(name)
    if sp is not None:
        if Path(sp.__file__).resolve().parent != package_dir:
            raise ValueError(f"{name} is already loaded from {sp.__file__}, not {src}")
        return sp
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    sp = importlib.util.module_from_spec(spec)
    sys.modules[name] = sp  # dataclasses look their module up
    try:
        spec.loader.exec_module(sp)
        importlib.import_module(f"{name}.cli")
    except BaseException:
        for key in [k for k in sys.modules if k == name or k.startswith(f"{name}.")]:
            del sys.modules[key]
        raise
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
