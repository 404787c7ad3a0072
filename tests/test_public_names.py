"""Every public name resolves: the ``__all__`` lists and the functions the
perfbench tracer looks up by name (``_EXTRA`` in ``perfbench/tracer.py``)."""

import ast
import importlib
from pathlib import Path

import pytest

import esasaki

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_extra() -> dict:
    """``_EXTRA`` of the tracer, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_EXTRA" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no _EXTRA")


@pytest.mark.parametrize("module", ["esasaki", *(f"esasaki.{name}" for name in esasaki.__all__), "esasaki.cli"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_tracer_extra_names_resolve():
    extra = tracer_extra()
    assert extra, "the tracer looks up no extra names"
    for module, names in extra.items():
        mod = importlib.import_module(f"esasaki.{module}")
        assert all(callable(getattr(mod, name, None)) for name in names), (module, names)


PACKAGE = Path(esasaki.__file__).resolve().parent


def test_the_package_never_lists_the_group_K():
    # K is described by (N, d, r); GroupDiagram.k_elements lists it for callers outside the package
    assert not [path.name for path in PACKAGE.glob("*.py") if ".k_elements" in path.read_text()]
