"""Every example imports against the current API.

The examples are run by hand, so an example that imports a deleted name
would otherwise fail only then.  Each one is ``__main__``-guarded, so
importing it runs nothing; this loads each module and checks it exposes
a callable ``main`` without calling it.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
