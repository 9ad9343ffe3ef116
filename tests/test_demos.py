"""Every demo script imports cleanly against the current package."""

import importlib.util
import pathlib

import pytest

_DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert _DEMOS


@pytest.mark.parametrize("path", _DEMOS, ids=lambda p: p.stem)
def test_demo_imports_and_defines_main(path):
    # importing runs nothing: each demo calls main() only as __main__
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
