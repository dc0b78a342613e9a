"""The package's public names and its module boundaries."""

import ast
import pathlib

import pytest

import groupnb
from groupnb import bench, classifier, corpus, engine, errors, features, synth

MODULES = (bench, classifier, corpus, engine, errors, features, synth)


def test_every_exported_name_resolves_once():
    names = groupnb.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(groupnb, name)] == []


def test_trainer_is_exported_from_the_engine():
    assert groupnb.train_bundles is engine.train_bundles
    assert groupnb.train_bundle is engine.train_bundle


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_module_exports_only_what_it_defines(module):
    assert [name for name in module.__all__
            if getattr(module, name).__module__ != module.__name__] == []


def test_package_exports_the_module_lists():
    assert groupnb.__all__ == [name for module in MODULES for name in module.__all__]


def test_only_the_lane_runtime_imports_multiprocessing():
    """groupnb.lanes owns every worker process, so it alone imports multiprocessing."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    importers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "multiprocessing" for name in names):
                importers.add(path.relative_to(src).as_posix())
    assert importers == {"groupnb/lanes.py"}
