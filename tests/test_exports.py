"""The package re-export contract: every public name of every package
resolves on first access to the object its defining module holds, and
type checkers see the same names under ``TYPE_CHECKING``."""

import ast
import importlib
from pathlib import Path

import pytest

import repro

#: The packages whose ``__init__`` re-exports submodule names lazily.
LAZY_PACKAGES = (
    "repro", "repro.analysis", "repro.constraints", "repro.core",
    "repro.corpus", "repro.engine", "repro.incomplete", "repro.io",
    "repro.mdm", "repro.obs", "repro.parallel", "repro.queries",
    "repro.relational", "repro.runtime")


def declared_exports(package) -> dict[str, str]:
    """``{name: module}`` from the package's ``if TYPE_CHECKING:``
    imports — what a type checker believes each name is."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    declared = {}
    for node in tree.body:
        if (isinstance(node, ast.If)
                and getattr(node.test, "id", None) == "TYPE_CHECKING"):
            for statement in node.body:
                if isinstance(statement, ast.ImportFrom):
                    for alias in statement.names:
                        declared[alias.asname or alias.name] = \
                            statement.module
    return declared


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyPackage:
    def test_every_public_name_is_its_defining_modules_object(self, name):
        package = importlib.import_module(name)
        declared = declared_exports(package)
        assert declared, f"{name} declares no TYPE_CHECKING imports"
        for public in package.__all__:
            value = getattr(package, public)
            if public in declared:
                source = importlib.import_module(declared[public])
                assert value is getattr(source, public), public
            else:
                # Defined (or eagerly imported) by the package itself.
                assert public in vars(package), public

    def test_dir_lists_every_public_name(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(package, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["decide_rcdp"] is repro.decide_rcdp


def test_cq_and_ucq_are_the_constructors_not_their_modules():
    """``queries/cq.py`` and ``queries/ucq.py`` share these names; once
    those submodules are imported the package still hands out the
    functions."""
    for submodule in ("repro.queries.cq", "repro.queries.ucq"):
        importlib.import_module(submodule)
    for package in (repro, repro.queries):
        assert callable(package.cq) and callable(package.ucq)
    assert repro.cq is repro.queries.cq
