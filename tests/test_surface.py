"""The package's export list matches what it binds, it defines nothing
that neither its own code nor its export list uses, its version has one
source, and its numerical contracts raise only through errors.py."""

import ast
import inspect
from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import sympspec


def test_all_lists_exactly_the_public_names():
    for name in sympspec.__all__:
        getattr(sympspec, name)
    bound = {
        name for name, value in vars(sympspec).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(sympspec.__all__) == len(set(sympspec.__all__))
    assert set(sympspec.__all__) == bound | {"__version__"}
    for name in sympspec.__all__:
        assert getattr(sympspec, name) is not None


def test_each_lazy_export_is_its_submodule_attribute():
    # The hook is called directly as well, since names and submodules the
    # suite has already imported are package globals and bypass it.
    for module in sympspec._EXPORTS:
        assert sympspec.__getattr__(module) is getattr(sympspec, module)
    for name, module in sympspec._SOURCE.items():
        value = getattr(getattr(sympspec, module), name)
        assert getattr(sympspec, name) is value
        assert sympspec.__getattr__(name) is value
    namespace = {}
    exec("from sympspec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sympspec.__all__)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sympspec.no_such_name


# Helpers that nothing in the package calls, kept for the acceptance tests.
TEST_HELPERS = {"max_principal_angle", "span_residual", "reports_match"}


def test_every_definition_is_used_or_exported():
    defined, used = set(), set()
    for path in Path(sympspec.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    # The package's lazy exports go through the module-level protocol hook
    # __getattr__, which Python calls and no code names.
    assert defined - used - set(sympspec.__all__) - {"__getattr__"} == TEST_HELPERS


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_pyproject_reads_its_version_from_the_package():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = read_configuration(pyproject)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == sympspec.__version__


def _contract_raises(tree):
    """The enclosing function of each raise of NumericalContractError in a
    module's AST."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "NumericalContractError":
                sites.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_numerical_contracts_raise_only_through_the_helpers():
    # A contract or LAPACK status check written inline would bypass the
    # helpers' policy that NaN fails.  Every SVD and eigensolve reports its
    # status through _lapack, so no LinAlgError is mapped by hand; the one
    # slot-dimension check of the chain extension is the exception.
    allowed = {("errors.py", "_contract"), ("errors.py", "_lapack"),
               ("basis.py", "_chain_extend_std")}
    found = set()
    for path in Path(sympspec.__file__).parent.glob("*.py"):
        for func in _contract_raises(ast.parse(path.read_text())):
            assert (path.name, func) in allowed, f"{path.name}: raise in {func}"
            found.add((path.name, func))
    assert found == allowed
