"""The package's export list matches what it binds, it defines (as a
function, class or module-level assignment) nothing that neither its own
code nor its export list uses, its version has one source, its
numerical contracts raise only through errors.py, it binds LAPACK in
linalg.py alone, and every tolerance is a row of errors._TOL read
through the one scale rule."""

import ast
import inspect
from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import sympspec
from sympspec.errors import _TOL


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
TEST_HELPERS = {"max_principal_angle", "span_residual", "reports_match",
                "additive_trial_records", "multiplicative_trial_records"}


def _module_level_names(tree):
    """Names a module's top level defines: its functions, classes and
    assignment targets, dunders such as __all__ left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_used_or_exported():
    defined, used = set(), set()
    for path in Path(sympspec.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= _module_level_names(tree)
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
    # helpers' policy that NaN fails.  Every _flapack routine reports its
    # status through _lapack, and every gufunc call on one matrix its
    # failure flag through the one errstate callback _gufunc_failed, so no
    # LinAlgError is mapped by hand.
    allowed = {("errors.py", "_contract"), ("errors.py", "_lapack"),
               ("errors.py", "_gufunc_failed")}
    found = set()
    for path in Path(sympspec.__file__).parent.glob("*.py"):
        for func in _contract_raises(ast.parse(path.read_text())):
            assert (path.name, func) in allowed, f"{path.name}: raise in {func}"
            found.add((path.name, func))
    assert found == allowed


def test_flapack_serves_only_the_routines_numpy_has_no_gufunc_for():
    # Every SVD, symmetric eigensolve and QR goes through numpy's gufuncs;
    # scipy's _flapack keeps the five routines numpy lacks.
    used = set()
    for path in Path(sympspec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "_FLAPACK"):
                used.add(node.attr)
    assert used == {"dgehrd", "dorghr", "dpocon", "dtrtrs", "dsygst"}


def test_linalg_alone_binds_lapack_and_factor_alone_maps_a_gufunc_failure():
    # numpy's private _umath_linalg and scipy's _flapack are named in one
    # module, and the one np.errstate(call=...) is linalg._factor's, the
    # route of every single-matrix gufunc failure.
    binders, callbacks, factor = set(), [], None
    for path in Path(sympspec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            named = {getattr(node, key, None) for key in ("id", "attr", "name")}
            if isinstance(node, ast.ImportFrom):
                named |= set((node.module or "").split("."))
            if named & {"_umath_linalg", "_FLAPACK"}:
                binders.add(path.name)
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "errstate"
                    and any(k.arg == "call" for k in node.keywords)):
                callbacks.append((path.name, node))
            if isinstance(node, ast.FunctionDef) and node.name == "_factor":
                factor = (path.name, node)
    assert binders == {"linalg.py"}
    [(name, call)] = callbacks
    assert name == factor[0] == "linalg.py" and call in factor[1].decorator_list


def _package_trees():
    for path in sorted(Path(sympspec.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _with_function(tree):
    """(node, name of its enclosing function or None) for every node."""
    stack = [(tree, None)]
    while stack:
        node, func = stack.pop()
        yield node, func
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def _called(node, *names):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names


# The gufunc handles linalg binds.
_GUFUNC_HANDLES = {"_SVD_F", "_SVD_S", "_SVD", "_EIGH", "_CHOLESKY", "_EIGVALS",
                   "_QR_R_RAW", "_QR_REDUCED"}


def test_every_gufunc_call_goes_through_factor():
    # A failed factorization raises the invalid flag, which only _factor
    # turns into NumericalContractError; a handle called anywhere else
    # leaves a NaN that the caller would have to catch by hand.
    unguarded = set()
    for name, tree in _package_trees():
        for node, func in _with_function(tree):
            if _called(node, *_GUFUNC_HANDLES):
                unguarded.add((name, func))
    assert unguarded == set()


def test_errors_are_carried_as_values_only_by_the_fallback_and_the_harness():
    # A stacked routine builds its whole stack or raises; only
    # errors._whole_or_alone, which takes each member of a stack that
    # raised alone, and the harness, which turns a trial's error into its
    # record, return an error in place of a result.
    carriers = set()
    for name, tree in _package_trees():
        for node, func in _with_function(tree):
            if _called(node, "_attempt"):
                carriers.add(name if name == "harness.py" else (name, func))
    assert carriers == {("errors.py", "_whole_or_alone"), "harness.py"}


def test_small_float_literals_live_in_the_tolerance_table():
    # A public keyword default (tol=1e-9) is the caller's, not a bound.
    for name, tree in _package_trees():
        spared = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.arguments):
                for default in node.defaults + [d for d in node.kw_defaults if d]:
                    spared |= {id(n) for n in ast.walk(default)}
            elif (isinstance(node, ast.Assign) and name == "errors.py"
                  and [getattr(t, "id", None) for t in node.targets] == ["_TOL"]):
                spared |= {id(n) for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < node.value < 1e-5 and id(node) not in spared):
                raise AssertionError(f"{name}:{node.lineno}: literal {node.value!r} outside _TOL")


def test_every_bound_comes_from_the_table_through_the_scale_rule():
    contracts, named = 0, set()
    for name, tree in _package_trees():
        for node, func in _with_function(tree):
            if _called(node, "_contract") and func != "_contract":
                contracts += 1
                bound = node.args[2]
                assert any(_called(n, "_bound", "_scaled") for n in ast.walk(bound)), (
                    f"{name}:{node.lineno}: a _contract bound not from _bound or _scaled")
            if _called(node, "_bound") and func != "_bound":
                key = node.args[0]
                assert isinstance(key, ast.Constant), f"{name}:{node.lineno}: _bound of no row"
                named.add(key.value)
            first = node.args[0] if isinstance(node, ast.Call) and node.args else None
            if (_called(node, "max", "maximum", "fmax") and isinstance(first, ast.Constant)
                    and repr(first.value) == "1.0"):
                assert (name, func) == ("errors.py", "_scaled"), (
                    f"{name}:{node.lineno}: a unit floor outside errors._scaled")
    assert contracts and named == set(_TOL)
