"""Dense linear-algebra helpers against hand-computed cases."""

import importlib.util
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy

from sympspec import core, linalg
from sympspec.core import random_pd, williamson
from sympspec.errors import NumericalContractError, ValidationError
from sympspec.linalg import (
    check_symmetric,
    fnorm,
    max_principal_angle,
    null_space_basis,
    orthonormal_columns,
    span_residual,
    subspace_intersect,
    sym_eig,
)

RNG = np.random.default_rng(101)


# Run in a fresh interpreter: the CLI's import must not load scipy.linalg,
# and once scipy.linalg is loaded, every LAPACK handle of the package must
# be the routine scipy's own lookup returns.  A scipy release that moves
# its compiled LAPACK module fails here first.
_COLD_IMPORT = """
import sys
import numpy as np
import sympspec.cli
assert "scipy.linalg" not in sys.modules, "importing the CLI loaded scipy.linalg"
assert "scipy" not in sys.modules, "importing the CLI loaded scipy"
import scipy.linalg
from sympspec import core, inequalities, linalg
handles = {"gehrd": linalg._GEHRD, "orghr": linalg._ORGHR, "gesdd": linalg._GESDD,
           "gesdd_lwork": linalg._GESDD_LWORK, "syevd": linalg._SYEVD,
           "pocon": core._POCON, "trtrs": core._TRTRS, "sygst": inequalities._SYGST}
for name, handle in handles.items():
    assert handle is scipy.linalg.get_lapack_funcs(name, dtype=np.float64), name
"""


def _run_fresh(code):
    """Run code in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(linalg.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_cli_import_skips_scipy_linalg_and_shares_its_lapack_routines():
    _run_fresh(_COLD_IMPORT)


# Each command loads only the modules it runs: the spectra commands none of
# the verification layers, the thread pool or top-level scipy, and mean
# the inequalities module alone on top of those.  No command and no suite,
# a replayed construction trial (which draws with random_symplectic) and
# a full default run_all included, imports scipy or scipy.linalg; an
# import of scipy.linalg afterwards still works.
_COMMAND_IMPORTS = """
import os, sys
import numpy as np
os.chdir({work!r})
from sympspec.cli import main
from sympspec.matio import save_matrix
save_matrix(np.diag([1.0, 2.0, 3.0, 4.0]), "a.json")
save_matrix(np.diag([2.0, 1.0, 5.0, 3.0]), "b.json")
save_matrix(np.eye(4)[:, [0, 2]], "t.json")
commands = [["eig", "a.json", "--method", m] for m in ("skew-canonical", "ja-eigen", "williamson")]
commands += [["williamson", "a.json", "dec.json"], ["compress", "a.json", "t.json"], ["repro"]]
for argv in commands:
    assert main(argv) == 0, argv
absent = ["sympspec." + m for m in ("harness", "extremal", "basis", "inequalities", "functionals")]
absent += ["concurrent.futures", "scipy"]
loaded = [m for m in absent if m in sys.modules]
assert not loaded, loaded
before = set(sys.modules)
assert main(["mean", "a.json", "b.json"]) == 0
added = {{m for m in set(sys.modules) - before if m in absent or m.startswith("sympspec.")}}
assert added == {{"sympspec.inequalities"}}, added
assert main(["verify", "--suite", "lidskii-add", "--trials", "2", "--report", "r.json"]) == 0
assert main(["verify", "--replay", "r.json:lidskii-add:1"]) == 0
assert main(["verify", "--suite", "construction", "--trials", "1", "--report", "c.json"]) == 0
assert main(["verify", "--replay", "c.json:construction:0"]) == 0
from sympspec.harness import SuiteConfig, run_all
run_all(SuiteConfig(report_path=None))
loaded = [m for m in ("scipy.linalg", "scipy") if m in sys.modules]
assert not loaded, loaded
import scipy.linalg
from sympspec.linalg import _GESDD
assert np.allclose(scipy.linalg.expm(np.diag([0.0, 1.0])), np.diag([1.0, np.e]))
p, l, u = scipy.linalg.lu(np.array([[1.0, 2.0], [3.0, 4.0]]))
assert np.allclose(p @ l @ u, [[1.0, 2.0], [3.0, 4.0]])
assert scipy.linalg.get_lapack_funcs("gesdd", dtype=np.float64) is _GESDD
"""


def test_each_cli_command_loads_only_what_it_runs(tmp_path):
    _run_fresh(_COMMAND_IMPORTS.format(work=str(tmp_path)))


def test_a_missing_scipy_is_the_error_of_importing_it(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError, match="No module named 'scipy'"):
        linalg._load_flapack()


def test_a_missing_lapack_extension_names_the_paths_looked_for(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy.__spec__, "submodule_search_locations", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        linalg._load_flapack()


def test_sym_eig_two_by_two():
    w, v = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-14)
    assert fnorm(v @ np.diag(w) @ v.T - [[2.0, 1.0], [1.0, 2.0]]) < 1e-14


def test_check_symmetric_rejects_asymmetry():
    with pytest.raises(ValidationError):
        check_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    sym = check_symmetric(np.array([[1.0, 2.0 + 1e-14], [2.0, 1.0]]))
    assert fnorm(sym - sym.T) == 0.0


def test_orthonormal_columns_spans_input():
    x = RNG.normal(size=(6, 3))
    q = orthonormal_columns(x)
    assert q.shape == (6, 3)
    assert fnorm(q.T @ q - np.eye(3)) < 1e-12
    assert max_principal_angle(q, x) < 1e-12


def test_orthonormal_columns_drops_dependent():
    x = np.column_stack([np.ones(4), 2 * np.ones(4)])
    assert orthonormal_columns(x).shape == (4, 1)


def test_null_space_basis_plane():
    g = np.array([[1.0, 0.0, 0.0]])
    z = null_space_basis(g)
    assert z.shape == (3, 2)
    assert fnorm(g @ z) < 1e-12


def test_null_space_basis_full_rank_is_empty():
    assert null_space_basis(np.eye(3)).shape == (3, 0)


def test_span_residual_and_contains():
    basis = np.eye(4)[:, :2]
    assert span_residual(basis, np.array([1.0, 1.0, 0.0, 0.0])) < 1e-14
    assert span_residual(basis, np.array([0.0, 0.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert span_residual(basis, np.array([2.0, -1.0, 0.0, 0.0])) <= 1e-8


def test_max_principal_angle_detects_rotated_span():
    x = orthonormal_columns(RNG.normal(size=(8, 3)))
    rot = np.linalg.qr(RNG.normal(size=(3, 3)))[0]
    assert max_principal_angle(x, x @ rot) < 1e-12
    y = orthonormal_columns(RNG.normal(size=(8, 3)))
    assert max_principal_angle(x, y) > 1e-2


def test_max_principal_angle_small_angles_not_flushed():
    # arccos of a cosine loses tiny angles; the sine path keeps them.
    theta = 1e-9
    x = np.eye(4)[:, :1]
    y = np.array([[np.cos(theta)], [np.sin(theta)], [0.0], [0.0]])
    assert max_principal_angle(x, y) == pytest.approx(theta, rel=1e-4)


def test_subspace_intersect_shared_line():
    x = np.eye(4)[:, :2]
    y = np.eye(4)[:, 1:3]
    z = subspace_intersect(x, y)
    assert z.shape == (4, 1)
    assert abs(abs(z[1, 0]) - 1.0) < 1e-12


def test_subspace_intersect_trivial():
    x = np.eye(4)[:, :1]
    y = np.eye(4)[:, 1:2]
    assert subspace_intersect(x, y).shape == (4, 0)


def test_subspace_intersect_refuses_a_non_orthonormal_input():
    q = orthonormal_columns(RNG.normal(size=(6, 3)))
    with pytest.raises(NumericalContractError, match="not orthonormal"):
        subspace_intersect(2.0 * q, q)


def test_skew_canonical_form_of_j():
    j = np.zeros((4, 4))
    j[:2, 2:] = np.eye(2)
    j[2:, :2] = -np.eye(2)
    q, d = linalg._skew_canonical(j)
    assert np.allclose(d, [1.0, 1.0], atol=1e-12)
    assert fnorm(q.T @ q - np.eye(4)) < 1e-12


def test_skew_canonical_single_block():
    k = np.array([[0.0, 5.0], [-5.0, 0.0]])
    q, d = linalg._skew_canonical(k)
    assert d.shape == (1,)
    assert d[0] == pytest.approx(5.0, abs=1e-12)
    canon = np.array([[0.0, 5.0], [-5.0, 0.0]])
    assert fnorm(q.T @ k @ q - canon) < 1e-12


def test_skew_canonical_random_roundtrip():
    for _ in range(20):
        m = int(RNG.integers(1, 7))
        x = RNG.normal(size=(2 * m, 2 * m))
        k = x - x.T
        q, d = linalg._skew_canonical(k)
        canon = np.zeros((2 * m, 2 * m))
        canon[:m, m:] = np.diag(d)
        canon[m:, :m] = -np.diag(d)
        assert fnorm(q.T @ k @ q - canon) <= 1e-9 * max(1.0, fnorm(k))
        assert fnorm(q.T @ q - np.eye(2 * m)) <= 1e-12
        assert np.all(np.diff(d) >= 0)


def test_skew_canonical_rejects_singular():
    with pytest.raises((ValidationError, NumericalContractError)):
        linalg._skew_canonical(np.zeros((2, 2)))


def test_skew_canonical_maps_eigensolver_failure(monkeypatch):
    def no_convergence(a, **kwargs):
        return a, np.zeros(a.shape[0]), a, 1

    monkeypatch.setattr(linalg, "_GESDD", no_convergence)
    with pytest.raises(NumericalContractError, match="SVD failed"):
        linalg._skew_canonical(np.array([[0.0, 5.0], [-5.0, 0.0]]))


def test_skew_canonical_maps_lapack_error_codes(monkeypatch):
    def bad_argument(a, lwork):
        return a, np.zeros(a.shape[0] - 1), -1

    monkeypatch.setattr(linalg, "_GEHRD", bad_argument)
    with pytest.raises(NumericalContractError, match="LAPACK info -1"):
        linalg._skew_canonical(np.array([[0.0, 5.0], [-5.0, 0.0]]))


def test_williamson_certifies_a_perturbed_skew_canonical_factor(monkeypatch):
    # Rotating two left singular vectors keeps q orthogonal but no longer
    # canonical for K; _skew_canonical does not re-check q, and williamson's
    # form defect M.T J M - J = -(S q.T K^-1 q S + J) must see the damage.
    gesdd = linalg._GESDD

    def rotated_u(b, **kwargs):
        u, s, vt, info = gesdd(b, **kwargs)
        c, t = np.cos(1e-3), np.sin(1e-3)
        return u @ np.array([[c, -t, 0.0], [t, c, 0.0], [0.0, 0.0, 1.0]]), s, vt, info

    a = random_pd(3, np.random.default_rng(31))
    monkeypatch.setattr(linalg, "_GESDD", rotated_u)
    with pytest.raises(NumericalContractError, match="basis form defect"):
        williamson(a)


SKEW_ROUTES = {"canonical": linalg._skew_canonical, "spectrum": linalg._skew_spectrum}


def _random_skew(m, rng):
    x = rng.normal(size=(2 * m, 2 * m))
    return x - x.T


def test_skew_spectrum_equals_the_canonical_d():
    rng = np.random.default_rng(41)
    for m in [*range(1, 8), 50]:
        for _ in range(3):
            k = _random_skew(m, rng)
            ref = linalg._skew_canonical(k)[1]
            assert np.max(np.abs(linalg._skew_spectrum(k) - ref) / ref) <= 1e-14


_RANK_2 = np.random.default_rng(3).standard_normal((4, 2))


# The band step checks no input, but a K that is not finite or not skew
# cannot yield d: H = Z.T K Z is then not skew either, and the band
# certificate, which a NaN fails, measures exactly that defect of H.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", SKEW_ROUTES)
@pytest.mark.parametrize("k, error, match", [
    (np.full((4, 4), np.nan), NumericalContractError, "band defect nan"),
    (np.full((4, 4), np.inf), NumericalContractError, "band defect nan"),
    (np.triu(np.ones((4, 4)), 1), NumericalContractError, "band defect"),
    (np.zeros((2, 2)), ValidationError, "singular to working precision"),
    # Rank 2 in size 4: K = G J G.T with G of size 4 x 2.
    (_RANK_2 @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @ _RANK_2.T, ValidationError,
     "singular to working precision"),
], ids=["nan", "inf", "not-skew", "zero", "rank-deficient"])
def test_both_skew_routes_refuse_bad_input(route, k, error, match):
    with pytest.raises(error, match=match):
        SKEW_ROUTES[route](k)


@pytest.mark.parametrize("route", SKEW_ROUTES)
def test_both_skew_routes_map_lapack_and_svd_failures(route, monkeypatch):
    k = np.array([[0.0, 5.0], [-5.0, 0.0]])

    def no_convergence(a, **kwargs):
        return a, np.zeros(a.shape[0]), a, 1

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_GESDD", no_convergence)
        with pytest.raises(NumericalContractError, match="SVD failed"):
            SKEW_ROUTES[route](k)
    monkeypatch.setattr(linalg, "_GEHRD", lambda a, lwork: (a, np.zeros(1), -1))
    with pytest.raises(NumericalContractError, match="LAPACK info -1"):
        SKEW_ROUTES[route](k)


@pytest.mark.parametrize("route", SKEW_ROUTES)
def test_both_skew_routes_certify_the_hessenberg_band(route, monkeypatch):
    # One entry above the super-diagonal of H, which the band drops.
    k = _random_skew(3, np.random.default_rng(31))
    gehrd = linalg._GEHRD

    def off_band(a, lwork):
        ht, tau, info = gehrd(a, lwork=lwork)
        ht = ht.copy()
        ht[0, 3] += 1e-6 * fnorm(k)
        return ht, tau, info

    SKEW_ROUTES[route](k)
    monkeypatch.setattr(linalg, "_GEHRD", off_band)
    with pytest.raises(NumericalContractError, match="band defect"):
        SKEW_ROUTES[route](k)


def test_svd_keeps_one_workspace_per_shape_and_flag_pair(monkeypatch):
    monkeypatch.setattr(linalg, "_GESDD_WORK", {})
    rng = np.random.default_rng(29)
    flags = [(uv, full) for uv in (0, 1) for full in (0, 1)]
    for m in range(1, 11):
        for n in range(1, 11):
            a = rng.standard_normal((m, n))
            for uv, full in flags:
                lwork = int(linalg._GESDD_LWORK(m, n, uv, full)[0])
                u, s, vt, _ = linalg._GESDD(a, compute_uv=uv, full_matrices=full, lwork=lwork)
                for _ in range(2):  # the query, then the kept entry
                    got = linalg._svd(a, uv, full)
                    assert linalg._GESDD_WORK[(m, n, uv, full)] == lwork
                    assert got[1].tobytes() == s.tobytes()
                    if uv:
                        assert got[0].flags.c_contiguous and got[2].flags.c_contiguous
                        assert got[0].tobytes() == np.ascontiguousarray(u).tobytes()
                        assert got[2].tobytes() == np.ascontiguousarray(vt).tobytes()
    # A thin and a full query of one shape are separate entries.
    assert len(linalg._GESDD_WORK) == 10 * 10 * len(flags)


def _diagonal_skew(d, sign):
    """sign * L.T J L for A = diag(d, d): a band with exact zeros."""
    a = np.diag(np.concatenate([d, d]))
    return sign * core._cholesky_skew(np.linalg.cholesky(a))


def test_hessenberg_band_equals_the_dense_construction_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(53)
    inputs = [_random_skew(int(rng.integers(1, 8)), rng) for _ in range(50)]
    inputs += [_diagonal_skew(np.array(d), sign)
               for d in ([1.0, 2.0, 3.0], [2.0, 5.0]) for sign in (1.0, -1.0)]
    values = []
    monkeypatch.setattr(linalg, "_contract", lambda name, value, bound, detail="":
                        values.append(value))
    for k in inputs:
        ht, tau, b = linalg._hessenberg_band(k)
        e = 0.5 * (ht.diagonal(-1) - ht.diagonal(1))
        assert values.pop() == fnorm(np.triu(ht) + np.diag(e, 1))
        dense = np.diag(-e[0::2]) + np.diag(e[1::2], -1)
        assert b.flags.c_contiguous and b.tobytes() == dense.tobytes()


@pytest.mark.parametrize("m", [1, 2, 5, 14])
def test_below_is_a_shared_read_only_strictly_lower_mask(m):
    mask = linalg._below(m)
    assert mask.dtype == bool and np.array_equal(mask, np.tri(m, m, -1, dtype=bool))
    assert linalg._below(m) is mask and not mask.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 0] = True
    x = np.asfortranarray(np.random.default_rng(m).normal(size=(m, m)))
    assert np.where(mask, 0.0, x).tobytes() == np.triu(x).tobytes()
    # mask.T is in Fortran order, so this result is too: compare values.
    assert np.array_equal(np.where(mask.T, 0.0, x), np.tril(x))
    assert np.where(mask, x, 0.0).tobytes() == np.tril(x, -1).tobytes()
