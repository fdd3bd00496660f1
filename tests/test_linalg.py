"""Dense linear-algebra helpers against hand-computed cases."""

import importlib.util
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy
from scipy.linalg import lapack

from sympspec import core, errors, extremal, linalg
from sympspec.core import random_pd, williamson
from sympspec.errors import NumericalContractError, ValidationError
from sympspec.linalg import (
    check_symmetric,
    fnorm,
    max_principal_angle,
    null_space_basis,
    orthonormal_columns,
    span_residual,
    subspace_meet,
    sym_eig,
)

RNG = np.random.default_rng(101)


# Run in a fresh interpreter: the CLI's import must not load scipy.linalg,
# and once scipy.linalg is loaded, every _flapack handle of the package must
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
handles = {"gehrd": linalg._GEHRD, "orghr": linalg._ORGHR,
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
# the verification layers or top-level scipy, and mean the inequalities
# module alone on top of those.  No command and no suite, a replayed
# construction trial (which draws with random_symplectic) and a full
# default run_all included, imports scipy or scipy.linalg, and none, a
# verify run with --jobs 4 included, imports concurrent.futures; an
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
assert main(["verify", "--suite", "lidskii-add", "--trials", "2", "--jobs", "4",
             "--report", "j.json"]) == 0
from sympspec.harness import SuiteConfig, run_all
run_all(SuiteConfig(report_path=None))
loaded = [m for m in ("scipy.linalg", "scipy", "concurrent.futures") if m in sys.modules]
assert not loaded, loaded
import scipy.linalg
from sympspec.linalg import _GEHRD
assert np.allclose(scipy.linalg.expm(np.diag([0.0, 1.0])), np.diag([1.0, np.e]))
p, l, u = scipy.linalg.lu(np.array([[1.0, 2.0], [3.0, 4.0]]))
assert np.allclose(p @ l @ u, [[1.0, 2.0], [3.0, 4.0]])
assert scipy.linalg.get_lapack_funcs("gehrd", dtype=np.float64) is _GEHRD
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


def _lapack_svd(a, mode):
    """(u, s, vt), or s alone in mode "N", from scipy's dgesdd with the
    workspace its query asks for, the factors in C order."""
    uv, full = {"A": (1, 1), "S": (1, 0), "N": (0, 0)}[mode]
    lwork = int(lapack.dgesdd_lwork(*a.shape, uv, full)[0])
    u, s, vt, info = lapack.dgesdd(a, compute_uv=uv, full_matrices=full, lwork=lwork)
    assert info == 0
    return (np.ascontiguousarray(u), s, np.ascontiguousarray(vt)) if uv else s


def _gufunc_svd(a, mode):
    return linalg._svdvals(a) if mode == "N" else linalg._svd(a, full_matrices=mode == "A")


def _same_bits(got, want):
    if isinstance(want, tuple):
        return all(_same_bits(g, w) for g, w in zip(got, want, strict=True))
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _failing(gufunc):
    """gufunc as it behaves when LAPACK fails: run on NaN input, it gives
    NaN and raises the invalid flag, by which numpy reports a failure."""
    def failed(*args, signature):
        return gufunc(*(np.full_like(x, np.nan) for x in args), signature=signature)
    return failed


@pytest.mark.parametrize("mode", ["A", "S", "N"])
def test_the_svd_routes_equal_scipys_dgesdd_bit_for_bit(mode):
    # The gufunc routes replaced scipy's dgesdd; on square and non-square
    # shapes they give its bits in each of its three modes.
    rng = np.random.default_rng(29)
    for m in range(1, 17):
        for n in range(1, 17):
            a = rng.standard_normal((m, n))
            got = _gufunc_svd(a, mode)
            assert _same_bits(got, _lapack_svd(a, mode)), (m, n)
            if mode != "N":
                assert got[0].flags.c_contiguous and got[2].flags.c_contiguous


# The factors of a 200 x 200 SVD come from threaded BLAS products, which
# numpy's and scipy's OpenBLAS builds split differently between threads,
# so the comparison runs at one BLAS thread, in a fresh interpreter.
_BAND_SVD = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np
from scipy.linalg import lapack
from sympspec import linalg
k = np.random.default_rng(200).standard_normal((400, 400))
b = linalg._hessenberg_band(k - k.T)[2]
assert b.shape == (200, 200)
for mode, (uv, full) in {"A": (1, 1), "S": (1, 0), "N": (0, 0)}.items():
    lwork = int(lapack.dgesdd_lwork(200, 200, uv, full)[0])
    u, s, vt, info = lapack.dgesdd(b, compute_uv=uv, full_matrices=full, lwork=lwork)
    assert info == 0
    if uv:
        got = linalg._svd(b, full_matrices=bool(full))
        want = (np.ascontiguousarray(u), s, np.ascontiguousarray(vt))
    else:
        got, want = (linalg._svdvals(b),), (s,)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), mode
"""


def test_the_svd_routes_of_a_200_band_equal_scipys_dgesdd_bit_for_bit():
    _run_fresh(_BAND_SVD)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 50, 100])
def test_the_eigensolve_routes_equal_scipys_dsyevd_bit_for_bit(n):
    # numpy's eigh gufunc replaced scipy's dsyevd on the lower triangle,
    # in _eigh and in sym_eig, which calls it.
    rng = np.random.default_rng(60 + n)
    for _ in range(3):
        s = random_pd(n, rng)
        w, v, info = lapack.dsyevd(s, lower=1)
        assert info == 0
        want = (w, np.ascontiguousarray(v))
        for got in (linalg._eigh(s), sym_eig(s)):
            assert _same_bits(got, want)


@pytest.mark.parametrize("dim", [1, 2, 5, 10, 14, 40])
def test_random_orthogonal_equals_scipys_dgeqrf_and_dorgqr_bit_for_bit(dim):
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal((dim, dim))
        qr, tau, _, info = lapack.dgeqrf(x)
        assert info == 0
        q, _, info = lapack.dorgqr(qr, tau)
        assert info == 0
        want = np.multiply(q, np.sign(qr.diagonal()), order="C")
        got = extremal.random_orthogonal(dim, np.random.default_rng(seed))
        assert got.flags.c_contiguous and _same_bits(got, want)


def test_one_failed_eigensolve_is_refused_by_the_gufunc_flag(monkeypatch):
    # sym_eig calls the gufunc through _factor, which raises the flag by
    # which a dsyevd failure is reported, before any residual is taken.
    monkeypatch.setattr(linalg, "_EIGH", _failing(linalg._EIGH))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalContractError, match="LAPACK factorization failed"):
            sym_eig(random_pd(2, np.random.default_rng(3)))


def test_an_eigensolve_off_its_residual_is_refused(monkeypatch):
    eigh = linalg._EIGH

    def spoiled(s, signature):
        w, v = eigh(s, signature=signature)
        v[0, 0] += 1e-6
        return w, v

    monkeypatch.setattr(linalg, "_EIGH", spoiled)
    with pytest.raises(NumericalContractError, match="eigendecomposition residual"):
        sym_eig(random_pd(2, np.random.default_rng(3)))


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


def _norm_route_angle(u, w):
    """max_principal_angle with each sine residual's 2-norm taken by
    numpy.linalg.norm(., 2), as it was taken before the values-only SVD."""
    uo, wo = orthonormal_columns(u), orthonormal_columns(w)
    s1 = np.linalg.norm(wo - uo @ (uo.T @ wo), 2)
    s2 = np.linalg.norm(uo - wo @ (wo.T @ uo), 2)
    return float(np.arcsin(min(1.0, max(s1, s2))))


def test_max_principal_angle_equals_the_numpy_norm_route_bit_for_bit():
    rng = np.random.default_rng(77)
    for _ in range(300):
        dim = int(rng.integers(2, 13))
        u = rng.standard_normal((dim, int(rng.integers(1, dim + 1))))
        # Half the pairs are nearly equal spans, where the angle is tiny.
        if rng.random() < 0.5:
            w = u + 10.0 ** rng.uniform(-12, -3) * rng.standard_normal(u.shape)
        else:
            w = rng.standard_normal((dim, int(rng.integers(1, dim + 1))))
        got = max_principal_angle(u, w)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(_norm_route_angle(u, w)).tobytes()


def test_max_principal_angle_small_angles_not_flushed():
    # arccos of a cosine loses tiny angles; the sine path keeps them.
    theta = 1e-9
    x = np.eye(4)[:, :1]
    y = np.array([[np.cos(theta)], [np.sin(theta)], [0.0], [0.0]])
    assert max_principal_angle(x, y) == pytest.approx(theta, rel=1e-4)


def test_subspace_meet_shared_line():
    # span{e1, e2} meets the complement of span{e1, e4} in the line e2.
    z = subspace_meet(np.eye(4)[:, :2], np.eye(4)[:, [0, 3]])
    assert z.shape == (4, 1)
    assert abs(abs(z[1, 0]) - 1.0) < 1e-12


def test_subspace_meet_trivial():
    assert subspace_meet(np.eye(4)[:, :1], np.eye(4)[:, :1]).shape == (4, 0)
    # With nothing to leave out, the meet is g itself.
    g = np.eye(4)[:, :2]
    assert subspace_meet(g, np.zeros((4, 0))) is g


def test_subspace_meet_refuses_a_non_orthonormal_input():
    q = orthonormal_columns(RNG.normal(size=(6, 3)))
    with pytest.raises(NumericalContractError, match="not orthonormal"):
        subspace_meet(q, 2.0 * q)


def test_subspace_meet_keeps_all_of_a_span_inside_the_complement_up_to_rounding():
    # perp^T g is rounding noise, all of it far below the absolute
    # threshold; a threshold relative to the largest singular value, as
    # null_space_basis takes, reads that noise as rank and keeps nothing.
    q = extremal.random_orthogonal(8, np.random.default_rng(31))
    g, perp = q[:, :3], q[:, 3:6]
    z = subspace_meet(g, perp)
    assert z.shape == (8, 3)
    assert max_principal_angle(z, g) <= 1e-12
    assert null_space_basis(perp.T @ g).shape == (3, 0)


@pytest.mark.parametrize("cos_gap, kept", [(0.5, 1), (2.0, 0)])
def test_subspace_meet_keeps_a_direction_with_cosine_within_the_tolerance(cos_gap, kept):
    # Cosine 1 - cos_gap * tol to the complement of e2: its sine is the
    # one singular value of perp^T g.
    cos = 1.0 - cos_gap * errors._TOL["principal cosine"]
    g = np.array([[cos], [np.sqrt(1.0 - cos * cos)], [0.0]])
    assert subspace_meet(g, np.eye(3)[:, 1:2]).shape == (3, kept)


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


def test_skew_canonical_maps_svd_failure(monkeypatch):
    monkeypatch.setattr(linalg, "_SVD_F", _failing(linalg._SVD_F))
    with pytest.raises(NumericalContractError, match="LAPACK factorization failed"):
        linalg._skew_canonical(np.array([[0.0, 5.0], [-5.0, 0.0]]))


@pytest.mark.parametrize("route", ["_svd", "_svdvals", "_eigh"])
def test_each_one_matrix_route_raises_a_lapack_failure(route, monkeypatch):
    handle = {"_svd": "_SVD_F", "_svdvals": "_SVD", "_eigh": "_EIGH"}[route]
    a = random_pd(2, np.random.default_rng(4))
    getattr(linalg, route)(a)
    monkeypatch.setattr(linalg, handle, _failing(getattr(linalg, handle)))
    with pytest.raises(NumericalContractError,
                       match="LAPACK factorization failed: the gufunc flagged an invalid value"):
        getattr(linalg, route)(a)


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
    svd = linalg._SVD_F

    def rotated_u(b, signature):
        u, s, vt = svd(b, signature=signature)
        c, t = np.cos(1e-3), np.sin(1e-3)
        return u @ np.array([[c, -t, 0.0], [t, c, 0.0], [0.0, 0.0, 1.0]]), s, vt

    a = random_pd(3, np.random.default_rng(31))
    monkeypatch.setattr(linalg, "_SVD_F", rotated_u)
    with pytest.raises(NumericalContractError, match="basis form defect"):
        williamson(a)


SKEW_ROUTES = {"canonical": linalg._skew_canonical, "spectrum": linalg._skew_spectrum}
# What each route's refusal of a K that is not finite names: the failure
# flag of the bidiagonal SVD of the band, or the pairing defect of the
# SVD of K.
ROUTE_CONTRACT = {"canonical": "LAPACK factorization failed", "spectrum": "pairing defect nan"}


def _random_skew(m, rng):
    x = rng.normal(size=(2 * m, 2 * m))
    return x - x.T


def test_skew_spectrum_equals_the_canonical_d():
    # Up to m = 7 the SVD of K and the band agree to 1e-14 of each d.
    # Both are backward stable, so each d lies within a small multiple of
    # eps ||K||_2 = eps d_n of the truth, and at larger m no closer in
    # relative terms: against a 30-digit reference, each misses d_1 by up
    # to 6e-14 of d_1 on these draws at m = 50.
    rng = np.random.default_rng(41)
    for m in [*range(1, 8), 9, 20, 50, 100, 200]:
        for _ in range(3):
            k = _random_skew(m, rng)
            ref = linalg._skew_canonical(k)[1]
            gap = np.abs(linalg._skew_spectrum(k) - ref)
            if m <= 7:
                assert np.max(gap / ref) <= 1e-14
            else:
                assert np.max(gap) <= 4 * m * linalg.EPS * ref[-1]


@pytest.mark.parametrize("n", [20, 50, 100])
def test_both_skew_routes_give_a_degenerate_spectrum_its_one_value(n):
    # S.T diag(c 1, c 1) S for a random symplectic S, as the spectra
    # benchmark draws it: every d is c.
    rng = np.random.default_rng(70 + n)
    for _ in range(3):
        c = rng.uniform(0.5, 2.0)
        k = core._cholesky_skew(np.linalg.cholesky(random_pd(n, rng, spectrum=np.full(n, c))))
        for d in (linalg._skew_spectrum(k), linalg._skew_canonical(k)[1]):
            assert np.max(np.abs(d - c)) <= 1e-13 * c


def _factor_stack(n, m, rng):
    """m Cholesky factors of random_pd draws of half-dimension n."""
    return np.stack([np.linalg.cholesky(random_pd(n, rng)) for _ in range(m)])


@pytest.mark.parametrize("n", [*range(1, 10), 20])
def test_a_stacked_spectrum_has_the_bits_of_one_at_a_time_calls(n):
    rng = np.random.default_rng(100 + n)
    for m in (1, 2, 17, 150):
        factors = _factor_stack(n, m, rng)
        stack = core._cholesky_skew(factors)
        outcomes = linalg._skew_spectrum(stack)
        assert isinstance(outcomes, list) and len(outcomes) == m
        for f, k, d in zip(factors, stack, outcomes):
            one = core._cholesky_skew(f)
            assert one.tobytes() == k.tobytes()
            assert linalg._skew_spectrum(one).tobytes() == d.tobytes()


_RANK_2 = np.random.default_rng(3).standard_normal((4, 2))


# Neither route checks its input, but a K that is not finite cannot
# yield d: dgehrd leaves a band of NaN, whose SVD raises the gufunc's
# failure flag, and the SVD of K gives it a NaN pairing defect.  A K that
# is not skew has unpaired singular values, which only the spectrum route
# measures: the one caller of the canonical route, core.williamson, forms
# its K exactly skew.
_BAD_K = {
    "nan": (np.full((4, 4), np.nan), NumericalContractError, "{}"),
    "inf": (np.full((4, 4), np.inf), NumericalContractError, "{}"),
    "zero": (np.zeros((2, 2)), ValidationError, "singular to working precision"),
    # Rank 2 in size 4: K = G J G.T with G of size 4 x 2.
    "rank-deficient": (_RANK_2 @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @ _RANK_2.T,
                       ValidationError, "singular to working precision"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route, k, error, match", [
    pytest.param(route, *case, id=f"{name}-{route}")
    for name, case in _BAD_K.items() for route in SKEW_ROUTES
] + [pytest.param("spectrum", np.triu(np.ones((4, 4)), 1), NumericalContractError,
                  "pairing defect", id="not-skew-spectrum")])
def test_both_skew_routes_refuse_bad_input(route, k, error, match):
    with pytest.raises(error, match=match.format(ROUTE_CONTRACT[route])):
        SKEW_ROUTES[route](k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_k_is_refused_before_lapack_and_alone(bad, monkeypatch, capfd):
    rng = np.random.default_rng(7)
    stack = core._cholesky_skew(_factor_stack(2, 3, rng))
    clean = linalg._skew_spectrum(stack)
    # Skew as the input contract has it, so the stack holds inf and -inf.
    stack[1, 0, 3], stack[1, 3, 0] = bad, -bad
    seen = []
    svd = linalg._SVD

    def recording(k, signature):
        seen.append(np.isfinite(k).all())
        return svd(k, signature=signature)

    monkeypatch.setattr(linalg, "_SVD", recording)
    outcomes = linalg._skew_spectrum(stack)
    assert seen == [True]
    assert capfd.readouterr().err == ""
    assert isinstance(outcomes[1], NumericalContractError)
    assert "pairing defect nan" in str(outcomes[1])
    for i in (0, 2):
        assert outcomes[i].tobytes() == clean[i].tobytes()


def test_an_svd_failure_refuses_its_own_matrix_only(monkeypatch):
    # numpy's SVD gufunc reports a matrix on which dgesdd fails as NaN
    # singular values with the invalid flag raised; the flag is ignored
    # and the NaN fails that matrix's pairing defect.
    stack = core._cholesky_skew(_factor_stack(3, 4, np.random.default_rng(8)))
    clean = linalg._skew_spectrum(stack)
    svd = linalg._SVD

    def fails_on_2(k, signature):
        s = svd(k, signature=signature)
        s[2] = np.sqrt(-np.ones(s.shape[1]))
        return s

    monkeypatch.setattr(linalg, "_SVD", fails_on_2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = linalg._skew_spectrum(stack)
    assert isinstance(outcomes[2], NumericalContractError)
    assert str(outcomes[2]).startswith("pairing defect nan")
    for i in (0, 1, 3):
        assert outcomes[i].tobytes() == clean[i].tobytes()
    with pytest.raises(NumericalContractError, match="pairing defect nan"):
        errors._value(outcomes[2])


def test_unpaired_singular_values_fail_the_pairing_defect(monkeypatch):
    # One value of each pair pulled apart by 1e-6 of ||K||_2.
    k = _random_skew(3, np.random.default_rng(9))
    norm = np.linalg.norm(k, 2)
    svd = linalg._SVD
    linalg._skew_spectrum(k)
    monkeypatch.setattr(linalg, "_SVD", lambda k, signature:
                        svd(k, signature=signature) * [1.0, 1.0 - 1e-6, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NumericalContractError, match="pairing defect") as info:
        linalg._skew_spectrum(k)
    assert f"exceeds {1e-9 * norm:.3e}" in str(info.value)


def test_skew_canonical_maps_lapack_and_svd_failures(monkeypatch):
    k = _random_skew(1, np.random.default_rng(5))

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_SVD_F", _failing(linalg._SVD_F))
        with pytest.raises(NumericalContractError, match="LAPACK factorization failed"):
            linalg._skew_canonical(k)
    monkeypatch.setattr(linalg, "_GEHRD", lambda a, lwork: (a, np.zeros(1), -1))
    with pytest.raises(NumericalContractError, match="LAPACK info -1"):
        linalg._skew_canonical(k)


@pytest.mark.parametrize("seed", range(5))
def test_williamson_refuses_the_basis_of_a_faulty_reduction(seed, monkeypatch):
    # dgehrd reduces K + E, ||E||_F = 1e-6 ||K||_F, in place of K: the
    # basis built from that band is canonical for K + E, and the form
    # defect of williamson's basis M refuses it.
    rng = np.random.default_rng(31 + seed)
    a = random_pd(3, rng)
    gehrd = linalg._GEHRD

    def faulty(k, lwork):
        e = rng.standard_normal(k.shape)
        return gehrd(k + 1e-6 * fnorm(k) / fnorm(e) * e, lwork=lwork)

    williamson(a)
    monkeypatch.setattr(linalg, "_GEHRD", faulty)
    with pytest.raises(NumericalContractError, match="basis form defect"):
        williamson(a)


@pytest.mark.parametrize("k, error, match", [
    (np.full((18, 18), np.nan), NumericalContractError, "pairing defect nan"),
    (np.triu(np.ones((18, 18)), 1), NumericalContractError, "pairing defect"),
    (np.zeros((18, 18)), ValidationError, "singular to working precision"),
], ids=["nan", "not-skew", "zero"])
def test_a_stack_at_n_9_refuses_each_matrix_alone(k, error, match):
    good = _random_skew(9, np.random.default_rng(6))
    outcomes = linalg._skew_spectrum(np.stack([good, k, good]))
    assert isinstance(outcomes[1], error)
    assert re.search(match, str(outcomes[1]))
    assert outcomes[0].tobytes() == outcomes[2].tobytes() == linalg._skew_spectrum(good).tobytes()


def _no_band(*args, **kwargs):
    raise AssertionError("Hessenberg band formed")


@pytest.mark.parametrize("n", [1, 8, 9, 20, 50])
def test_the_spectrum_never_forms_the_band(n, monkeypatch):
    rng = np.random.default_rng(60 + n)
    k = _random_skew(n, rng)
    stack = np.stack([_random_skew(n, rng) for _ in range(3)])
    monkeypatch.setattr(linalg, "_GEHRD", _no_band)
    monkeypatch.setattr(linalg, "_ORGHR", _no_band)
    assert linalg._skew_spectrum(k).shape == (n,)
    assert all(errors._value(d).shape == (n,) for d in linalg._skew_spectrum(stack))


def _diagonal_skew(d, sign):
    """sign * L.T J L for A = diag(d, d): a band with exact zeros."""
    a = np.diag(np.concatenate([d, d]))
    return sign * core._cholesky_skew(np.linalg.cholesky(a))


def test_hessenberg_band_equals_the_dense_construction_bit_for_bit():
    rng = np.random.default_rng(53)
    inputs = [_random_skew(int(rng.integers(1, 8)), rng) for _ in range(50)]
    inputs += [_diagonal_skew(np.array(d), sign)
               for d in ([1.0, 2.0, 3.0], [2.0, 5.0]) for sign in (1.0, -1.0)]
    for k in inputs:
        ht, tau, b = linalg._hessenberg_band(k)
        e = 0.5 * (ht.diagonal(-1) - ht.diagonal(1))
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
