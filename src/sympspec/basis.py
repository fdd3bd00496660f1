"""Geometry relative to a symplectic basis: coordinates, the prime map,
sharp subspaces, and the constructive chain machinery.

A SymplecticBasis holds 2n columns (u_1..u_n, v_1..v_n) of R^(2n)
pairing to the identity under the symplectic form, so it spans the whole
space and every vector has coordinates.  The coordinates turn the basis
inner product into the Euclidean one, the prime map into the linear map
(a, b) -> (-b, a), and the symplectic form into the standard one, so
every structural computation below happens on coordinate vectors with
plain Euclidean linear algebra.

Subspaces are passed and returned as ambient matrices with orthonormal
columns.  Randomized existence steps draw inside explicitly computed
feasible subspaces; a construction that fails raises, and callers that
sample many constructions count it as skipped.

Every containment check is one projection: y lies in span(g) when
||y - g g^T y|| is small, with g the orthonormal basis the caller
already holds (_off_span).  Membership in W# = W intersect W' follows
the definition, x in W# exactly when x and x' both lie in W, so no check
computes an intersection; only the constructions do.
"""

from __future__ import annotations

import numpy as np

from .core import _form_defect, apply_form, as_generator, symplectic_gram
from .errors import ConstructionError, ValidationError, _check_int, _contract
from .linalg import (
    INTERSECT_COS_TOL,
    _check_finite,
    _real,
    _svd,
    fnorm,
    null_space_basis,
    orthonormal_columns,
    subspace_intersect,
)

BASIS_TOL = 1e-8


def prime_coords(a):
    """The prime map in basis coordinates, -J: (alpha, beta) -> (-beta, alpha)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0] // 2
    return np.concatenate([-a[n:], a[:n]])


class SymplecticBasis:
    """Columns (u_1..u_n, v_1..v_n) of R^(2n) with <u_i, J v_j> = delta_ij
    and all other pairings zero: a symplectic basis of the whole space.
    """

    def __init__(self, cols):
        cols = _real(cols, "basis columns")
        if (cols.ndim != 2 or cols.shape[0] != cols.shape[1]
                or cols.shape[0] == 0 or cols.shape[0] % 2 == 1):
            raise ValidationError(f"basis columns have invalid shape {cols.shape}")
        _check_finite(cols, "basis columns")
        n = cols.shape[0] // 2
        defect = _form_defect(cols)
        if not defect <= BASIS_TOL:
            raise ValidationError(
                f"columns are not symplectically orthonormal: defect {defect:.3e}"
            )
        self.cols = cols
        self.n = n
        u, v = cols[:, :n], cols[:, n:]
        # Row i of the top block is (J v_i)^T, so it reads off alpha_i;
        # the bottom block reads off beta_i.  Exact inverse of cols.
        self._coord = np.concatenate([apply_form(v).T, -apply_form(u).T])

    @classmethod
    def standard(cls, n):
        return cls(np.eye(2 * _check_int("n", n, minimum=1)))

    @property
    def u(self):
        return self.cols[:, : self.n]

    @property
    def v(self):
        return self.cols[:, self.n :]

    def coords(self, x):
        """Coordinates (alpha, beta) of x, with x = lift(coords(x))."""
        return self._coord @ np.asarray(x, dtype=float)

    def lift(self, a):
        return self.cols @ np.asarray(a, dtype=float)

    def prime(self, x):
        """B-complement x': coordinates (alpha, beta) -> (-beta, alpha)."""
        return self.lift(prime_coords(self.coords(x)))

def _coords_subspace(w, basis):
    """Coordinate-space orthonormal basis of an ambient subspace."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != 2 * basis.n:
        raise ValidationError(f"subspace basis has invalid shape {w.shape}")
    return orthonormal_columns(basis.coords(w))


def _sharp_std(g):
    """Coordinate-space W-sharp = W intersect W-prime; g has orthonormal
    columns.

    With S = g^T P g the k x k skew matrix of the prime map P on span(g),
    x = g c lies in W-sharp exactly when P x lies in span(g), that is
    when ||S c|| = ||c||.  So W-sharp is g times the right singular
    vectors of S with singular value within INTERSECT_COS_TOL of 1, the
    principal directions of span(g) against span(P g) (Bjorck and Golub,
    "Numerical methods for computing angles between linear subspaces",
    Math. Comp. 27, 1973), and one k x k SVD finds them.
    """
    _, sig, vt = _svd(g.T @ prime_coords(g))
    return g @ vt[sig >= 1.0 - INTERSECT_COS_TOL].T


def _off_span(y, g):
    """||y - g g^T y||_F, the part of y outside span(g), 0 for empty y;
    g has orthonormal columns.  For orthonormal y it bounds the sine of
    the largest principal angle between span(y) and span(g) from above."""
    return fnorm(y - g @ (g.T @ y))


def _sharp_residual(x, g):
    """||[x, x'] - g g^T [x, x']||_F / ||x||, zero exactly when the nonzero
    coordinate vector x lies in sharp(span g); g has orthonormal columns."""
    return _off_span(np.stack([x, prime_coords(x)], axis=1), g) / fnorm(x)


def _nested(s, t):
    """True when span(s) lies inside span(t); both have orthonormal columns."""
    return _off_span(s, t) <= 1e-7


def same_span_trace_check(a, x_set, v_set, basis, check=True):
    """Trace identity for two B-orthosymplectic tuples with equal span.

    Returns (lhs, rhs) with lhs = sum_j (<x_j, A x_j> + <x_j', A x_j'>)
    and rhs the same for the v_j.  Precondition: the two tuples are the
    pair one dual_chain_construct call returned, which raises unless each
    tuple with its primes is B-orthosymplectic and both have the same
    span; so lhs and rhs are traces of A over one subspace and agree,
    which check=True enforces within 1e-9 relative.
    """
    a = np.asarray(a, dtype=float)
    x_set = np.asarray(x_set, dtype=float)
    v_set = np.asarray(v_set, dtype=float)
    if x_set.shape != v_set.shape:
        raise ValidationError(
            f"tuple shapes {x_set.shape} and {v_set.shape} differ"
        )
    xc = basis.coords(x_set)
    vc = basis.coords(v_set)
    xa = basis.lift(np.concatenate([xc, prime_coords(xc)], axis=1))
    va = basis.lift(np.concatenate([vc, prime_coords(vc)], axis=1))
    lhs = float((xa * (a @ xa)).sum())
    rhs = float((va * (a @ va)).sum())
    if check:
        _contract("trace equality violated: gap", abs(lhs - rhs), 1e-9 * max(1.0, abs(lhs)),
                  f" (lhs {lhs:.12e}, rhs {rhs:.12e})")
    return lhs, rhs


def _unit_in(g, rng):
    """Random unit vector in the span of g, whose columns are orthonormal,
    so the one draw c has ||g c|| = ||c|| > 0."""
    if g.shape[1] == 0:
        raise ConstructionError("feasible subspace is empty")
    x = g @ rng.standard_normal(g.shape[1])
    return x / fnorm(x)


def _constrained_subspace(g, constraints):
    """Vectors in span(g) skew-orthogonal to every constraint column."""
    if g.shape[1] == 0 or constraints.shape[1] == 0:
        return g
    return g @ null_space_basis(symplectic_gram(constraints, g))


def _chain_extend_std(chain, ws, rng):
    """Coordinate-space chain extension.

    chain: decreasing list of k coordinate subspaces; ws: k-1 columns,
    B-orthonormal, mutually skew-orthogonal, ws[:, j] in sharp(chain[j]).
    Returns (v, x) with v a fresh unit in sharp(chain[0]) skew-orthogonal
    to the ws, and x a k-column B-orthonormal skew-orthogonal set with
    x[:, j] in sharp(chain[j]) whose pair span is span(ws pairs) plus
    span{v, v'}.
    """
    k = len(chain)
    if k == 1:
        sharp1 = _sharp_std(chain[0])
        v = _unit_in(sharp1, rng)
        return v, v[:, None]

    u, xs = _chain_extend_std(chain[1:], ws[:, 1:], rng)
    uspan = np.concatenate([ws, prime_coords(ws)], axis=1)
    sharp1 = _sharp_std(chain[0])
    feas = _constrained_subspace(sharp1, uspan)

    # Split u into its component inside the pair span and the rest; the
    # rest already lies in the feasible space, so snapping it onto the
    # computed basis of that space keeps memberships exact even when the
    # component is tiny.  A vanishing component means any fresh unit works.
    u2 = u - uspan @ (uspan.T @ u)
    proj = feas @ (feas.T @ u2)
    nrm = fnorm(proj)
    v = proj / nrm if nrm > 1e-10 else _unit_in(feas, rng)

    # v lies in the feasible space, skew-orthogonal to the prime-closed
    # uspan, so the stack is orthonormal and z, its part beside the pairs
    # of xs, a plane; _check_built certifies the tuple this returns.
    u0 = np.concatenate([uspan, v[:, None], prime_coords(v)[:, None]], axis=1)
    s = np.concatenate([xs, prime_coords(xs)], axis=1)
    z = u0 @ null_space_basis(s.T @ u0)
    v1 = _unit_in(z, rng)
    return v, np.concatenate([v1[:, None], xs], axis=1)


def _dual_chain_std(vchain, wchain, rng):
    """Coordinate-space dual-chain construction (equal-span tuples)."""
    k = len(vchain)
    if k == 1:
        f = subspace_intersect(_sharp_std(vchain[0]), _sharp_std(wchain[0]))
        x = _unit_in(f, rng)
        return x[:, None], x[:, None]

    vs, xs = _dual_chain_std(vchain[:-1], wchain[:-1], rng)
    s_chain = [subspace_intersect(vchain[-1], w) for w in wchain]
    v, ws_new = _chain_extend_std(s_chain, xs, rng)
    # v is already B-orthogonal to the span of the previous pairs, so
    # this projection only strips rounding noise.
    pairs = np.concatenate([xs, prime_coords(xs)], axis=1)
    vk = v - pairs @ (pairs.T @ v)
    vk /= fnorm(vk)
    return np.concatenate([vs, vk[:, None]], axis=1), ws_new


def _check_built(cols, chain):
    """Raise unless cols with its primes is B-orthosymplectic and each
    cols[:, j] lies in sharp(chain[j]); returns the tuple with primes."""
    full = np.concatenate([cols, prime_coords(cols)], axis=1)
    _contract("constructed tuple defects: orthonormality",
              fnorm(full.T @ full - np.eye(full.shape[1])), BASIS_TOL)
    _contract("constructed tuple defects: form",
              _form_defect(full), BASIS_TOL)
    for j in range(cols.shape[1]):
        _contract(f"constructed vector {j} left its sharp space: residual",
                  _sharp_residual(cols[:, j], chain[j]), BASIS_TOL)
    return full


def dual_chain_construct(vchain, wchain, basis, rng):
    """Equal-span tuples threading an increasing and a decreasing chain.

    dim vchain[j] = n + i_j and dim wchain[j] = 2n - i_j + 1 for one
    strictly increasing index set i.  Returns ambient (v, w), each a
    k-column set with v[:, j] in sharp(vchain[j]) and w[:, j] in
    sharp(wchain[j]); each set together with its primes is
    B-orthosymplectic and both have the same span.  An empty feasible
    space or a built tuple off its contract raises; there is no retry.
    """
    rng = as_generator(rng)
    k = len(vchain)
    if k == 0 or len(wchain) != k:
        raise ValidationError("chains must be nonempty and of equal length")
    n = basis.n
    vchain_c = [_coords_subspace(w, basis) for w in vchain]
    wchain_c = [_coords_subspace(w, basis) for w in wchain]
    idx = []
    for j in range(k):
        i_v = vchain_c[j].shape[1] - n
        i_w = 2 * n - wchain_c[j].shape[1] + 1
        if i_v != i_w or not 1 <= i_v <= n:
            raise ValidationError(
                f"chain dimensions at position {j} do not match the pattern: "
                f"{vchain_c[j].shape[1]} and {wchain_c[j].shape[1]}"
            )
        idx.append(i_v)
    if any(idx[j] >= idx[j + 1] for j in range(k - 1)):
        raise ValidationError(f"index set {idx} is not strictly increasing")
    for j in range(1, k):
        if not _nested(vchain_c[j - 1], vchain_c[j]):
            raise ValidationError(f"increasing chain fails nesting at position {j}")
        if not _nested(wchain_c[j], wchain_c[j - 1]):
            raise ValidationError(f"decreasing chain fails nesting at position {j}")

    vs_c, ws_c = _dual_chain_std(vchain_c, wchain_c, rng)
    vf = _check_built(vs_c, vchain_c)
    wf = _check_built(ws_c, wchain_c)
    _contract("constructed spans differ by residual", _off_span(vf, wf), BASIS_TOL)
    return basis.lift(vs_c), basis.lift(ws_c)
