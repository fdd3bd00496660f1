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
columns.  A construction works on a frame, the sharp spaces of the chain
members and the complements of the increasing ones, so each intersection
is one linalg.subspace_meet; its random draws stay in computed feasible
subspaces.  It is written over leading dimensions: one chain's frame
builds one chain, which raises on a failure (samplers count it skipped),
and a stack of frames builds every chain level by level, each step one
pass that draws for all chains at once, each chain judged by its own
contracts.  A stack whose chains part ways in a dimension raises
ConstructionError, and its chains are then built one at a time.

Every containment check is one projection: y lies in span(g) when
||y - g g^T y|| is small, with g the orthonormal basis the caller
already holds (_off_span), and x lies in W# = W intersect W' exactly
when x and x' both lie in W, so no check computes an intersection.
"""

from __future__ import annotations

import numpy as np

from .core import _apply_form, _form_arrays, _form_defect, _symmetric, as_generator
from .errors import ConstructionError, ValidationError, _bound, _check_int, _contract
from .linalg import (
    _QR_R_RAW,
    _QR_REDUCED,
    _SVD_F,
    _check_finite,
    _real,
    _svd,
    fnorm,
    null_space_basis,
    orthonormal_columns,
    subspace_meet,
)

_SHARP = 1.0 - _bound("principal cosine")  # least singular value of g^T P g marking W-sharp


def prime_coords(a):
    """The prime map in basis coordinates, -J: (alpha, beta) -> (-beta, alpha)."""
    return _prime(*_form_arrays(a))


def _prime(a):  # prime_coords of a checked a, or of each matrix of a stack
    if a.ndim < 3:
        n = a.shape[0] // 2
        return np.concatenate([-a[n:], a[:n]])
    n = a.shape[-2] // 2
    return np.concatenate([-a[..., n:, :], a[..., :n, :]], axis=-2)


def _tuple_gram(x, y):
    """x^T J y for coordinate column stacks, over leading dimensions."""
    n = x.shape[-2] // 2
    return x[..., :n, :].mT @ y[..., n:, :] - x[..., n:, :].mT @ y[..., :n, :]


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
        if not defect <= _bound("basis"):
            raise ValidationError(
                f"columns are not symplectically orthonormal: defect {defect:.3e}"
            )
        self.cols = cols
        self.n = n
        u, v = cols[:, :n], cols[:, n:]
        # Row i of the top block is (J v_i)^T, so it reads off alpha_i;
        # the bottom block reads off beta_i.  Exact inverse of cols.
        self._coord = np.concatenate([_apply_form(v).T, -_apply_form(u).T])

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
        return self._coord @ _form_arrays(x, self.cols)[0]

    def lift(self, a):
        return self.cols @ _form_arrays(a, self.cols)[0]

    def prime(self, x):
        """B-complement x': coordinates (alpha, beta) -> (-beta, alpha)."""
        return self.cols @ _prime(self.coords(x))

def _coords_subspace(w, basis):
    """Coordinate-space orthonormal basis of an ambient subspace."""
    w = _real(w, "subspace basis")
    if w.ndim != 2 or w.shape[0] != 2 * basis.n:
        raise ValidationError(f"subspace basis has invalid shape {w.shape}")
    return orthonormal_columns(basis._coord @ w)


def _sharp_std(g):
    """Coordinate-space W-sharp = W intersect W-prime; g has orthonormal
    columns; for a stack g (m, 2n, c), a list of the m sharp spaces from
    one SVD pass.

    With S = g^T P g the k x k skew matrix of the prime map P on span(g),
    x = g c lies in W-sharp exactly when P x lies in span(g), that is
    when ||S c|| = ||c||.  So W-sharp is g times the right singular
    vectors of S with singular value within errors._TOL["principal
    cosine"] of 1, the principal directions of span(g) against span(P g)
    (Bjorck and Golub, "Numerical methods for computing angles between
    linear subspaces", Math. Comp. 27, 1973), and one k x k SVD finds
    them.
    """
    _, sig, vt = _svd(g.mT @ _prime(g))
    if g.ndim == 2:
        return g @ vt[:np.count_nonzero(sig >= _SHARP)].T
    return [gi @ vi[:c].T for gi, vi, c in zip(g, vt, (sig >= _SHARP).sum(axis=1).tolist())]


@np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")
def _chain_frames(x, sizes):
    """The coordinate sharp spaces of the members of a stack of decreasing
    chains, chain i given by the coordinates x[i] (overwritten) of its
    largest member, whose leading sizes[j] columns span member j.  One QR
    pass frames every member, and the leading s x s block of Q^T P Q is
    what _sharp_std factors for the member of size s.  The invalid flag
    is ignored (linalg._paired): a chain whose NaN shows, or whose R
    diagonal falls below errors._TOL["rank"] times its largest, gets
    ConstructionError.
    """
    tau = _QR_R_RAW(x, signature="d->d")  # leaves R on and above x's diagonals
    r = np.abs(np.diagonal(x, axis1=1, axis2=2))
    g = _QR_REDUCED(x, tau, signature="dd->d")
    gram = g.mT @ _prime(g)
    ok = r.min(axis=1) >= _bound("rank") * r.max(axis=1)  # a NaN fails
    frames = [[] for _ in g]
    for s in sizes:
        _, sig, vt = _SVD_F(gram[:, :s, :s], signature="d->ddd")
        ok &= ~np.isnan(sig[:, 0])
        for frame, gi, vi, c in zip(frames, g[:, :, :s], vt, (sig >= _SHARP).sum(axis=1).tolist()):
            frame.append(gi @ vi[:c].T)
    return [frame if good else ConstructionError("chain frame is rank deficient or failed")
            for frame, good in zip(frames, ok.tolist())]


def _off_span(y, g):
    """||y - g g^T y||_F, the part of y outside span(g), 0 for empty y;
    g has orthonormal columns.  For orthonormal y it bounds the sine of
    the largest principal angle between span(y) and span(g) from above."""
    return _fnorms(y - g @ (g.mT @ y))


def _fnorms(d):  # fnorm of a matrix, or of each matrix of a stack
    return fnorm(d) if d.ndim == 2 else np.sqrt((d * d).sum(axis=(-2, -1)))


def _norms(x):  # fnorm of a column (2n, 1), or each column's norm in a stack, kept (..., 1, 1)
    return np.float64(fnorm(x)) if x.ndim == 2 else np.sqrt(np.vecdot(x, x, axis=-2))[..., None]


def _sharp_residual(x, g):
    """||[x, x'] - g g^T [x, x']||_F / ||x||, zero exactly when the nonzero
    coordinate vector x lies in sharp(span g); g has orthonormal columns.
    A stack of vectors x (..., 2n) is measured against a stack of g."""
    xc = x[..., None]
    return _off_span(np.concatenate([xc, _prime(xc)], axis=-1), g) / np.sqrt(np.vecdot(x, x))


def _nested(s, t):
    """True when span(s) lies inside span(t); both have orthonormal columns."""
    return _off_span(s, t) <= _bound("nested")


def same_span_trace_check(a, x_set, v_set, basis, check=True):
    """Trace identity for two B-orthosymplectic tuples with equal span.

    Returns (lhs, rhs) with lhs = sum_j (<x_j, A x_j> + <x_j', A x_j'>)
    and rhs the same for the v_j.  Precondition: the two tuples are the
    pair one dual_chain_construct call returned, which raises unless each
    tuple with its primes is B-orthosymplectic and both have the same
    span; so lhs and rhs are traces of A over one subspace and agree,
    which check=True enforces to errors._bound("trace equality", |lhs|).
    """
    a = _symmetric(a)
    if a.shape != (2 * basis.n,) * 2:
        raise ValidationError(f"matrix must have shape {(2 * basis.n,) * 2}, got {a.shape}")
    x_set, v_set = _real(x_set, "tuple columns"), _real(v_set, "tuple columns")
    if x_set.shape != v_set.shape:
        raise ValidationError(
            f"tuple shapes {x_set.shape} and {v_set.shape} differ"
        )
    if x_set.ndim != 2 or x_set.shape[0] != 2 * basis.n:
        raise ValidationError(f"tuples have invalid shape {x_set.shape}")
    lhs, rhs = _traces(a, x_set, v_set, basis, check)
    return float(lhs), float(rhs)


def _traces(a, x_set, v_set, basis, check=True):
    """same_span_trace_check's (lhs, rhs) of two checked tuples, or arrays
    of them for two stacks; check raises for the first pair that fails."""
    xa, va = _with_primes(x_set, basis), _with_primes(v_set, basis)
    lhs, rhs = (xa * (a @ xa)).sum(axis=(-2, -1)), (va * (a @ va)).sum(axis=(-2, -1))
    for left, right in zip(np.ravel(lhs).tolist(), np.ravel(rhs).tolist()) if check else ():
        _contract("trace equality violated: gap", abs(left - right),
                  _bound("trace equality", abs(left)), f" (lhs {left:.12e}, rhs {right:.12e})")
    return lhs, rhs


def _with_primes(x, basis):
    """The ambient [x, x'] of a tuple x, or of each tuple of a stack."""
    c = basis._coord @ x
    return basis.cols @ np.concatenate([c, _prime(c)], axis=-1)


def _unit_in(g, rng):
    """Random unit vector in the span of g, whose columns are orthonormal,
    so the one draw c has ||g c|| = ||c|| > 0."""
    if g.shape[-1] == 0:
        raise ConstructionError("feasible subspace is empty")
    x = g @ rng.standard_normal(g.shape[:-2] + g.shape[-1:] + (1,))
    return (x / _norms(x))[..., 0]


def _chain_extend_std(chain, ws, rng):
    """Coordinate-space chain extension.

    chain: decreasing list of k sharp coordinate subspaces, each with
    orthonormal columns; ws: k-1 columns, B-orthonormal, mutually
    skew-orthogonal, ws[..., j] in chain[j].
    Returns (v, x) with v (..., 2n, 1) a fresh unit in chain[0]
    skew-orthogonal to the ws, and x a k-column B-orthonormal
    skew-orthogonal set with x[..., j] in chain[j] whose pair span is
    span(ws pairs) plus span{v, v'}.
    """
    if len(chain) == 1:
        v = _unit_in(chain[0], rng)[..., None]
        return v, v

    u, xs = _chain_extend_std(chain[1:], ws[..., 1:], rng)
    uspan = np.concatenate([ws, _prime(ws)], axis=-1)
    feas = chain[0]  # then its part skew-orthogonal to uspan, a null space
    if feas.shape[-1]:
        _, s, vt = _svd(_tuple_gram(uspan, feas))
        rank = (s > _bound("rank") * s[..., :1]).sum(axis=-1)  # s descends: a prefix is kept
        if rank.ndim and (rank != rank[0]).any():
            raise ConstructionError("the chains of a stack differ in feasible rank")
        feas = feas @ vt[..., rank.flat[0]:, :].mT

    # Split u into its component inside the pair span and the rest; the
    # rest already lies in the feasible space, so snapping it onto the
    # computed basis of that space keeps memberships exact even when the
    # component is tiny.  A vanishing component means any fresh unit works.
    u2 = u - uspan @ (uspan.mT @ u)
    proj = feas @ (feas.mT @ u2)
    nrm, snap = _norms(proj), _bound("snap")
    if min(nrm.flat) > snap:
        v = proj / nrm
    else:
        small = np.reshape(nrm <= snap, proj.shape[:-2])
        v = proj / np.fmax(nrm, snap)
        v[small] = _unit_in(feas[small], rng)[..., None]

    # v lies in the feasible space, skew-orthogonal to the prime-closed
    # uspan, so the stack u0 is orthonormal and holds the pairs of xs.
    u0 = np.concatenate([uspan, v, _prime(v)], axis=-1)
    v1 = _unit_in(_slot_plane(u0, np.concatenate([xs, _prime(xs)], axis=-1)), rng)
    return v, np.concatenate([v1[..., None], xs], axis=-1)


def _slot_plane(u0, s):
    """[r, r'] / ||r||, an orthonormal basis of the prime-closed plane
    span(u0) minus span(s): r is the longest of u0's 2k columns projected
    off span(s), of norm 1/sqrt(k) or more."""
    p = u0 - s @ (s.mT @ u0)
    i = np.argmax((p * p).sum(axis=-2), axis=-1)
    r = p[:, i:i + 1] if p.ndim == 2 else p[np.arange(len(p)), :, i, None]
    return np.concatenate([r, _prime(r)], axis=-1) / _norms(r)


def _dual_chain_std(vsharp, vperp, wsharp, rng):
    """Coordinate-space dual-chain construction (equal-span tuples) on the
    frame vsharp[j] = sharp(V_j), vperp[j] its complement, wsharp[j] =
    sharp(W_j): sharp(V cap W) = sharp(V) cap sharp(W), one subspace_meet."""
    meets = [subspace_meet(w, vperp[-1]) for w in wsharp]
    if list in map(type, meets):
        raise ConstructionError("the chains of a stack meet in different dimensions")
    if len(vsharp) == 1:
        x = _unit_in(meets[0], rng)[..., None]
        return x, x

    vs, xs = _dual_chain_std(vsharp[:-1], vperp[:-1], wsharp[:-1], rng)
    v, ws_new = _chain_extend_std(meets, xs, rng)
    # v is already B-orthogonal to the span of the previous pairs, so
    # this projection only strips rounding noise.
    pairs = np.concatenate([xs, _prime(xs)], axis=-1)
    vk = v - pairs @ (pairs.mT @ v)
    vk /= _norms(vk)
    return np.concatenate([vs, vk], axis=-1), ws_new


def _check_built(vs, ws, vsharp, wsharp):
    """The contracts of a built pair (vs, ws), or of each pair of a
    stack, as (name, value) pairs in the order they are enforced: with
    its primes each tuple is B-orthosymplectic and its column j lies in
    sharp[j] of its chain, and the two spans agree.  Both tuples and all
    their columns are checked in one pass.

    One defect serves both: the prime map in coordinates is -J, so for
    full = [X, X'] the form defect ||full^T J full - J||_F equals the
    orthonormality defect ||full^T full - I||_F for every X."""
    cols = np.stack([vs, ws])
    full = np.concatenate([cols, _prime(cols)], axis=-1)
    k, width = cols.shape[-1], max(g.shape[-1] for g in vsharp + wsharp)
    padded = np.zeros(cols.shape[:-2] + (k, cols.shape[-2], width))
    for side, sharp in enumerate((vsharp, wsharp)):
        for j, g in enumerate(sharp):
            padded[side, ..., j, :, :g.shape[-1]] = g
    res = _sharp_residual(cols.mT, padded)
    orth = _fnorms(full.mT @ full - np.eye(2 * k))
    checks = []
    for side in (0, 1):
        checks += [("constructed tuple defects: orthonormality", orth[side])] + [
            (f"constructed vector {j} left its sharp space: residual", res[side, ..., j])
            for j in range(k)]
    return checks + [("constructed spans differ by residual", _off_span(full[0], full[1]))]


def _construct(vsharp, vperp, wsharp, basis, rng):
    """The one construction routine: ambient tuples built and certified on
    a frame.  One chain raises what refuses it; a stack (wsharp[j] of
    shape (m, 2n, c_j)) keeps the chains that meet every contract, and
    raises ConstructionError when its chains part ways in a dimension."""
    vs_c, ws_c = _dual_chain_std(vsharp, vperp, wsharp, rng)
    checks = _check_built(vs_c, ws_c, vsharp, wsharp)
    if vs_c.ndim == 2:
        for name, value in checks:
            _contract(name, value, _bound("basis"))
    else:
        ok = np.logical_and.reduce([value <= _bound("basis") for _, value in checks])
        vs_c, ws_c = vs_c[ok], ws_c[ok]
    return basis.cols @ vs_c, basis.cols @ ws_c


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

    vsharp = [_sharp_std(v) for v in vchain_c]
    vperp = [null_space_basis(v.T) for v in vsharp]
    return _construct(vsharp, vperp, [_sharp_std(w) for w in wchain_c], basis, rng)
