"""Univariate and tensor-product non-uniform B-splines.

One representation serves every univariate B-spline quantity: the piece of
each B-spline on each cell in Bernstein form (:func:`local_polynomial_1d`,
tabulated per knot vector by ``KnotVector.cell_pieces``).
:func:`nonzero_basis` evaluates these pieces at many points at once, a k-th
derivative from their k-th differences. The de Boor-Fix dual functionals,
bi-orthogonal to the B-spline basis, are on polynomials the blossom at the
interior knots of the support: one de Casteljau pass over the Bernstein
coefficients (:func:`dual_row`). They give the exact knot-refinement matrix
(:func:`refinement_matrix`) that writes coarse B-splines in fine ones.
:func:`interpolate_pieces` gives tensor interpolants on many cells at once.

Conventions:
    * evaluation at interior knots is right-continuous; at the right end
      ``knots[num_basis]`` of the full-support region it is the left limit,
    * a "cell" is an interval bounded by two consecutive *distinct* knots
      (tensor products of such intervals in 2D).
"""

from functools import cached_property, lru_cache
from math import comb

import numpy as np


class SplineError(ValueError):
    """Invalid knot vector, index or evaluation request."""


# ---------------------------------------------------------------------------
# knot vectors
# ---------------------------------------------------------------------------

class KnotVector:
    """A nondecreasing knot sequence together with a polynomial degree.

    The associated B-spline basis has ``len(knots) - degree - 1`` members;
    basis function ``i`` is supported on ``[knots[i], knots[i+degree+1]]``.
    Knots may repeat up to multiplicity ``degree + 1``.

    Parameters
    ----------
    knots : array_like
        Nondecreasing knot sequence with at least ``degree + 2`` entries.
    degree : int
        Polynomial degree (nonnegative).
    """

    def __init__(self, knots, degree):
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 1:
            raise SplineError("knots must be a 1D sequence")
        if degree < 0 or int(degree) != degree:
            raise SplineError(f"degree must be a nonnegative integer, got {degree}")
        degree = int(degree)
        if knots.size < degree + 2:
            raise SplineError(
                f"need at least degree+2 = {degree + 2} knots, got {knots.size}")
        if np.any(np.diff(knots) < 0):
            raise SplineError("knots must be nondecreasing")
        _, counts = np.unique(knots, return_counts=True)
        if np.any(counts > degree + 1):
            raise SplineError(
                f"knot multiplicity exceeds degree+1 = {degree + 1}")
        self.knots = knots
        self.degree = degree
        self.knots.setflags(write=False)
        self.breakpoints = np.unique(knots)
        self.breakpoints.setflags(write=False)

    @property
    def num_basis(self):
        """Number of B-splines on this knot vector."""
        return self.knots.size - self.degree - 1

    @property
    def num_cells(self):
        """Number of nonempty knot intervals."""
        return self.breakpoints.size - 1

    def find_cell(self, x):
        """Cell index (or array of them) containing ``x`` (right-continuous;
        last cell closed)."""
        j = np.searchsorted(self.breakpoints, x, side="right") - 1
        return np.clip(j, 0, self.num_cells - 1)

    @cached_property
    def cell_pieces(self):
        """``(first, pieces)``: the B-splines nonzero on cell ``q`` are
        ``first[q] + a`` for ``a = 0..degree``, and ``pieces[q, a]`` holds the
        Bernstein coefficients on ``q`` of ``b_{first[q] + a}`` (zero where
        that index is not a B-spline of this knot vector)."""
        m = self.degree
        # the B-splines nonzero on a cell end at its knot span
        first = np.searchsorted(self.knots, self.breakpoints[:-1],
                                side="right") - 1 - m
        k = first[:, None] + np.arange(m + 1)
        valid = (k >= 0) & (k < self.num_basis)
        pieces = np.zeros(k.shape + (m + 1,))
        pieces[valid] = local_polynomial_1d(self, k[valid],
                                            np.nonzero(valid)[0])
        return first, pieces

    def refined(self):
        """Dyadic refinement: insert the midpoint of every nonempty span."""
        t = self.knots
        mids = [(0.5 * (a + b)) for a, b in zip(t[:-1], t[1:]) if b > a]
        return KnotVector(np.sort(np.concatenate([t, mids])), self.degree)

    def __repr__(self):
        return f"KnotVector(n={self.knots.size}, degree={self.degree})"


# ---------------------------------------------------------------------------
# tensor grid
# ---------------------------------------------------------------------------

class TensorGrid:
    """Tensor product of two knot vectors and the induced cell lattice."""

    def __init__(self, kv_x, kv_y):
        self.kvs = (kv_x, kv_y)
        nx, ny = kv_x.num_cells, kv_y.num_cells
        dx = np.diff(kv_x.breakpoints)
        dy = np.diff(kv_y.breakpoints)
        self.num_cells = (nx, ny)
        self.meshsize = float(np.sqrt(np.max(dx) ** 2 + np.max(dy) ** 2))

    @property
    def degrees(self):
        return (self.kvs[0].degree, self.kvs[1].degree)

    @property
    def num_basis(self):
        return (self.kvs[0].num_basis, self.kvs[1].num_basis)

    def refined(self):
        return TensorGrid(self.kvs[0].refined(), self.kvs[1].refined())

    def __repr__(self):
        return (f"TensorGrid(cells={self.num_cells}, degrees={self.degrees}, "
                f"h={self.meshsize:.4g})")


# ---------------------------------------------------------------------------
# local polynomial pieces (Bernstein form)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _cheb_nodes(n):
    """n Chebyshev-Gauss nodes mapped to (0, 1); never hit the endpoints."""
    k = np.arange(n)
    return 0.5 - 0.5 * np.cos((2 * k + 1) * np.pi / (2 * n))


def _bern_row(n, t):
    """Row of Bernstein basis values B_{a,n}(t), valid for any real t."""
    t = np.asarray(t, dtype=float)
    return np.stack([comb(n, a) * t ** a * (1.0 - t) ** (n - a)
                     for a in range(n + 1)], axis=-1)


@lru_cache(maxsize=64)
def _bern_interp_matrix(n):
    """Inverse of the Bernstein collocation matrix at the Chebyshev nodes."""
    ts = _cheb_nodes(n + 1)
    V = _bern_row(n, ts)
    return np.linalg.inv(V)


@lru_cache(maxsize=64)
def _comb_table(n):
    """Binomial coefficients comb(a, k) as floats, row a and column k."""
    return np.array([[comb(a, k) for k in range(n + 1)] for a in range(n + 1)],
                    dtype=float)


def _mono_to_bern(mono):
    """Monomial coefficients on [0, 1] (last axis) to Bernstein coefficients
    (exact)."""
    n = mono.shape[-1] - 1
    table = _comb_table(n)
    out = np.zeros(mono.shape)
    for k in range(n + 1):
        # comb(a, k) is 0 for a < k; the sum runs over k <= a in order
        out += mono[..., k, None] * table[:, k] / comb(n, k)
    return out


def _times_linear(c, alpha, beta):
    """Monomial coefficients (last axis, top one zero) of the product
    c(xi) * (alpha + beta * xi)."""
    out = np.zeros(c.shape)
    out[..., :-1] += alpha[..., None] * c[..., :-1]
    out[..., 1:] += beta[..., None] * c[..., :-1]
    return out


def local_polynomial_1d(kv, index, cell_idx):
    """Bernstein coefficients of ``b_index`` restricted to cell ``cell_idx``.

    ``index`` and ``cell_idx`` broadcast against each other; the result has
    their shape and a last axis of ``degree + 1`` coefficients.
    The Cox-de Boor recursion is carried out on polynomial coefficients in
    the cell-local coordinate, which keeps every coefficient O(1)-accurate
    even on very small cells (value interpolation would lose the leading
    coefficients there).
    """
    m = kv.degree
    index, cell_idx = np.broadcast_arrays(index, cell_idx)
    if np.any((cell_idx < 0) | (cell_idx >= kv.num_cells)):
        raise SplineError(
            f"cell index {cell_idx} out of range [0, {kv.num_cells})")
    a = kv.breakpoints[cell_idx][..., None]
    b = kv.breakpoints[cell_idx + 1][..., None]
    h = b - a
    t = kv.knots

    # level[..., r, :]: the piece of the degree-k B-spline index + r, with
    # monomial coefficients in the local coordinate xi = (x - a) / h;
    # degree 0 is the indicator of the span containing the cell
    i = index[..., None] + np.arange(m + 1)
    level = np.zeros(index.shape + (m + 1, m + 1))
    level[..., 0] = (t[i] <= a) & (b <= t[i + 1])
    for k in range(1, m + 1):
        i = i[..., :-1]
        # (x - t_i)/d1 and (t_{i+k+1} - x)/d2; a zero span adds nothing
        d1 = t[i + k] - t[i]
        on1 = d1 > 0.0
        d1 = np.where(on1, d1, 1.0)
        d2 = t[i + k + 1] - t[i + 1]
        on2 = d2 > 0.0
        d2 = np.where(on2, d2, 1.0)
        level = _times_linear(
            level[..., :-1, :], np.where(on1, (a - t[i]) / d1, 0.0),
            np.where(on1, h / d1, 0.0)) + _times_linear(
            level[..., 1:, :], np.where(on2, (t[i + k + 1] - a) / d2, 0.0),
            np.where(on2, -h / d2, 0.0))
    return _mono_to_bern(level[..., 0, :])


def nonzero_basis(kv, x, nderiv=0):
    """Values (and derivatives) of the nonvanishing B-splines at points ``x``.

    At a point in span ``s`` the nonzero basis functions are
    ``s - degree .. s``. Points must lie in the full-support region of the
    knot vector, i.e. in ``[knots[degree], knots[num_basis]]``.

    Parameters
    ----------
    kv : KnotVector
    x : array_like
        Evaluation points, shape (N,).
    nderiv : int
        Highest derivative order requested (0 or more).

    Returns
    -------
    spans : int array, shape (N,)
    ders : array, shape (nderiv+1, N, degree+1)
        ``ders[k, q, a]`` is the k-th derivative of basis ``spans[q]-degree+a``
        at ``x[q]``.
    """
    m = kv.degree
    t, bp = kv.knots, kv.breakpoints
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size and (x.min() < t[m] - 1e-12 or x.max() > t[kv.num_basis] + 1e-12):
        raise SplineError("evaluation points outside the full-support knot range")
    # points on the edge of the full-support region take the cell inside it
    # (left limit at the right edge)
    q = np.clip(kv.find_cell(x), np.searchsorted(bp, t[m]),
                np.searchsorted(bp, t[kv.num_basis]) - 1)
    first, c = kv.cell_pieces
    h = np.diff(bp)
    u = (x - bp[q]) / h[q]
    out = np.zeros((nderiv + 1, x.size, m + 1))
    for k in range(min(nderiv, m) + 1):
        out[k] = np.einsum("nab,nb->na", c[q], _bern_row(m - k, u))
        c = (m - k) * np.diff(c, axis=-1) / h[:, None, None]
    return first[q] + m, out


def interpolate_pieces(f, lo, hi, degrees):
    """Bernstein coefficients (n, d1 + 1, d2 + 1) of the degree-``degrees``
    tensor interpolants of ``f`` on the cells [lo[c], hi[c]], lo and hi of
    shape (n, 2). One call of ``f`` takes the tensor Chebyshev nodes of every
    cell, all strictly inside it."""
    n1, n2 = degrees
    xs = lo[:, :1] + (hi[:, :1] - lo[:, :1]) * _cheb_nodes(n1 + 1)
    ys = lo[:, 1:] + (hi[:, 1:] - lo[:, 1:]) * _cheb_nodes(n2 + 1)
    pts = np.stack(np.broadcast_arrays(xs[:, :, None], ys[:, None, :]), axis=-1)
    vals = f(pts.reshape(-1, 2)).reshape(-1, n1 + 1, n2 + 1)
    return _bern_interp_matrix(n1) @ vals @ _bern_interp_matrix(n2).T


# ---------------------------------------------------------------------------
# de Boor-Fix dual functionals
# ---------------------------------------------------------------------------

def dual_row(kv, index, lo, hi):
    """Row ``r`` with ``lambda_index(p) = r @ c`` for every polynomial ``p``
    of degree ``kv.degree`` whose Bernstein coefficients on [lo, hi] are ``c``.

    ``index``, ``lo`` and ``hi`` broadcast against each other; the rows
    take a last axis of ``degree + 1`` entries.
    On polynomials the de Boor-Fix functional is the blossom at the interior
    knots ``t_{index+1..index+m}`` of the support (Ramshaw 1989): one de
    Casteljau pass with one parameter per stage, run on the identity.
    """
    m = kv.degree
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    u = ((kv.knots[np.asarray(index)[..., None] + np.arange(1, m + 1)] - lo)
         / (hi - lo))
    r = np.broadcast_to(np.eye(m + 1), u.shape[:-1] + (m + 1, m + 1))
    for s in range(m):
        us = u[..., s, None, None]
        r = (1.0 - us) * r[..., :-1, :] + us * r[..., 1:, :]
    return r[..., 0, :]


def refinement_matrix(coarse, fine):
    """Matrix ``S`` with ``b_k = sum_l S[l, k] f_l`` for every B-spline ``b_k``
    of ``coarse`` and the B-splines ``f_l`` of ``fine``.

    ``fine`` has the degree of ``coarse`` and holds each of its knots at
    least as often (``coarse.refined()`` does), so every ``b_k`` is a spline
    on ``fine`` and ``S[l, k]`` is the de Boor-Fix functional of ``f_l``
    applied to it. That functional is the blossom of any one polynomial
    piece of ``b_k`` on the support of ``f_l``: the one on the coarse cell
    ``q`` that holds the nonempty fine span of that support nearest its
    middle, in Bernstein form on ``q`` (``coarse.cell_pieces``). Only the
    ``degree + 1`` B-splines nonzero on ``q`` have nonzero entries.
    """
    m = coarse.degree
    if fine.degree != m:
        raise SplineError(f"refinement needs equal degrees, got {m} and "
                          f"{fine.degree}")
    first, pieces = coarse.cell_pieces
    bp, tf = coarse.breakpoints, fine.knots
    rows = np.arange(fine.num_basis)
    # the nonempty span of supp f_l nearest its middle; empty ones rank last
    spans = rows[:, None] + np.arange(m + 1)
    off = np.argmin((tf[spans + 1] <= tf[spans]) * (m + 2)
                    + np.abs(np.arange(m + 1) - 0.5 * m), axis=1)
    q = coarse.find_cell(0.5 * (tf[rows + off] + tf[rows + off + 1]))
    vals = np.einsum("la,lka->lk", dual_row(fine, rows, bp[q], bp[q + 1]),
                     pieces[q])
    # columns past either end of the basis carry zero pieces; drop them
    cols = first[q][:, None] + np.arange(m + 1)
    S = np.zeros((fine.num_basis, coarse.num_basis + 2 * m))
    S[rows[:, None], cols + m] = vals
    return S[:, m:m + coarse.num_basis]


def uniform_knots(lo, hi, n_cells, degree):
    """Uniform knot vector on [lo, hi] extended by ``degree`` spans per side.

    The extension guarantees that every point of [lo, hi] sees the full set
    of ``degree + 1`` nonzero basis functions per axis.
    """
    h = (hi - lo) / n_cells
    return KnotVector(lo + h * np.arange(-degree, n_cells + degree + 1), degree)


def graded_knots(lo, hi, n_cells, degree, ratio, side="max"):
    """Geometrically graded knots on [lo, hi]: spacing multiplied by ``ratio``
    per step toward the chosen side, extended like :func:`uniform_knots`."""
    if ratio <= 0:
        raise SplineError(f"grading ratio must be positive, got {ratio}")
    w = ratio ** np.arange(n_cells)
    if side == "min":
        w = w[::-1]
    elif side != "max":
        raise SplineError(f"side must be 'min' or 'max', got {side!r}")
    interior = lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(w) / np.sum(w)])
    h0 = interior[1] - interior[0]
    h1 = interior[-1] - interior[-2]
    left = interior[0] - h0 * np.arange(degree, 0, -1)
    right = interior[-1] + h1 * np.arange(1, degree + 1)
    return KnotVector(np.concatenate([left, interior, right]), degree)
