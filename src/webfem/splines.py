"""Univariate and tensor-product non-uniform B-splines.

Provides the values and derivatives of the nonzero B-splines at many points
at once (:func:`nonzero_basis`) on arbitrary nondecreasing knot sequences,
the univariate polynomial piece of a B-spline on a cell (Bernstein form,
:func:`local_polynomial_1d`), and the de Boor-Fix dual functionals that are
bi-orthogonal to the B-spline basis. On polynomials a
dual functional is the blossom at the interior knots of the support, so it
is one de Casteljau pass over the Bernstein coefficients (:func:`dual_row`).
The same functionals give the exact knot-refinement matrix
(:func:`refinement_matrix`) that writes coarse B-splines in fine ones.

Conventions:
    * evaluation at interior knots is right-continuous; at the last knot
      of a knot vector the value is taken as the limit from the left,
    * a "cell" is an interval bounded by two consecutive *distinct* knots
      (tensor products of such intervals in 2D).
"""

from dataclasses import dataclass
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

    def support(self, i):
        """Closure of the support of basis function ``i``."""
        if not 0 <= i < self.num_basis:
            raise SplineError(f"basis index {i} out of range [0, {self.num_basis})")
        return self.knots[i], self.knots[i + self.degree + 1]

    def cell_bounds(self, j):
        """Endpoints of cell ``j`` (interval between distinct knots)."""
        if not 0 <= j < self.num_cells:
            raise SplineError(f"cell index {j} out of range [0, {self.num_cells})")
        return self.breakpoints[j], self.breakpoints[j + 1]

    def support_cells(self, i):
        """Indices of the cells contained in the support of basis ``i``."""
        lo, hi = self.support(i)
        a = int(np.searchsorted(self.breakpoints, lo, side="left"))
        b = int(np.searchsorted(self.breakpoints, hi, side="left"))
        return range(a, b)

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


def find_spans(kv, x):
    """Largest i with knots[i] <= x < knots[i+1] for each point of ``x``
    (the last nonempty span at x = end)."""
    t = kv.knots
    x = np.asarray(x, dtype=float)
    s = np.searchsorted(t, x, side="right") - 1
    last = int(np.searchsorted(t, t[-1], side="left")) - 1
    return np.where(x >= t[-1], last, s)


# ---------------------------------------------------------------------------
# B-spline evaluation
# ---------------------------------------------------------------------------

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
    t = kv.knots
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    if x.size and (x.min() < t[m] - 1e-12 or x.max() > t[kv.num_basis] + 1e-12):
        raise SplineError("evaluation points outside the full-support knot range")
    # points exactly on the edge of the full-support region take the span
    # inside it (left limit at the right edge); values agree for simple knots
    spans = np.clip(find_spans(kv, x), m, kv.num_basis - 1)

    # triangle of all lower-degree values (NURBS-book A2.2 style, vectorized)
    ndu = np.zeros((m + 1, m + 1, n))
    ndu[0, 0] = 1.0
    left = np.empty((m + 1, n))
    right = np.empty((m + 1, n))
    for j in range(1, m + 1):
        left[j] = x - t[spans + 1 - j]
        right[j] = t[spans + j] - x
        saved = np.zeros(n)
        for r in range(j):
            denom = right[r + 1] + left[j - r]
            temp = np.where(denom != 0.0, ndu[j - 1, r] / np.where(denom == 0, 1, denom), 0.0)
            ndu[j, r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    out = np.zeros((nderiv + 1, n, m + 1))
    out[0] = ndu[m].transpose()
    for k in range(1, min(nderiv, m) + 1):
        # k-th derivative from the degree m-k triangle row by repeated differencing
        d = ndu[m - k].copy()  # shape (m+1, n); rows 0..m-k valid
        for stage in range(m - k + 1, m + 1):
            dn = np.zeros_like(d)
            for r in range(stage + 1):
                num = np.zeros(n)
                if r > 0:
                    den = t[spans + r] - t[spans + r - stage]
                    num += np.where(den != 0, d[r - 1] / np.where(den == 0, 1, den), 0.0)
                if r <= stage - 1:
                    den = t[spans + r + 1] - t[spans + r + 1 - stage]
                    num -= np.where(den != 0, d[r] / np.where(den == 0, 1, den), 0.0)
                dn[r] = stage * num
            d = dn
        out[k] = d[:m + 1].transpose()
    return spans, out


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

    def cell_bounds(self, cell):
        """((x0, x1), (y0, y1)) bounds of cell ``(jx, jy)``."""
        jx, jy = cell
        return self.kvs[0].cell_bounds(jx), self.kvs[1].cell_bounds(jy)

    def cells(self):
        nx, ny = self.num_cells
        return ((jx, jy) for jx in range(nx) for jy in range(ny))

    def support_cells(self, k):
        """All cells contained in the support of tensor basis ``k = (k1, k2)``."""
        rx = self.kvs[0].support_cells(k[0])
        ry = self.kvs[1].support_cells(k[1])
        return [(jx, jy) for jx in rx for jy in ry]

    def support_box(self, k):
        """Support rectangle of tensor basis ``k`` as (lo, hi) arrays."""
        sx = self.kvs[0].support(k[0])
        sy = self.kvs[1].support(k[1])
        return np.array([sx[0], sy[0]]), np.array([sx[1], sy[1]])

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


def _bern_derive(c, width):
    """Coefficients of d/dx of a Bernstein polynomial on an interval of ``width``."""
    n = c.shape[0] - 1
    if n == 0:
        return np.zeros((1,) + c.shape[1:])
    return n * np.diff(c, axis=0) / width


@lru_cache(maxsize=64)
def _bern_interp_matrix(n):
    """Inverse of the Bernstein collocation matrix at the Chebyshev nodes."""
    ts = _cheb_nodes(n + 1)
    V = _bern_row(n, ts)
    return np.linalg.inv(V)


@dataclass(frozen=True)
class PolynomialPiece:
    """Tensor-product polynomial in Bernstein form anchored at a reference cell.

    Evaluation is defined everywhere (polynomial extension); on the
    reference cell it coincides with the source it was built from. Pieces
    that are products of univariate polynomials carry the Bernstein
    ``factors`` per axis, which the dual functionals exploit for accuracy.
    """

    lo: np.ndarray
    hi: np.ndarray
    coeffs: np.ndarray  # shape (d1+1, d2+1)
    factors: tuple = None  # optional (cx, cy) with coeffs == outer(cx, cy)

    @property
    def degrees(self):
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    def __call__(self, x, y, deriv=(0, 0)):
        c = self.coeffs
        for _ in range(deriv[0]):
            c = _bern_derive(c, self.hi[0] - self.lo[0])
        for _ in range(deriv[1]):
            c = _bern_derive(c.transpose(), self.hi[1] - self.lo[1]).transpose()
        tx = (x - self.lo[0]) / (self.hi[0] - self.lo[0])
        ty = (y - self.lo[1]) / (self.hi[1] - self.lo[1])
        return _bern_row(c.shape[0] - 1, tx) @ c @ _bern_row(c.shape[1] - 1, ty)


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


def interpolate_piece(f, lo, hi, degrees):
    """Degree-``degrees`` tensor interpolant of ``f`` on the cell [lo, hi].

    Interpolation nodes are tensor Chebyshev points strictly inside the
    cell, so ``f`` is only evaluated in the open cell.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n1, n2 = degrees
    xs = lo[0] + (hi[0] - lo[0]) * _cheb_nodes(n1 + 1)
    ys = lo[1] + (hi[1] - lo[1]) * _cheb_nodes(n2 + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = f(np.column_stack([X.ravel(), Y.ravel()])).reshape(n1 + 1, n2 + 1)
    coeffs = _bern_interp_matrix(n1) @ vals @ _bern_interp_matrix(n2).transpose()
    return PolynomialPiece(lo=lo, hi=hi, coeffs=coeffs)


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


def _elevated(c, m):
    """Bernstein coefficients (along axis 0) of the same polynomial at degree m."""
    for k in range(c.shape[0], m + 1):
        a = (np.arange(k + 1) / k).reshape((-1,) + (1,) * (c.ndim - 1))
        pad = np.zeros((1,) + c.shape[1:])
        c = a * np.concatenate([pad, c]) + (1.0 - a) * np.concatenate([c, pad])
    return c


def deboor_fix(kv_pair, multi_index, piece):
    """de Boor-Fix dual functional of tensor basis ``multi_index`` applied to a piece.

    Bi-orthogonality ``lambda_k(p_{k'}) = delta_{kk'}`` holds when ``piece``
    is the local polynomial of B-spline ``k'`` on a cell inside both
    supports. Pieces of lower degree are degree-elevated first.
    """
    m1, m2 = kv_pair[0].degree, kv_pair[1].degree
    d1, d2 = piece.degrees
    if d1 > m1 or d2 > m2:
        raise SplineError(
            f"piece degree {piece.degrees} exceeds basis degrees {(m1, m2)}")
    r1 = dual_row(kv_pair[0], multi_index[0], piece.lo[0], piece.hi[0])
    r2 = dual_row(kv_pair[1], multi_index[1], piece.lo[1], piece.hi[1])
    if piece.factors is not None:
        # product piece: apply the univariate functional per axis, which
        # avoids forming large cross terms before they cancel
        cx, cy = piece.factors
        return float((r1 @ _elevated(cx, m1)) * (r2 @ _elevated(cy, m2)))
    c = _elevated(_elevated(piece.coeffs, m1).T, m2).T
    return float(r1 @ c @ r2)


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
