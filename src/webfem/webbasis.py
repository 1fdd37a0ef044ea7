"""Extension coefficients, web-splines and the canonical quasi-interpolant.

An outer B-spline ``b_j`` is absorbed into the inner ones by extrapolating
its dual functional: for every inner ``i`` whose support contains the inner
cell ``Q_j`` assigned to ``j``, the extension coefficient is
``e_{i,j} = lambda_j(p_{i,j})`` with ``p_{i,j}`` the polynomial piece of
``b_i`` on ``Q_j``; per axis this is the blossom of the piece at the
interior knots of ``b_j`` (:func:`~webfem.splines.dual_row`). The
web-spline for an inner index ``i`` is then

    B_i = (w / w(x_i)) * (b_i + sum_{j in J(i)} e_{i,j} b_j),

which vanishes on the boundary through the weight and keeps the basis
uniformly stable under refinement.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import classify_cells, classify_indices, squared_norm
from .splines import (
    dual_row, interpolate_pieces, nonzero_basis, refinement_matrix,
)


class BasisError(RuntimeError):
    """Inconsistent basis construction or evaluation request."""


ALPHA_WARN_THRESHOLD = 0.1  # extrapolation-cell size ratio below which we warn


@dataclass
class ExtensionTable:
    """Extension coefficients e_{i,j}, one per coupling of the index sets
    (``pair_inner``, ``pair_outer``)."""

    entries: np.ndarray

    @property
    def max_abs(self):
        return float(np.max(np.abs(self.entries), initial=0.0))


def build_extension(grid, idx):
    """Extension coefficients for all (inner, outer) couplings in ``idx``.

    The piece of ``b_i`` on ``Q_j`` is a product of univariate pieces, so
    ``e_{i,j} = e^x_{i1,j1} * e^y_{i2,j2}`` with one de Boor-Fix factor per
    axis: the dual row of ``(j_a, q_a)`` applied to the piece of ``b_{i_a}``
    on ``q_a``, taken from the knot vector's ``cell_pieces``. Each axis
    computes the factor once per distinct ``(i_a, j_a, q_a)``.
    """
    keys = np.stack([idx.inner[idx.pair_inner], idx.outer[idx.pair_outer],
                     idx.q_cell[idx.pair_outer]], axis=1)
    e = np.ones(len(keys))
    for axis, kv in enumerate(grid.kvs):
        uniq, inv = np.unique(keys[:, :, axis], axis=0, return_inverse=True)
        i_a, j_a, q_a = uniq.T
        first, pieces = kv.cell_pieces
        bp = kv.breakpoints
        rows = dual_row(kv, j_a, bp[q_a], bp[q_a + 1])
        factors = np.array([r @ c for r, c in
                            zip(rows, pieces[q_a, i_a - first[q_a]])])
        e = e * factors[inv.reshape(-1)]
    return ExtensionTable(entries=e)


class WebBasis:
    """Weighted extended B-spline basis over (grid, domain).

    Attributes
    ----------
    grid, domain : the discretization pair
    idx : IndexSets
    ext : ExtensionTable
    w_center : array of w(x_i) in inner order
    kcol : column of each B-spline in the relevant order, -1 off that set
    alpha_warnings : (n, 2) outer indices with alpha < ALPHA_WARN_THRESHOLD
    """

    def __init__(self, grid, domain, cls, idx, ext):
        self.grid = grid
        self.domain = domain
        self.cls = cls
        self.idx = idx
        self.ext = ext
        self.w_center = domain.weight(idx.center)
        if np.any(self.w_center <= 0.0):
            bad = idx.inner[np.argmin(self.w_center)]
            raise BasisError("nonpositive weight at inner cell center of "
                             f"{tuple(bad.tolist())}")
        self.kcol = np.full(grid.num_basis, -1, dtype=np.int64)
        self.kcol[tuple(idx.relevant.T)] = np.arange(len(idx.relevant))
        self._coupling = None
        self.alpha_warnings = idx.outer[idx.alpha < ALPHA_WARN_THRESHOLD]

    @property
    def n_inner(self):
        return len(self.idx.inner)

    @property
    def n_relevant(self):
        return len(self.idx.relevant)

    def extension_matrix(self):
        """Sparse E (n_inner x n_relevant): identity on inner columns plus
        the extension coefficients on outer columns."""
        idx, n = self.idx, self.n_inner
        rows = np.concatenate([np.arange(n), idx.pair_inner])
        cols = self.kcol[tuple(np.concatenate(
            [idx.inner, idx.outer[idx.pair_outer]]).T)]
        data = np.concatenate([np.ones(n), self.ext.entries])
        return sp.csr_matrix((data, (rows, cols)), shape=(n, self.n_relevant))

    def coupling_matrix(self):
        """E scaled by 1/w(x_i): web coefficients -> weighted-basis weights."""
        if self._coupling is None:
            D = sp.diags(1.0 / self.w_center)
            self._coupling = (D @ self.extension_matrix()).tocsr()
        return self._coupling

    def summary(self):
        return {
            "num_relevant": self.n_relevant,
            "num_inner": self.n_inner,
            "num_outer": len(self.idx.outer),
            "max_extension_coefficient": self.ext.max_abs,
            "alpha_warnings": self.alpha_warnings.tolist(),
        }


def build_web_basis(domain, grid, samples_per_axis=5):
    """Classify, extend and weight: the full basis construction pipeline."""
    cls = classify_cells(domain, grid, samples_per_axis)
    idx = classify_indices(grid, cls)
    ext = build_extension(grid, idx)
    return WebBasis(grid, domain, cls, idx, ext)


def prolong(coarse, fine, coeffs):
    """Web coefficients on ``fine`` of the field with web coefficients
    ``coeffs`` on ``coarse``; ``fine.grid`` refines ``coarse.grid``
    (``coarse.grid.refined()``) and both bases share the domain.

    The coarse field is w times the tensor spline with coefficients
    ``coupling_matrix().T @ coeffs``. Per axis,
    :func:`~webfem.splines.refinement_matrix` writes that spline exactly in
    the fine B-splines, and the fine coefficient of each fine inner ``i``,
    times ``w(x_i)``, is its web coefficient. The prolonged field equals the
    coarse one on every fine cell whose B-splines are all inner. ``coeffs``
    may stack several components (the velocity blocks), each prolonged
    alike.
    """
    Sx, Sy = (refinement_matrix(kc, kf)
              for kc, kf in zip(coarse.grid.kvs, fine.grid.kvs))
    ix, iy = fine.idx.inner.T
    Et = coarse.coupling_matrix().T
    out = []
    for c in np.reshape(coeffs, (-1, coarse.n_inner)):
        # tensor coefficients on the coarse grid, 0 off the relevant set
        tensor = np.append(Et @ c, 0.0)[coarse.kcol]
        out.append(fine.w_center * (Sx @ tensor @ Sy.T)[ix, iy])
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# points per block of the contraction (BasisValues.field) and eval_fields;
# a Newton state contracts its table once, in as few blocks as this allows
EVAL_CHUNK = 16384
# bytes of one block of per-point rows: the tabulation fill and the form
# operands of the assembly work on blocks of points whose widest per-point
# array (``width`` floats a point) stays within it
BLOCK_BYTES = 1 << 19


def block_points(width):
    """Points per block whose rows of ``width`` floats fit in BLOCK_BYTES
    (at least one)."""
    return max(1, BLOCK_BYTES // (8 * width))


def _index(a, top):
    """``a`` as int32 if its values stay below ``top``, else as it is."""
    return a.astype(np.int32) if top < 2 ** 31 else a


def _axis_factors(kv, x, nderiv):
    """The index of each coordinate of ``x`` among its distinct values, and
    the spans and univariate factors (``nonzero_basis``) of those."""
    coords, inv = np.unique(x, return_inverse=True)
    return (_index(inv.reshape(-1), x.size),
            *nonzero_basis(kv, coords, nderiv))


class BasisValues:
    """Weighted tensor basis w*b_k and its first partials at points: the one
    tabulation kernel of assembly (``BasisTables``) and evaluation.

    ``rows`` (n_span_pairs, na) holds, for each pair of knot spans that
    holds points, the columns (in the relevant-index enumeration) of the na
    B-splines nonzero there, -1 outside the relevant set; ``row_of`` (N,)
    numbers the span pair of each point, whose columns are therefore
    ``rows[row_of]``. ``wb`` (N, na) holds the weighted values and, for
    ``nderiv >= 1``, ``wbx``/``wby`` the first partials.

    The univariate B-splines are evaluated once per distinct coordinate of
    each axis, and each table entry is one product of separable factors:
    ``wb = (w Bx) (x) By``, ``wbx = (w_x Bx + w Bx') (x) By`` and
    ``wby = Bx (x) (w_y By + w By')``, written into the tables one block of
    ``block_points(na)`` points at a time through buffers of one block.
    Beyond its tables, a fill holds its int32 point maps and one block.
    """

    def __init__(self, basis, pts, nderiv=1):
        grid = basis.grid
        (m1, m2), (nbx, nby) = grid.degrees, grid.num_basis
        n = pts.shape[0]
        (ix, sx, dx), (iy, sy, dy) = (_axis_factors(kv, pts[:, ax], nderiv)
                                      for ax, kv in enumerate(grid.kvs))
        span_key = np.take(sx, ix) * nby + np.take(sy, iy)
        used = np.zeros(nbx * nby, dtype=bool)
        used[span_key] = True
        self.row_of = _index((np.cumsum(used) - 1)[span_key], n)
        del span_key
        kx, ky = np.divmod(np.flatnonzero(used), nby)
        self.rows = basis.kcol[
            (kx[:, None] - m1 + np.arange(m1 + 1))[:, :, None],
            (ky[:, None] - m2 + np.arange(m2 + 1))[:, None, :]].reshape(
                kx.size, (m1 + 1) * (m2 + 1))
        shape = (n, m1 + 1, m2 + 1)
        wb = np.empty(shape)
        if nderiv >= 1:
            wbx, wby = np.empty(shape), np.empty(shape)
        step = min(n, block_points((m1 + 1) * (m2 + 1))) or 1
        # per axis, the univariate factors of one block and one product
        bx = np.empty((nderiv + 2, step, m1 + 1))
        by = np.empty((nderiv + 2, step, m2 + 1))
        for start in range(0, n, step):
            sl = slice(start, start + step)
            k = ix[sl].size
            for d in range(nderiv + 1):
                np.take(dx[d], ix[sl], axis=0, out=bx[d, :k], mode="clip")
                np.take(dy[d], iy[sl], axis=0, out=by[d, :k], mode="clip")
            x0, x1, px = bx[0, :k], bx[1:-1, :k], bx[-1, :k]
            y0, y1, py = by[0, :k], by[1:-1, :k], by[-1, :k]
            if nderiv == 0:
                w = basis.domain.weight(pts[sl])[:, None]
            else:
                w, gw = basis.domain.weight_and_gradient(pts[sl])
                w = w[:, None]
            np.einsum("ni,nj->nij", np.multiply(w, x0, out=px), y0,
                      out=wb[sl])
            if nderiv >= 1:
                # w_x Bx + w Bx' and w_y By + w By', each summed in place
                np.multiply(gw[:, :1], x0, out=px)
                np.add(px, np.multiply(w, x1[0], out=x1[0]), out=px)
                np.einsum("ni,nj->nij", px, y0, out=wbx[sl])
                np.multiply(gw[:, 1:], y0, out=py)
                np.add(py, np.multiply(w, y1[0], out=y1[0]), out=py)
                np.einsum("ni,nj->nij", x0, py, out=wby[sl])
        self.wb = wb.reshape(n, -1)
        if nderiv >= 1:
            self.wbx, self.wby = wbx.reshape(n, -1), wby.reshape(n, -1)

    def field(self, c_full, grad=False, span=slice(None)):
        """Field values (and gradient) of a full-basis coefficient vector at
        the points of ``span`` (a slice, all points by default), contracted
        one block of points at a time.

        A column of -1 reads ``c_full[-1]``; where ``rows`` has any, pass the
        vector with a trailing 0 so that those B-splines contribute nothing.
        """
        c_rows = c_full[self.rows]
        a, b, _ = span.indices(self.row_of.size)
        vals = np.empty(b - a)
        grads = np.empty((b - a, 2)) if grad else None
        for start in range(a, b, EVAL_CHUNK):
            sl = slice(start, min(start + EVAL_CHUNK, b))
            out = slice(sl.start - a, sl.stop - a)
            cw = np.take(c_rows, self.row_of[sl], axis=0)
            np.einsum("na,na->n", cw, self.wb[sl], out=vals[out])
            if grad:
                np.einsum("na,na->n", cw, self.wbx[sl], out=grads[out, 0])
                np.einsum("na,na->n", cw, self.wby[sl], out=grads[out, 1])
        return (vals, grads) if grad else vals


def eval_fields(basis, c_fulls, pts, grad=False):
    """Values (and gradients) of full-basis coefficient vectors at points.

    The basis is tabulated once per block of points and contracted with
    every vector of ``c_fulls``; B-splines outside the relevant set
    contribute 0. Returns ``(vals, grads)``, vals of shape (N, k) for k
    vectors and grads (N, k, 2), or None unless ``grad``.
    """
    pts = np.asarray(pts, dtype=float)
    padded = [np.append(c, 0.0) for c in c_fulls]
    n = pts.shape[0]
    vals = np.empty((n, len(padded)))
    grads = np.empty((n, len(padded), 2)) if grad else None
    for start in range(0, n, EVAL_CHUNK):
        sl = slice(start, min(start + EVAL_CHUNK, n))
        values = BasisValues(basis, pts[sl], nderiv=int(grad))
        for k, c in enumerate(padded):
            if grad:
                vals[sl, k], grads[sl, k] = values.field(c, grad=True)
            else:
                vals[sl, k] = values.field(c)
    return vals, grads


def eval_field(basis, coeffs, pts, nderiv=0):
    """Values (N,) at ``pts`` (N, 2) of the web expansion with coefficients
    ``coeffs`` (n_inner,); for ``nderiv == 1``, (vals, grads (N, 2))."""
    c_full = basis.coupling_matrix().T @ np.asarray(coeffs, dtype=float)
    vals, grads = eval_fields(basis, [c_full], pts, grad=bool(nderiv))
    return (vals[:, 0], grads[:, 0]) if nderiv else vals[:, 0]


# ---------------------------------------------------------------------------
# canonical projector
# ---------------------------------------------------------------------------

def project(basis, f):
    """Coefficients of the quasi-interpolant P_h f.

    ``Lambda_i f = w(x_i) * lambda_i(f/w)`` with the dual functional applied
    to the degree-m tensor interpolant of f/w on the designated interior
    cell of ``b_i``: one evaluation of f/w at the interpolation nodes of
    every such cell, and one dual row per axis and inner index.
    """
    idx, (kx, ky) = basis.idx, basis.grid.kvs
    cx, cy = idx.center_cell.T
    lo = np.column_stack([kx.breakpoints[cx], ky.breakpoints[cy]])
    hi = np.column_stack([kx.breakpoints[cx + 1], ky.breakpoints[cy + 1]])
    pieces = interpolate_pieces(
        lambda pts: np.asarray(f(pts), dtype=float) / basis.domain.weight(pts),
        lo, hi, basis.grid.degrees)
    bad = ~np.all(np.isfinite(pieces), axis=(1, 2))
    if np.any(bad):
        cell, i = (tuple(a[np.argmax(bad)].tolist())
                   for a in (idx.center_cell, idx.inner))
        raise BasisError(
            f"f/w is not interpolable on the inner cell {cell} of index {i}; "
            "the input does not vanish fast enough at the boundary")
    rx = dual_row(kx, idx.inner[:, 0], lo[:, 0], hi[:, 0])
    ry = dual_row(ky, idx.inner[:, 1], lo[:, 1], hi[:, 1])
    return basis.w_center * (rx[:, None, :] @ pieces @ ry[:, :, None])[:, 0, 0]


def jackson_error(basis, u, grad_u, quad):
    """H1(Omega) norm of u - P_h u by quadrature.

    ``u`` and ``grad_u`` are callables on (N, 2) point arrays; ``quad`` is a
    :class:`~webfem.quadrature.DomainQuadrature` or a composed rule. The
    integrand is sampled one block of ``quad.blocks()`` at a time into one
    array over the rule.
    """
    c_full = basis.coupling_matrix().T @ project(basis, u)
    dens = np.empty(quad.num_points)
    for sl, pts, w in quad.blocks():
        vals, grads = eval_fields(basis, [c_full], pts, grad=True)
        inside = basis.domain.inside(pts)
        ev = np.where(inside, np.asarray(u(pts), dtype=float) - vals[:, 0],
                      0.0)
        eg = np.where(inside[:, None],
                      np.asarray(grad_u(pts), dtype=float) - grads[:, 0], 0.0)
        dens[sl] = w * (ev ** 2 + squared_norm(eg))
    return float(np.sqrt(np.sum(dens)))
