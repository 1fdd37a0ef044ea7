"""Reference paths that the tests compare the library against.

``eval_web`` sums one web-spline's eb-spline expansion point by point;
``eval_field_loop`` is the chunked field evaluation that tabulated the basis
separately from the assembly tables. Neither shares code with
:class:`webfem.webbasis.BasisValues`. ``extension_exact`` computes the
extension coefficients in exact rational arithmetic, sharing no code with
:mod:`webfem.splines`. ``extension_matrix_loop`` builds the extension matrix
entry by entry from dicts keyed by index pairs, and ``project_loop`` the
quasi-interpolant one inner index at a time (``interpolate_piece`` on its
designated cell, then ``deboor_fix``); the batched
:meth:`webfem.webbasis.WebBasis.extension_matrix` and
:func:`webfem.webbasis.project` must reproduce them.

Scalar references the library itself does not need:

* ``eval_bspline``, ``eval_bspline_deriv`` and ``eval_tensor_bspline``:
  the Cox-de Boor recursion at one point, against which
  :func:`webfem.splines.nonzero_basis` is checked;
* ``nonzero_basis_cox_de_boor`` (with ``find_spans``): the vectorised
  Cox-de Boor triangle (NURBS book, A2.2/A2.3) that evaluated the nonzero
  B-splines before :func:`webfem.splines.nonzero_basis` read the Bernstein
  pieces; the library must reproduce its spans exactly and its values and
  derivatives to rounding wherever the last knot of the core is simple (on
  a repeated one the triangle reads an empty span and returns zeros);
* ``local_polynomial`` (tensor piece of one B-spline on one cell, a
  ``PolynomialPiece``), ``deboor_fix`` (tensor de Boor-Fix functional of a
  piece) and ``dual_functional_1d`` (univariate de Boor-Fix functional of a
  Bernstein polynomial), the halves of the bi-orthogonality checks;
* ``interpolate_piece``: the tensor interpolant of a function on one cell;
* ``local_polynomial_1d_loop``: the piece of one B-spline on one cell by the
  Cox-de Boor recursion one B-spline at a time, which the batched
  :func:`webfem.splines.local_polynomial_1d` must reproduce exactly;
* ``kv_support``, ``kv_cell_bounds``, ``kv_support_cells`` and
  ``grid_cell_bounds``, ``grid_cells``, ``grid_support_cells``,
  ``grid_support_box``: supports and cell bounds one index at a time;
* ``basis_values_point``: the row of :class:`webfem.webbasis.BasisValues`
  at one point, from the Cox-de Boor recursion of each B-spline's piece on
  the point's knot spans and the product rule with the weight;
* ``BasisValuesPointColumns``: the tabulation kernel that stored the
  columns of every point and built each table from full-length
  ``np.repeat``/``np.tile`` factors, whose tables, columns
  (``point_columns`` of the library's kernel) and fields
  :class:`webfem.webbasis.BasisValues` must reproduce exactly;
* ``weight`` and ``weight_gradient`` at a single point;
* ``cell_rule`` (Gauss rule on one box) and ``integrate`` (one cut-cell
  integral);
* ``raw_weighted_gram`` (Gram matrix of the unextended weighted basis) and
  ``assemble_dipole_rhs`` (load of a dipole source ``f = div d``);
* ``linear_form_points``: the load vector scattered point by point, which
  the per-cell :func:`webfem.assembly.linear_form` must reproduce to
  rounding;
* ``classify_indices_loop``: the index classification one B-spline at a
  time, with the Hausdorff distance taken one outer support at a time, which
  :func:`webfem.geometry.classify_indices` must reproduce exactly;
* ``pressure_patches_loop``: the patch layout of a
  :class:`webfem.assembly.PressureSpace` from tuple-keyed dicts, a 3x3
  neighbor scan per sliver and a chain walk per patch, which the array pass
  of the space must reproduce exactly;
* ``project_pressure_mass_gather``: the pressure projection that gathers
  the patch blocks out of the assembled global mass, which
  :func:`webfem.assembly.project_pressure` must reproduce exactly;
* ``error_norms_full`` (with ``mixed_norms_full`` and the sampler
  ``shared_sampler_full``), ``jackson_error_full`` and
  ``pressure_projection_error_full``: the error norms on whole arrays over
  an error rule built in full, each integrand formed at every point at
  once; the blocked norms of :func:`webfem.analysis.error_norms` (through
  which :func:`webfem.analysis.jackson_error` runs) and
  :func:`webfem.analysis.pressure_projection_error` on the composed error
  rule must reproduce them exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np
import scipy.sparse as sp

from webfem.analysis import AnalysisError
from webfem.assembly import (
    SLIVER_FRACTION, _mass_and_integral, bilinear_form, linear_form,
    project_pressure,
)
from webfem.geometry import CellLabel, IndexSets, ResolutionError, squared_norm
from webfem.quadrature import build_quadrature, gauss_2d
from webfem.splines import (
    SplineError, _bern_interp_matrix, _bern_row, _cheb_nodes, dual_row,
    local_polynomial_1d, nonzero_basis,
)
from webfem.solvers import SolutionField
from webfem.webbasis import BasisError, eval_fields, project


# ---------------------------------------------------------------------------
# spline accessors (cell bounds and supports one index at a time)
# ---------------------------------------------------------------------------

def kv_support(kv, i):
    """Closure of the support of basis function ``i``."""
    if not 0 <= i < kv.num_basis:
        raise SplineError(f"basis index {i} out of range [0, {kv.num_basis})")
    return kv.knots[i], kv.knots[i + kv.degree + 1]


def kv_cell_bounds(kv, j):
    """Endpoints of cell ``j`` (interval between distinct knots)."""
    if not 0 <= j < kv.num_cells:
        raise SplineError(f"cell index {j} out of range [0, {kv.num_cells})")
    return kv.breakpoints[j], kv.breakpoints[j + 1]


def kv_support_cells(kv, i):
    """Indices of the cells contained in the support of basis ``i``."""
    lo, hi = kv_support(kv, i)
    a = int(np.searchsorted(kv.breakpoints, lo, side="left"))
    b = int(np.searchsorted(kv.breakpoints, hi, side="left"))
    return range(a, b)


def grid_cell_bounds(grid, cell):
    """((x0, x1), (y0, y1)) bounds of cell ``(jx, jy)``."""
    jx, jy = cell
    return kv_cell_bounds(grid.kvs[0], jx), kv_cell_bounds(grid.kvs[1], jy)


def grid_cells(grid):
    nx, ny = grid.num_cells
    return ((jx, jy) for jx in range(nx) for jy in range(ny))


def grid_support_cells(grid, k):
    """All cells contained in the support of tensor basis ``k = (k1, k2)``."""
    rx = kv_support_cells(grid.kvs[0], k[0])
    ry = kv_support_cells(grid.kvs[1], k[1])
    return [(jx, jy) for jx in rx for jy in ry]


def grid_support_box(grid, k):
    """Support rectangle of tensor basis ``k`` as (lo, hi) arrays."""
    sx = kv_support(grid.kvs[0], k[0])
    sy = kv_support(grid.kvs[1], k[1])
    return np.array([sx[0], sy[0]]), np.array([sx[1], sy[1]])


def eval_web(basis, i, x, deriv=(0, 0)):
    """Value or first partial derivative of web-spline ``B_i`` at a point.

    Reference (scalar) path: sums the eb-spline expansion directly and
    applies the product rule with the weight. Exactly zero outside the
    support union and outside the domain.
    """
    idx = basis.idx
    hit = np.flatnonzero(np.all(idx.inner == np.asarray(i), axis=1))
    if hit.size == 0:
        raise BasisError(f"{i} is not an inner index")
    couples = idx.pair_inner == hit[0]
    total = deriv[0] + deriv[1]
    if total > 1:
        raise BasisError("only values and first derivatives are supported")
    grid = basis.grid
    x = np.asarray(x, dtype=float)

    def eb(d):
        val = (eval_bspline_deriv(grid.kvs[0], i[0], x[0], d[0])
               * eval_bspline_deriv(grid.kvs[1], i[1], x[1], d[1]))
        for j, e in zip(idx.outer[idx.pair_outer[couples]],
                        basis.ext.entries[couples]):
            val += (e * eval_bspline_deriv(grid.kvs[0], j[0], x[0], d[0])
                    * eval_bspline_deriv(grid.kvs[1], j[1], x[1], d[1]))
        return val

    wxi = basis.w_center[hit[0]]
    w = float(basis.domain.weight(x[None, :])[0])
    if total == 0:
        return w * eb((0, 0)) / wxi
    gw = basis.domain.weight_gradient(x[None, :])[0]
    ax = 0 if deriv[0] == 1 else 1
    return (gw[ax] * eb((0, 0)) + w * eb(deriv)) / wxi


def eval_field_loop(basis, coeffs, pts, nderiv=0, chunk=200000):
    """Values (and gradients) of a web expansion, tabulated block by block.

    Same contract as :class:`webfem.solvers.SolutionField`: B-splines outside
    the relevant set contribute 0.
    """
    grid = basis.grid
    pts = np.asarray(pts, dtype=float)
    m1, m2 = grid.degrees
    c_full = basis.coupling_matrix().T @ np.asarray(coeffs, dtype=float)
    c_pad = np.concatenate([c_full, [0.0]])

    n = pts.shape[0]
    vals = np.empty(n)
    grads = np.empty((n, 2)) if nderiv else None
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        blk = pts[sl]
        sx, dx = nonzero_basis(grid.kvs[0], blk[:, 0], nderiv)
        sy, dy = nonzero_basis(grid.kvs[1], blk[:, 1], nderiv)
        ax = sx[:, None] - m1 + np.arange(m1 + 1)[None, :]
        ay = sy[:, None] - m2 + np.arange(m2 + 1)[None, :]
        cols = basis.kcol[ax[:, :, None], ay[:, None, :]]
        cw = c_pad[np.where(cols >= 0, cols, c_full.size)]
        b = dx[0][:, :, None] * dy[0][:, None, :]
        s = np.einsum("nab,nab->n", cw, b)
        w = basis.domain.weight(blk)
        vals[sl] = w * s
        if nderiv:
            bx = dx[1][:, :, None] * dy[0][:, None, :]
            by = dx[0][:, :, None] * dy[1][:, None, :]
            sx_ = np.einsum("nab,nab->n", cw, bx)
            sy_ = np.einsum("nab,nab->n", cw, by)
            gw = basis.domain.weight_gradient(blk)
            grads[sl] = gw * s[:, None] + w[:, None] * np.column_stack([sx_, sy_])
    if nderiv == 0:
        return vals
    return vals, grads


def _piece_monomial(t, i, m, a, b):
    """Exact monomial coefficients (in x) of B-spline ``b_i`` of degree ``m``
    on the cell [a, b], by Cox-de Boor on polynomials over ``Fraction``s."""

    def add_times_linear(out, c, alpha, beta):  # out += c(x) * (alpha + beta * x)
        for k, ck in enumerate(c):
            out[k] += alpha * ck
            out[k + 1] += beta * ck

    level = {r: [Fraction(int(t[r] <= a and b <= t[r + 1]))]
             for r in range(i, i + m + 1)}
    for k in range(1, m + 1):
        nxt = {}
        for r in range(i, i + m + 1 - k):
            c = [Fraction(0)] * (k + 1)
            if t[r + k] > t[r]:
                d = t[r + k] - t[r]
                add_times_linear(c, level[r], -t[r] / d, 1 / d)
            if t[r + k + 1] > t[r + 1]:
                d = t[r + k + 1] - t[r + 1]
                add_times_linear(c, level[r + 1], t[r + k + 1] / d, -1 / d)
            nxt[r] = c
        level = nxt
    return level[i]


def _blossom(mono, args):
    """Polar form at ``args`` (m of them) of the polynomial with monomial
    coefficients ``mono`` (degree <= m): sum_k a_k e_k(args) / C(m, k)."""
    m = len(args)
    e = [Fraction(1)] + [Fraction(0)] * m  # elementary symmetric sums
    for u in args:
        for k in range(m, 0, -1):
            e[k] += u * e[k - 1]
    return sum(a * e[k] / comb(m, k) for k, a in enumerate(mono))


def extension_exact(grid, idx):
    """Exact ``e_{i,j} = lambda_j(p_{i,j})`` for every coupling of ``idx``,
    in coupling order, as ``Fraction``s of the floating-point knots: the
    product over the axes of the blossom of the piece of ``b_{i_a}`` on cell
    ``q_a`` at the interior knots of ``b_{j_a}``."""
    knots = [[Fraction(float(x)) for x in kv.knots] for kv in grid.kvs]
    cells = [[Fraction(float(x)) for x in kv.breakpoints] for kv in grid.kvs]
    factors = {}

    def factor(axis, i_a, j_a, q_a):
        key = (axis, i_a, j_a, q_a)
        if key not in factors:
            t, m = knots[axis], grid.kvs[axis].degree
            mono = _piece_monomial(t, i_a, m, cells[axis][q_a], cells[axis][q_a + 1])
            factors[key] = _blossom(mono, t[j_a + 1:j_a + m + 1])
        return factors[key]

    return [factor(0, i[0], j[0], q[0]) * factor(1, i[1], j[1], q[1])
            for i, j, q in zip(idx.inner[idx.pair_inner].tolist(),
                               idx.outer[idx.pair_outer].tolist(),
                               idx.q_cell[idx.pair_outer].tolist())]


def extension_matrix_loop(basis):
    """The extension matrix E (n_inner x n_relevant) entry by entry: the
    identity on inner columns, then the coefficients of ``basis.ext`` keyed
    by their (inner, outer) index pair, in sorted order of the pairs."""
    idx = basis.idx
    inner = [tuple(i) for i in idx.inner.tolist()]
    outer = [tuple(j) for j in idx.outer.tolist()]
    kmap = {tuple(k): c for c, k in enumerate(idx.relevant.tolist())}
    imap = {i: r for r, i in enumerate(inner)}
    entries = {(inner[a], outer[b]): e for a, b, e in zip(
        idx.pair_inner.tolist(), idx.pair_outer.tolist(),
        basis.ext.entries.tolist())}
    rows, cols, data = [], [], []
    for r, i in enumerate(inner):
        rows.append(r)
        cols.append(kmap[i])
        data.append(1.0)
    for (i, j), e in sorted(entries.items()):
        rows.append(imap[i])
        cols.append(kmap[j])
        data.append(e)
    return sp.csr_matrix((data, (rows, cols)),
                         shape=(basis.n_inner, basis.n_relevant))


def project_loop(basis, f):
    """Coefficients of the quasi-interpolant P_h f, one inner index at a
    time: ``w(x_i) * deboor_fix`` of the interpolant of f/w on the
    designated interior cell of ``b_i``."""
    grid = basis.grid
    dom = basis.domain
    degrees = grid.degrees

    def f_over_w(pts):
        w = dom.weight(pts)
        vals = np.asarray(f(pts), dtype=float) / w
        return vals

    coeffs = np.empty(basis.n_inner)
    for r, (i, cell) in enumerate(zip(map(tuple, basis.idx.inner.tolist()),
                                      map(tuple, basis.idx.center_cell.tolist()))):
        (x0, x1), (y0, y1) = grid_cell_bounds(grid, cell)
        piece = interpolate_piece(f_over_w, (x0, y0), (x1, y1), degrees)
        if not np.all(np.isfinite(piece.coeffs)):
            raise BasisError(
                f"f/w is not interpolable on the inner cell {cell} of index {i}; "
                "the input does not vanish fast enough at the boundary")
        coeffs[r] = basis.w_center[r] * deboor_fix(grid.kvs, i, piece)
    return coeffs


# ---------------------------------------------------------------------------
# scalar B-spline evaluation (Cox-de Boor)
# ---------------------------------------------------------------------------

def eval_bspline(kv, index, x):
    """Value of the non-uniform B-spline ``b_index`` at ``x``.

    Evaluation at interior knots is right-continuous; at the last knot of
    the knot vector the value is the limit from the left.
    """
    m = kv.degree
    t = kv.knots
    if not 0 <= index < kv.num_basis:
        raise SplineError(f"basis index {index} out of range [0, {kv.num_basis})")
    if not np.isfinite(x):
        raise SplineError(f"evaluation point must be finite, got {x}")
    return _cox_de_boor(t, index, m, float(x), t[-1])


def _cox_de_boor(t, i, k, x, t_end):
    if k == 0:
        if t[i] <= x < t[i + 1]:
            return 1.0
        # closed on the right at the global last knot
        if x == t_end and t[i] < t[i + 1] == t_end:
            return 1.0
        return 0.0
    val = 0.0
    d1 = t[i + k] - t[i]
    if d1 > 0.0:
        val += (x - t[i]) / d1 * _cox_de_boor(t, i, k - 1, x, t_end)
    d2 = t[i + k + 1] - t[i + 1]
    if d2 > 0.0:
        val += (t[i + k + 1] - x) / d2 * _cox_de_boor(t, i + 1, k - 1, x, t_end)
    return val


def eval_bspline_deriv(kv, index, x, order):
    """Order-th derivative of ``b_index`` at ``x``.

    One-sided limits are taken from the right at interior knots and from
    the left at the last knot. Orders above the degree return 0 (the
    pointwise a.e. derivative of a piecewise polynomial).
    """
    if order < 0:
        raise SplineError(f"derivative order must be nonnegative, got {order}")
    if order == 0:
        return eval_bspline(kv, index, x)
    m = kv.degree
    if order > m:
        return 0.0
    t = kv.knots
    if not 0 <= index < kv.num_basis:
        raise SplineError(f"basis index {index} out of range [0, {kv.num_basis})")
    return _deriv_rec(t, index, m, float(x), order, t[-1])


def _deriv_rec(t, i, k, x, order, t_end):
    if order == 0:
        return _cox_de_boor(t, i, k, x, t_end)
    val = 0.0
    d1 = t[i + k] - t[i]
    if d1 > 0.0:
        val += k / d1 * _deriv_rec(t, i, k - 1, x, order - 1, t_end)
    d2 = t[i + k + 1] - t[i + 1]
    if d2 > 0.0:
        val -= k / d2 * _deriv_rec(t, i + 1, k - 1, x, order - 1, t_end)
    return val


def find_spans(kv, x):
    """Largest i with knots[i] <= x < knots[i+1] for each point of ``x``
    (the last nonempty span at x = end)."""
    t = kv.knots
    x = np.asarray(x, dtype=float)
    s = np.searchsorted(t, x, side="right") - 1
    last = int(np.searchsorted(t, t[-1], side="left")) - 1
    return np.where(x >= t[-1], last, s)


def nonzero_basis_cox_de_boor(kv, x, nderiv=0):
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


def eval_tensor_bspline(grid, multi_index, point, deriv=(0, 0)):
    """Product of univariate B-spline factors with per-axis derivative orders."""
    vx = eval_bspline_deriv(grid.kvs[0], multi_index[0], point[0], deriv[0])
    vy = eval_bspline_deriv(grid.kvs[1], multi_index[1], point[1], deriv[1])
    return vx * vy


def _piece_deriv(t, s, i, k, x, order):
    """Order-th derivative at ``x`` of the polynomial piece of the degree-k
    B-spline ``b_i`` on the knot span [t[s], t[s+1]]: the Cox-de Boor
    recursion with the span's indicator in place of the degree-0 B-splines,
    so that a point on a knot reads the piece of the span it is given."""
    if k == 0:
        return float(i == s and order == 0)
    val = 0.0
    d1 = t[i + k] - t[i]
    d2 = t[i + k + 1] - t[i + 1]
    if order == 0:
        if d1 > 0.0:
            val += (x - t[i]) / d1 * _piece_deriv(t, s, i, k - 1, x, 0)
        if d2 > 0.0:
            val += (t[i + k + 1] - x) / d2 * _piece_deriv(t, s, i + 1, k - 1, x, 0)
    else:
        if d1 > 0.0:
            val += k / d1 * _piece_deriv(t, s, i, k - 1, x, order - 1)
        if d2 > 0.0:
            val -= k / d2 * _piece_deriv(t, s, i + 1, k - 1, x, order - 1)
    return val


class BasisValuesPointColumns:
    """The tabulation kernel that stored the columns of every point: ``idx``
    (N, na) and ``span_key`` (N,) per point, and each table one separable
    product of full-length factors, built with ``np.repeat``/``np.tile``
    (:func:`_outer`). :class:`webfem.webbasis.BasisValues` must reproduce
    its tables, columns and fields exactly."""

    def __init__(self, basis, pts, nderiv=1):
        grid = basis.grid
        (m1, m2), (nbx, nby) = grid.degrees, grid.num_basis
        spans, ders = [], []
        for ax, kv in enumerate(grid.kvs):
            coords, inv = np.unique(pts[:, ax], return_inverse=True)
            s, d = nonzero_basis(kv, coords, nderiv)
            spans.append(np.take(s, inv))
            ders.append(np.take(d, inv, axis=1))
        (sx, sy), (dx, dy) = spans, ders
        self.span_key = sx * nby + sy
        used = np.zeros(nbx * nby, dtype=bool)
        used[self.span_key] = True
        kx, ky = np.divmod(np.flatnonzero(used), nby)
        rows = basis.kcol[(kx[:, None] - m1 + np.arange(m1 + 1))[:, :, None],
                          (ky[:, None] - m2 + np.arange(m2 + 1))[:, None, :]]
        self.idx = np.take(rows.reshape(kx.size, (m1 + 1) * (m2 + 1)),
                           (np.cumsum(used) - 1)[self.span_key], axis=0)
        if nderiv == 0:
            w = basis.domain.weight(pts)
        else:
            w, gw = basis.domain.weight_and_gradient(pts)
        by = np.tile(dy[0], m1 + 1)
        self.wb = _outer(w[:, None] * dx[0], by)
        if nderiv >= 1:
            self.wbx = _outer(gw[:, :1] * dx[0] + w[:, None] * dx[1], by)
            self.wby = _outer(dx[0], np.tile(
                gw[:, 1:] * dy[0] + w[:, None] * dy[1], m1 + 1))

    def field(self, c_full, grad=False):
        """Field values (and gradient) of a full-basis coefficient vector.

        A column of -1 reads ``c_full[-1]``; where ``idx`` has any, pass the
        vector with a trailing 0 so that those B-splines contribute nothing.
        """
        cw = c_full[self.idx]
        vals = np.einsum("na,na->n", cw, self.wb)
        if not grad:
            return vals
        gx = np.einsum("na,na->n", cw, self.wbx)
        gy = np.einsum("na,na->n", cw, self.wby)
        return vals, np.column_stack([gx, gy])


def _outer(a, b_tiled):
    """Row-wise outer products a (x) b of a (N, p) and b (N, q), as (N, p q),
    from a and ``b_tiled = np.tile(b, p)``."""
    out = np.repeat(a, b_tiled.shape[1] // a.shape[1], axis=1)
    out *= b_tiled
    return out


def point_columns(values):
    """(N, na) columns of every point of a
    :class:`webfem.webbasis.BasisValues`, -1 off the relevant set."""
    return values.rows[values.row_of]


def basis_values_point(basis, x):
    """``(idx, wb, wbx, wby)`` of the weighted tensor basis at one point.

    Per axis the point reads the last knot span [t_s, t_{s+1}] of the
    full-support region with t_s <= x (so the left span at the region's
    right edge), whose B-splines are s - m .. s. The rows list them x-major,
    like :class:`webfem.webbasis.BasisValues`; ``idx`` is -1 off the
    relevant set.
    """
    x = np.asarray(x, dtype=float)
    per_axis = []
    for kv, xa in zip(basis.grid.kvs, x):
        t, m = kv.knots, kv.degree
        s = max(j for j in range(m, kv.num_basis) if t[j] <= xa)
        ks = list(range(s - m, s + 1))
        per_axis.append((ks, [[_piece_deriv(t, s, k, m, xa, d) for k in ks]
                              for d in (0, 1)]))
    (kx, (bx, dbx)), (ky, (by, dby)) = per_axis
    w = weight(basis.domain, x)
    gw = weight_gradient(basis.domain, x)
    idx, wb, wbx, wby = [], [], [], []
    for a, i in enumerate(kx):
        for b, j in enumerate(ky):
            idx.append(basis.kcol[i, j])
            wb.append(w * bx[a] * by[b])
            wbx.append(gw[0] * bx[a] * by[b] + w * dbx[a] * by[b])
            wby.append(gw[1] * bx[a] * by[b] + w * bx[a] * dby[b])
    return np.array(idx), np.array(wb), np.array(wbx), np.array(wby)


# ---------------------------------------------------------------------------
# local pieces and dual functionals
# ---------------------------------------------------------------------------

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

    def __call__(self, x, y):
        c = self.coeffs
        tx = (x - self.lo[0]) / (self.hi[0] - self.lo[0])
        ty = (y - self.lo[1]) / (self.hi[1] - self.lo[1])
        return _bern_row(c.shape[0] - 1, tx) @ c @ _bern_row(c.shape[1] - 1, ty)


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


def local_polynomial(grid, multi_index, cell):
    """Tensor polynomial agreeing with B-spline ``multi_index`` on ``cell``.

    The piece is valid for evaluation anywhere; outside the cell it is the
    polynomial extension of the restriction.
    """
    (x0, x1), (y0, y1) = grid_cell_bounds(grid, cell)
    if not (x1 > x0 and y1 > y0):
        raise SplineError(f"degenerate cell {cell}")
    cx = local_polynomial_1d(grid.kvs[0], multi_index[0], cell[0])
    cy = local_polynomial_1d(grid.kvs[1], multi_index[1], cell[1])
    return PolynomialPiece(lo=np.array([x0, y0]), hi=np.array([x1, y1]),
                           coeffs=np.outer(cx, cy), factors=(cx, cy))


def local_polynomial_1d_loop(kv, index, cell_idx):
    """Bernstein coefficients of ``b_index`` on cell ``cell_idx``: the
    Cox-de Boor recursion on monomial coefficients in the cell-local
    coordinate, one lower-degree B-spline at a time."""
    m = kv.degree
    a, b = kv_cell_bounds(kv, cell_idx)
    h = b - a
    t = kv.knots

    def times_linear(c, alpha, beta):
        # polynomial product c(xi) * (alpha + beta * xi), monomial basis
        out = np.zeros(c.size + 1)
        out[:-1] += alpha * c
        out[1:] += beta * c
        return out

    level = {i: (np.array([1.0]) if t[i] <= a and b <= t[i + 1]
                 else np.array([0.0]))
             for i in range(index, index + m + 1)}
    for k in range(1, m + 1):
        nxt = {}
        for i in range(index, index + m + 1 - k):
            c = np.zeros(k + 1)
            d1 = t[i + k] - t[i]
            if d1 > 0.0:
                lo = times_linear(level[i], (a - t[i]) / d1, h / d1)
                c[:lo.size] += lo
            d2 = t[i + k + 1] - t[i + 1]
            if d2 > 0.0:
                hi = times_linear(level[i + 1], (t[i + k + 1] - a) / d2,
                                  -h / d2)
                c[:hi.size] += hi
            nxt[i] = c
        level = nxt
    mono = level[index]
    return np.array([sum(mono[k] * comb(a_, k) / comb(m, k)
                         for k in range(a_ + 1)) for a_ in range(m + 1)])


def dual_functional_1d(kv, index, coeffs, lo, hi):
    """Univariate de Boor-Fix functional applied to a Bernstein polynomial.

    ``coeffs`` are Bernstein coefficients on [lo, hi].
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size > kv.degree + 1:
        raise SplineError(
            f"polynomial degree {c.size - 1} exceeds basis degree {kv.degree}")
    return float(dual_row(kv, index, lo, hi) @ _elevated(c, kv.degree))


# ---------------------------------------------------------------------------
# weight, quadrature and assembly at small scale
# ---------------------------------------------------------------------------

def weight(domain, x):
    """Scalar weight value at a single point."""
    return float(domain.weight(np.asarray(x, dtype=float)[None, :])[0])


def weight_gradient(domain, x):
    """Scalar weight gradient at a single point."""
    return domain.weight_gradient(np.asarray(x, dtype=float)[None, :])[0]


def cell_rule(lo, hi, g):
    """Tensor Gauss points and weights on the box [lo, hi]."""
    ref, w = gauss_2d(g)
    lo = np.asarray(lo, dtype=float)
    size = np.asarray(hi, dtype=float) - lo
    return lo + ref * size, w * size[0] * size[1]


def integrate(domain, grid, cls, f, g=3, depth=6):
    """Integral of ``f`` over the domain using the cut-cell rule."""
    return build_quadrature(domain, grid, cls, g, depth).integrate(f)


def raw_weighted_gram(tables):
    """Gram matrix of the raw weighted basis {w b_k, k in K} (no extension)."""
    return bilinear_form(tables.plan, tables.qw,
                         [(1.0, tables.wb, tables.wb)])


def linear_form_points(idx, qw, terms, n_cols):
    """Vector  sum_q qw_q * sum_t c_t(q) F_t(q, a)  with every point's row
    scattered to its own columns ``idx`` (N, na)."""
    acc = None
    for c, fa in terms:
        contrib = (qw * c)[:, None] * fa
        acc = contrib if acc is None else acc + contrib
    return np.bincount(idx.ravel(), weights=acc.ravel(), minlength=n_cols)


def assemble_dipole_rhs(basis, d, tables):
    """Load vector for a dipole source f = div d in weak form: -int d.grad B."""
    d_vals = d(tables.points) if callable(d) else np.broadcast_to(
        np.asarray(d, dtype=float), (tables.num_points, 2))
    return tables.web_load([(-d_vals[:, 0], tables.wbx),
                            (-d_vals[:, 1], tables.wby)])


# ---------------------------------------------------------------------------
# index classification, one B-spline at a time
# ---------------------------------------------------------------------------

def _box_corner_hausdorff(alo, ahi, blo, bhi):
    """Exact Hausdorff distance between axis-aligned boxes (corner formula).

    Vectorized over the second box: blo, bhi have shape (n, 2).
    """
    corners_a = np.array([[alo[0], alo[1]], [alo[0], ahi[1]],
                          [ahi[0], alo[1]], [ahi[0], ahi[1]]])
    # distance from each corner of A to box B
    d_ab = np.zeros(blo.shape[0])
    for c in corners_a:
        gap = np.maximum(np.maximum(blo - c, c - bhi), 0.0)
        d_ab = np.maximum(d_ab, np.hypot(gap[:, 0], gap[:, 1]))
    # distance from each corner of B to box A
    d_ba = np.zeros(blo.shape[0])
    for sx, sy in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cx = np.where(sx, bhi[:, 0], blo[:, 0])
        cy = np.where(sy, bhi[:, 1], blo[:, 1])
        gx = np.maximum(np.maximum(alo[0] - cx, cx - ahi[0]), 0.0)
        gy = np.maximum(np.maximum(alo[1] - cy, cy - ahi[1]), 0.0)
        d_ba = np.maximum(d_ba, np.hypot(gx, gy))
    return np.maximum(d_ab, d_ba)


def _covered_by(kv, lo, hi):
    """Basis indices whose support contains the interval [lo, hi]."""
    m = kv.degree
    t = kv.knots
    return [i for i in range(kv.num_basis) if t[i] <= lo and hi <= t[i + m + 1]]


def classify_indices_loop(grid, cls):
    """Relevant / inner / outer split, one (i1, i2) at a time; same contract
    as :func:`webfem.geometry.classify_indices`."""
    labels = cls.labels
    nbx, nby = grid.num_basis
    interior_cells = [tuple(c) for c in
                      np.argwhere(labels == CellLabel.INTERIOR).tolist()]
    if not interior_cells:
        raise ResolutionError(
            "no interior grid cells: the grid is too coarse for this domain; "
            "refine the grid or enlarge the domain")
    int_arr = np.array(interior_cells)
    bx = grid.kvs[0].breakpoints
    by = grid.kvs[1].breakpoints
    int_lo = np.column_stack([bx[int_arr[:, 0]], by[int_arr[:, 1]]])
    int_hi = np.column_stack([bx[int_arr[:, 0] + 1], by[int_arr[:, 1] + 1]])

    sup_x = [kv_support_cells(grid.kvs[0], i) for i in range(nbx)]
    sup_y = [kv_support_cells(grid.kvs[1], i) for i in range(nby)]

    relevant, inner, outer = [], [], []
    center, center_cell = {}, {}
    for i1 in range(nbx):
        rx = sup_x[i1]
        for i2 in range(nby):
            sub = labels[rx.start:rx.stop, sup_y[i2].start:sup_y[i2].stop]
            if sub.size == 0 or np.all(sub == CellLabel.EXTERIOR):
                continue
            k = (i1, i2)
            relevant.append(k)
            pos = np.argwhere(sub == CellLabel.INTERIOR)
            if pos.size:
                inner.append(k)
                jx, jy = pos[0]  # argwhere scans lexicographically
                cell = (rx.start + int(jx), sup_y[i2].start + int(jy))
                center_cell[k] = cell
                (x0, x1), (y0, y1) = grid_cell_bounds(grid, cell)
                center[k] = np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
            else:
                outer.append(k)

    if not inner:
        raise ResolutionError(
            "no inner B-splines: every relevant spline is cut by the boundary; "
            "refine the grid")

    q_cell, i_of_j, alpha = {}, {}, {}
    inner_set = set(inner)
    for j in outer:
        alo, ahi = grid_support_box(grid, j)
        d = _box_corner_hausdorff(alo, ahi, int_lo, int_hi)
        near = np.nonzero(d <= d.min() * (1.0 + 1e-12))[0]
        # interior_cells is lexicographically sorted, so the first hit wins ties
        q = interior_cells[near[0]]
        q_cell[j] = q
        (x0, x1), (y0, y1) = grid_cell_bounds(grid, q)
        covering = [(a, b) for a in _covered_by(grid.kvs[0], x0, x1)
                    for b in _covered_by(grid.kvs[1], y0, y1)]
        i_of_j[j] = sorted(i for i in covering if i in inner_set)
        alpha[j] = min((x1 - x0) / (ahi[0] - alo[0]), (y1 - y0) / (ahi[1] - alo[1]))

    position = {i: r for r, i in enumerate(inner)}

    def rows(keys):
        return np.array(keys, dtype=np.int64).reshape(-1, 2)

    return IndexSets(
        relevant=rows(relevant), inner=rows(inner), outer=rows(outer),
        q_cell=rows([q_cell[j] for j in outer]),
        alpha=np.array([alpha[j] for j in outer]),
        center=np.array([center[i] for i in inner]),
        center_cell=rows([center_cell[i] for i in inner]),
        pair_inner=np.array([position[i] for j in outer for i in i_of_j[j]],
                            dtype=np.int64),
        pair_outer=np.array([b for b, j in enumerate(outer) for _ in i_of_j[j]],
                            dtype=np.int64))


def pressure_patches_loop(grid, quad, degree, macro=1):
    """(cells, pos, center, half, n_dofs) of a pressure space: the sorted
    root patches, and per grid cell the dof position of its host patch (-1:
    no dofs) and that patch's center and half widths."""
    nx, ny = grid.num_cells
    ids, inv = np.unique(quad.cell_ids, return_inverse=True)
    cell_area = np.bincount(inv, weights=quad.weights)
    bx = grid.kvs[0].breakpoints
    by = grid.kvs[1].breakpoints
    # group grid cells into macro patches, measuring their cut coverage
    patch_area, patch_full = {}, {}
    for cid, area in zip(ids.tolist(), cell_area):
        jx, jy = divmod(int(cid), ny)
        pc = (jx // macro, jy // macro)
        patch_area[pc] = patch_area.get(pc, 0.0) + area
        full = (bx[jx + 1] - bx[jx]) * (by[jy + 1] - by[jy])
        patch_full[pc] = patch_full.get(pc, 0.0) + full
    fraction = {c: patch_area[c] / patch_full[c] for c in patch_area}
    # sliver patches join the best-covered patch in their neighborhood;
    # chains resolve by following hosts to a root
    assign = {}
    for c in sorted(patch_area):
        if fraction[c] >= SLIVER_FRACTION:
            assign[c] = c
            continue
        best = c
        for dx_ in (-1, 0, 1):
            for dy_ in (-1, 0, 1):
                nb = (c[0] + dx_, c[1] + dy_)
                if nb in fraction and fraction[nb] > fraction[best]:
                    best = nb
        assign[c] = best
    for c in sorted(assign):
        seen = {c}
        root = assign[c]
        while assign[root] != root and root not in seen:
            seen.add(root)
            root = assign[root]
        assign[c] = root
    roots = sorted({assign[c] for c in assign})
    root_pos = {c: r for r, c in enumerate(roots)}
    hosts = np.array([assign[(c // ny // macro, c % ny // macro)]
                      for c in ids.tolist()])
    pos = np.full(nx * ny, -1, dtype=np.int64)
    pos[ids] = [root_pos[tuple(h)] for h in hosts.tolist()]
    x0 = bx[hosts[:, 0] * macro]
    x1 = bx[np.minimum((hosts[:, 0] + 1) * macro, nx)]
    y0 = by[hosts[:, 1] * macro]
    y1 = by[np.minimum((hosts[:, 1] + 1) * macro, ny)]
    center = np.zeros((nx * ny, 2))
    half = np.ones((nx * ny, 2))
    center[ids] = np.column_stack([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
    half[ids] = np.column_stack([0.5 * (x1 - x0), 0.5 * (y1 - y0)])
    return roots, pos, center, half, len(roots) * (degree + 1) ** 2


def project_pressure_mass_gather(pspace, quad, p_exact):
    """Cell-wise L2 projection onto the pressure space, gathering the patch
    blocks out of the assembled global pressure mass; the per-patch sums
    of :func:`webfem.assembly.project_pressure` must reproduce it exactly."""
    seg, cols, vals = pspace.rule(quad.points, quad.cell_ids)
    p_vals = p_exact(quad.points) if callable(p_exact) else np.asarray(p_exact)
    M, _ = _mass_and_integral(pspace.n_dofs, quad.weights, seg, cols, vals)
    rhs = linear_form(seg, cols, quad.weights, [(p_vals, vals)], pspace.n_dofs)
    nd = pspace.ndof_cell
    # M is block diagonal: gather its per-patch blocks, O(n_dofs * nd)
    coo = M.tocoo()
    blocks = np.zeros((len(pspace.cells), nd, nd))
    blocks[coo.row // nd, coo.row % nd, coo.col % nd] = coo.data
    rhs = rhs.reshape(-1, nd)
    out = np.zeros_like(rhs)
    for c, (block, loc) in enumerate(zip(blocks, rhs)):
        try:
            out[c] = np.linalg.solve(block, loc)
        except np.linalg.LinAlgError:
            out[c] = np.linalg.lstsq(block, loc, rcond=None)[0]
    return out.ravel()


# ---------------------------------------------------------------------------
# error norms on whole arrays
# ---------------------------------------------------------------------------

_SCALAR_NORMS = ("L2", "H1", "W1p", "quasinorm")
_MIXED_NORMS = ("Xnorm", "pressure_L2", "combined")


def shared_sampler_full(basis, tables, quad, err_quad):
    """``sample`` for :func:`error_norms_full` on ``err_quad`` that takes the
    boundary cells, where both rules hold the same leaves, from the assembly
    ``tables`` on ``quad`` and tabulates only the interior cells anew."""
    boundary = basis.cls.labels.ravel() == CellLabel.BOUNDARY
    shared, err_shared = boundary[quad.cell_ids], boundary[err_quad.cell_ids]
    if not (np.array_equal(quad.points[shared], err_quad.points[err_shared])
            and np.array_equal(quad.weights[shared],
                               err_quad.weights[err_shared])):
        raise AnalysisError("the error rule and the assembly rule differ on "
                            "boundary cells; their tables cannot be shared")
    rest = err_quad.points[~err_shared]

    def sample(field):
        c_fulls = field.full_coeffs()
        vals = np.empty((err_quad.num_points, len(c_fulls)))
        grads = np.empty(vals.shape + (2,))
        vals[~err_shared], grads[~err_shared] = eval_fields(
            basis, c_fulls, rest, grad=True)
        for k, c in enumerate(c_fulls):
            v, g = tables.field(c, grad=True)
            vals[err_shared, k], grads[err_shared, k] = v[shared], g[shared]
        return vals, grads

    return sample


def error_norms_full(field, case, norms, quad, sample, p=None):
    """:func:`error_norms` with ``sample(field)`` giving the values (N, k)
    and gradients (N, k, 2) of the k components of a field on ``quad``."""
    for norm in norms:
        if norm not in _SCALAR_NORMS + _MIXED_NORMS:
            raise AnalysisError(f"unknown norm {norm!r}")
    mixed = [norm in _MIXED_NORMS for norm in norms]
    if any(mixed):
        if not all(mixed):
            raise AnalysisError(
                f"cannot take scalar and mixed norms together: {tuple(norms)}")
        return mixed_norms_full(field, case, norms, quad, sample)
    pts = quad.points
    w = quad.weights
    vals, grads = sample(field)
    vals, grads = vals[:, 0], grads[:, 0]
    inside = field.basis.domain.inside(pts)
    exact_grad = case.gradient(pts)
    ev = np.where(inside, case.solution(pts) - vals, 0.0)
    eg = np.where(inside[:, None], exact_grad - grads, 0.0)
    eg2 = squared_norm(eg)
    p = p if p is not None else case.params.get("p")
    out = {}
    for norm in norms:
        if norm == "L2":
            out[norm] = float(np.sqrt(np.sum(w * ev ** 2)))
        elif norm == "H1":
            out[norm] = float(np.sqrt(np.sum(w * (ev ** 2 + eg2))))
        elif norm == "W1p":
            if p is None or p <= 1:
                raise AnalysisError(f"W1p norm needs an exponent p > 1, got {p}")
            s = eg2 ** (0.5 * p)
            out[norm] = float(np.sum(w * s) ** (1.0 / p))
        else:
            if p is None or p <= 1:
                raise AnalysisError(
                    f"quasi-norm needs an exponent p > 1, got {p}")
            gs = np.sqrt(squared_norm(exact_grad))
            ge = np.sqrt(eg2)
            base = gs + ge
            weight = np.zeros_like(base)
            pos = base > 0
            weight[pos] = base[pos] ** (p - 2.0)
            out[norm] = float(np.sqrt(np.sum(w * weight * ge ** 2)))
    return out


def mixed_norms_full(field, case, norms, quad, sample):
    velocity, pressure = field
    pts = quad.points
    w = quad.weights
    inside = velocity.basis.domain.inside(pts)
    out = {}
    if "Xnorm" in norms or "combined" in norms:
        vals, grads = sample(velocity)
        ev = np.where(inside[:, None], case.velocity(pts) - vals, 0.0)
        eg = np.where(inside[:, None, None],
                      case.velocity_gradient(pts) - grads, 0.0)
        x2 = np.sum(w * (squared_norm(ev) + squared_norm(eg)))
        out["Xnorm"] = float(np.sqrt(x2))
    if "pressure_L2" in norms or "combined" in norms:
        pv = pressure(pts)
        pe = case.pressure(pts)
        # align the quadrature means: the discrete pressure is mean zero with
        # respect to the cut rule, the exact one with respect to the true domain
        area = float(np.sum(w))
        diff = np.where(inside, pe - pv, 0.0)
        diff = diff - np.sum(w * diff) / area
        out["pressure_L2"] = float(np.sqrt(np.sum(w * diff ** 2)))
    if "combined" in norms:
        out["combined"] = out["Xnorm"] + out["pressure_L2"]
    return {norm: out[norm] for norm in norms}


def jackson_error_full(basis, u, grad_u, quad):
    """H1(Omega) norm of u - P_h u by quadrature.

    ``u`` and ``grad_u`` are callables on (N, 2) point arrays; ``quad`` is a
    :class:`~webfem.quadrature.DomainQuadrature`.
    """
    coeffs = project(basis, u)
    vals, grads = SolutionField(basis=basis, coeffs=coeffs)(quad.points,
                                                            grad=True)
    inside = basis.domain.inside(quad.points)
    ev = np.where(inside, np.asarray(u(quad.points), dtype=float) - vals, 0.0)
    eg = np.where(inside[:, None],
                  np.asarray(grad_u(quad.points), dtype=float) - grads, 0.0)
    return float(np.sqrt(np.sum(quad.weights * (ev ** 2 + squared_norm(eg)))))


def pressure_projection_error_full(pspace, quad, p_exact):
    """L2 error of the cell-wise projection Pi_h applied to ``p_exact``."""
    coeffs = project_pressure(pspace, quad, p_exact)
    resid = pspace.evaluate(coeffs, quad.points) - p_exact(quad.points)
    return float(np.sqrt(np.sum(quad.weights * resid ** 2)))
