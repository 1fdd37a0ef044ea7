"""Reference evaluation paths that the tests compare the library against.

``eval_web`` sums one web-spline's eb-spline expansion point by point;
``eval_field_loop`` is the chunked field evaluation that tabulated the basis
separately from the assembly tables. Neither shares code with
:class:`webfem.webbasis.BasisValues`. ``extension_exact`` computes the
extension coefficients in exact rational arithmetic, sharing no code with
:mod:`webfem.splines`.
"""

from fractions import Fraction
from math import comb

import numpy as np

from webfem.splines import eval_bspline_deriv, nonzero_basis
from webfem.webbasis import BasisError


def eval_web(basis, i, x, deriv=(0, 0)):
    """Value or first partial derivative of web-spline ``B_i`` at a point.

    Reference (scalar) path: sums the eb-spline expansion directly and
    applies the product rule with the weight. Exactly zero outside the
    support union and outside the domain.
    """
    if i not in basis.idx.j_of_i:
        raise BasisError(f"{i} is not an inner index")
    total = deriv[0] + deriv[1]
    if total > 1:
        raise BasisError("only values and first derivatives are supported")
    grid = basis.grid
    x = np.asarray(x, dtype=float)

    def eb(d):
        val = (eval_bspline_deriv(grid.kvs[0], i[0], x[0], d[0])
               * eval_bspline_deriv(grid.kvs[1], i[1], x[1], d[1]))
        for j in basis.idx.j_of_i[i]:
            val += (basis.ext.entries[(i, j)]
                    * eval_bspline_deriv(grid.kvs[0], j[0], x[0], d[0])
                    * eval_bspline_deriv(grid.kvs[1], j[1], x[1], d[1]))
        return val

    wxi = basis.w_center[basis.idx.imap[i]]
    w = float(basis.domain.weight(x[None, :])[0])
    if total == 0:
        return w * eb((0, 0)) / wxi
    gw = basis.domain.weight_gradient(x[None, :])[0]
    ax = 0 if deriv[0] == 1 else 1
    return (gw[ax] * eb((0, 0)) + w * eb(deriv)) / wxi


def eval_field_loop(basis, coeffs, pts, nderiv=0, chunk=200000):
    """Values (and gradients) of a web expansion, tabulated block by block.

    Same contract as :func:`webfem.webbasis.eval_field`: B-splines outside
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
    """Exact ``e_{i,j} = lambda_j(p_{i,j})`` for every (inner, outer) pair of
    ``idx``, as ``Fraction``s of the floating-point knots: the product over
    the axes of the blossom of the piece of ``b_{i_a}`` on cell ``q_a`` at
    the interior knots of ``b_{j_a}``."""
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

    out = {}
    for j in idx.outer:
        q = idx.q_cell[j]
        for i in idx.i_of_j[j]:
            out[(i, j)] = factor(0, i[0], j[0], q[0]) * factor(1, i[1], j[1], q[1])
    return out
