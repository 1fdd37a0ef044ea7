"""Reference evaluation paths that the tests compare the library against.

``eval_web`` sums one web-spline's eb-spline expansion point by point;
``eval_field_loop`` is the chunked field evaluation that tabulated the basis
separately from the assembly tables. Neither shares code with
:class:`webfem.webbasis.BasisValues`.
"""

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
