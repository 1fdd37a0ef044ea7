"""Numerical integration over implicitly bounded domains.

Interior cells carry tensor Gauss-Legendre rules. Boundary cells are
subdivided dyadically: sub-cells entirely inside or outside (judged by a
corner + center sample) are resolved immediately, straddling ones recurse
until the depth limit, where leaves are kept or dropped by their center
sample. Exterior cells contribute nothing. The subdivision runs level by
level over the boxes of all boundary cells at once. The rule lists each
cell as one run of points: first the interior cells in id order (the
head), then the boundary cells by (leaf count, cell id) (the tail), so
that cells of equal point count mostly sit next to each other (the batches
of :class:`~webfem.assembly.CellSegments`); within a cell, leaves come by
level and then by child order.

The error rule of a study level is composed rather than built: a new head
of the interior cells at another Gauss order, followed by the tail of the
assembly rule, which it reads in place (:class:`ComposedQuadrature`). A
rule for the boundary cells alone replaces the tail and nothing else.
Per-point passes over a rule run over :meth:`DomainQuadrature.blocks` of at
most ``BLOCK`` points.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import CellLabel


class QuadratureError(RuntimeError):
    """Non-finite integrand or invalid rule parameters."""


# points per block of the per-point passes over a rule (error norms,
# coefficient sampling): what such a pass holds beyond its outputs
BLOCK = 4096


def block_slices(n, start=0):
    """Slices of consecutive blocks of at most ``BLOCK`` of the points
    [start, n)."""
    return [slice(p0, min(p0 + BLOCK, n)) for p0 in range(start, n, BLOCK)]


@lru_cache(maxsize=32)
def gauss_1d(g):
    """Gauss-Legendre nodes and weights on (0, 1)."""
    if g < 1:
        raise QuadratureError(f"need at least one Gauss point per axis, got {g}")
    x, w = np.polynomial.legendre.leggauss(g)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=32)
def gauss_2d(g):
    """Tensor Gauss-Legendre rule on the unit square, flattened."""
    x, w = gauss_1d(g)
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


def _box_rules(boxes, g):
    """Tensor Gauss points and weights on every (x0, y0, x1, y1) row of
    ``boxes``, flattened box by box."""
    ref, w = gauss_2d(g)
    size = boxes[:, 2:] - boxes[:, :2]
    pts = boxes[:, None, :2] + ref * size[:, None, :]
    return pts.reshape(-1, 2), (w * size[:, :1] * size[:, 1:]).ravel()


@dataclass
class DomainQuadrature:
    """Flattened quadrature rule over all cells intersecting the domain.

    ``cell_ids`` maps every point to the (jx, jy) grid cell it came from,
    encoded as jx * ny + jy. Each cell is one contiguous run of points. The
    first ``interior_points`` points are the interior cells in id order
    (the head); the boundary cells follow by their leaf count, then by cell
    id (the tail), each keeping the traversal order of its leaves.
    """

    points: np.ndarray      # (N, 2)
    weights: np.ndarray     # (N,)
    cell_ids: np.ndarray    # (N,) int
    interior_points: int = 0

    @property
    def num_points(self):
        return self.points.shape[0]

    def blocks(self, start=0):
        """(slice, points, weights) of consecutive blocks of at most
        ``BLOCK`` points, from point ``start`` on."""
        for sl in block_slices(self.num_points, start):
            yield sl, self.points[sl], self.weights[sl]

    def integrate(self, f):
        """Integral of ``f`` (callable on (N,2) arrays, or point values)."""
        vals = f(self.points) if callable(f) else np.asarray(f, dtype=float)
        if vals.shape != self.weights.shape:
            raise QuadratureError(
                f"integrand returned shape {vals.shape}, expected {self.weights.shape}")
        bad = ~np.isfinite(vals)
        if np.any(bad):
            where = self.points[bad][0]
            raise QuadratureError("non-finite integrand value at quadrature "
                                  f"point {tuple(where.tolist())}")
        return float(np.sum(self.weights * vals))


# corner + center samples of a box, as fractions of its size
_SAMPLE_FRAC = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0],
                         [0.5, 0.5]])


def _subdivide_boundary(domain, boxes, owner, depth):
    """Kept leaf boxes of all boundary cells, subdivided level by level.

    ``boxes`` holds one (x0, y0, x1, y1) row per boundary cell and ``owner``
    its cell id. Each level classifies every live box of every cell with one
    ``domain.phi`` call on its corner + center samples; straddling boxes split
    into 4 children in a fixed order. Returns the kept boxes and their owners,
    level by level; restricted to one cell, that is the breadth-first order
    of subdividing the cell alone.
    """
    kept, kept_owner = [np.empty((0, 4))], [np.empty(0, dtype=np.int64)]
    for level in range(depth + 1):
        if boxes.shape[0] == 0:
            break
        lo_b = boxes[:, :2]
        size = boxes[:, 2:] - lo_b
        # sample-major, so that the per-box tests reduce over the short axis
        sample = lo_b + _SAMPLE_FRAC[:, None, :] * size
        vals = domain.phi(sample.reshape(-1, 2)).reshape(5, -1)
        if level == depth:
            inside = vals[4] > 0.0  # leaf rule: center sample decides
            straddle = np.zeros_like(inside)
        else:
            all_pos = np.all(vals > 0.0, axis=0)
            all_neg = np.all(vals < 0.0, axis=0)
            inside = all_pos
            straddle = ~(all_pos | all_neg)
        kept.append(boxes[inside])
        kept_owner.append(owner[inside])
        # split straddling boxes into 4 children, fixed order
        sb = boxes[straddle]
        mid = 0.5 * (sb[:, :2] + sb[:, 2:])
        boxes = np.concatenate([
            np.column_stack([sb[:, 0], sb[:, 1], mid[:, 0], mid[:, 1]]),
            np.column_stack([mid[:, 0], sb[:, 1], sb[:, 2], mid[:, 1]]),
            np.column_stack([sb[:, 0], mid[:, 1], mid[:, 0], sb[:, 3]]),
            np.column_stack([mid[:, 0], mid[:, 1], sb[:, 2], sb[:, 3]]),
        ])
        owner = np.tile(owner[straddle], 4)
    return np.concatenate(kept), np.concatenate(kept_owner)


class ComposedQuadrature:
    """The interior rule ``head`` followed by the boundary tail of ``base``,
    which it reads in place rather than copies.

    Both parts keep the layout of :func:`build_quadrature`, so the rule
    equals point for point the one that function builds anew with
    ``head``'s Gauss order on the interior cells and ``base``'s depth and
    leaf order on the boundary cells. Point ``i`` of the tail is point
    ``i - shift`` of ``base``.
    """

    def __init__(self, head, base):
        self.head, self.base = head, base
        self.interior_points = head.num_points
        self.shift = head.num_points - base.interior_points
        self.num_points = base.num_points + self.shift

    def blocks(self):
        """(slice, points, weights) of the blocks of ``head``, then of the
        tail of ``base``; no block holds points of both."""
        yield from self.head.blocks()
        for sl, pts, w in self.base.blocks(self.base.interior_points):
            yield slice(sl.start + self.shift, sl.stop + self.shift), pts, w

    def _joined(self, name):
        return np.concatenate([getattr(self.head, name), getattr(
            self.base, name)[self.base.interior_points:]])

    # the whole rule, joined on each access: for a consumer that needs it at
    # once (the pressure projection) and for inspection
    points = property(lambda self: self._joined("points"))
    weights = property(lambda self: self._joined("weights"))
    cell_ids = property(lambda self: self._joined("cell_ids"))


def _cell_boxes(grid, cells):
    """(x0, y0, x1, y1) rows of grid cells by cell id (jx * ny + jy)."""
    jx, jy = np.divmod(cells, grid.num_cells[1])
    bx, by = grid.kvs[0].breakpoints, grid.kvs[1].breakpoints
    return np.column_stack([bx[jx], by[jy], bx[jx + 1], by[jy + 1]])


def build_quadrature(domain, grid, cls, g, depth, g_leaf=None, base=None):
    """Quadrature rule over all non-exterior cells of the grid.

    Parameters
    ----------
    domain : ImplicitDomain
    grid : TensorGrid
    cls : CellClassification
    g : int
        Gauss points per axis on interior cells.
    depth : int
        Dyadic subdivision depth limit for boundary cells.
    g_leaf : int, optional
        Gauss points per axis on subdivision leaves (default: same as g).
        The leaves carry an O(leaf^2) geometric error anyway, so a lower
        order there trades nothing measurable for a large point-count cut.
    base : DomainQuadrature, optional
        A rule built with the same domain, grid, cells and depth. The result
        is then the :class:`ComposedQuadrature` of the interior cells at
        order ``g`` and the boundary tail of ``base`` (its leaves and leaf
        order; ``g_leaf`` is not read).
    """
    if depth < 0:
        raise QuadratureError(f"subdivision depth must be nonnegative, got {depth}")
    labels = cls.labels.ravel()
    interior = np.flatnonzero(labels == CellLabel.INTERIOR)
    # (cell id per box, boxes, Gauss order) of the head and of the tail
    parts = [(interior, _cell_boxes(grid, interior), g)]
    if base is None:
        boundary = np.flatnonzero(labels == CellLabel.BOUNDARY)
        boxes, owner = _subdivide_boundary(
            domain, _cell_boxes(grid, boundary), boundary.astype(np.int64),
            depth)
        # boundary cells by (leaf count, cell id), stable so that a cell
        # keeps its leaf order: the boxes are sorted, not their points
        leaves = np.bincount(owner, minlength=labels.size)
        order = np.lexsort((owner, leaves[owner]))
        parts.append((owner[order], boxes[order],
                      g if g_leaf is None else g_leaf))
    ends = np.cumsum([owner.size * gg * gg for owner, _, gg in parts])
    points, weights = np.empty((ends[-1], 2)), np.empty(ends[-1])
    cell_ids = np.empty(ends[-1], dtype=np.int64)
    for (owner, boxes, gg), p0, p1 in zip(parts, [0, *ends], ends):
        points[p0:p1], weights[p0:p1] = _box_rules(boxes, gg)
        cell_ids[p0:p1] = np.repeat(owner, gg * gg)
    rule = DomainQuadrature(points=points, weights=weights, cell_ids=cell_ids,
                            interior_points=int(ends[0]))
    return rule if base is None else ComposedQuadrature(rule, base)
