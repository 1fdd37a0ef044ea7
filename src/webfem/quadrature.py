"""Numerical integration over implicitly bounded domains.

Interior cells carry tensor Gauss-Legendre rules. Boundary cells are
subdivided dyadically: sub-cells entirely inside or outside (judged by a
corner + center sample) are resolved immediately, straddling ones recurse
until the depth limit, where leaves are kept or dropped by their center
sample. Exterior cells contribute nothing. The subdivision runs level by
level over the boxes of all boundary cells at once. The rule lists each
cell as one run of points, the runs sorted by (point count, cell id), so
that cells of equal point count sit next to each other (the batch order of
:class:`~webfem.assembly.CellSegments`); within a cell, leaves come by
level and then by child order.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import CellLabel


class QuadratureError(RuntimeError):
    """Non-finite integrand or invalid rule parameters."""


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
    encoded as jx * ny + jy. Each cell is one contiguous run of points, and
    the runs are sorted by their length, then by cell id; within a cell,
    subdivision leaves keep a fixed traversal order. ``leaves`` holds the
    kept leaf boxes (x0, y0, x1, y1) of the boundary cells and their cell
    ids, for a rule of another Gauss order on the same leaves.
    """

    points: np.ndarray      # (N, 2)
    weights: np.ndarray     # (N,)
    cell_ids: np.ndarray    # (N,) int
    leaves: tuple           # ((L, 4) boxes, (L,) int cell ids)

    @property
    def num_points(self):
        return self.points.shape[0]

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


def build_quadrature(domain, grid, cls, g, depth, g_leaf=None, leaves=None):
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
    leaves : (boxes, owners), optional
        The ``leaves`` of a rule built with the same domain, grid, cells and
        depth; its boundary cells are then not subdivided again.
    """
    if depth < 0:
        raise QuadratureError(f"subdivision depth must be nonnegative, got {depth}")
    g_leaf = g if g_leaf is None else g_leaf
    nx, ny = grid.num_cells
    bx = grid.kvs[0].breakpoints
    by = grid.kvs[1].breakpoints
    jx, jy = np.divmod(np.arange(nx * ny), ny)  # cell id = jx * ny + jy
    cell_boxes = np.column_stack([bx[jx], by[jy], bx[jx + 1], by[jy + 1]])
    labels = cls.labels.ravel()
    interior = np.flatnonzero(labels == CellLabel.INTERIOR)
    if leaves is None:
        boundary = np.flatnonzero(labels == CellLabel.BOUNDARY)
        leaves = _subdivide_boundary(domain, cell_boxes[boundary],
                                     boundary.astype(np.int64), depth)
    leaf_boxes, leaf_owner = leaves
    # boxes in (cell point count, cell id) order (stable: a cell keeps its
    # leaf order) and the offset of each box's points in the rule; each
    # group of boxes is then written straight to its slots, with no
    # point-level sort or copy
    owner = np.concatenate([interior, leaf_owner])
    sizes = np.repeat([g * g, g_leaf * g_leaf], [interior.size, leaf_owner.size])
    cell_count = np.bincount(owner, weights=sizes, minlength=nx * ny)
    order = np.lexsort((owner, cell_count[owner]))
    start = np.empty_like(sizes)
    start[order] = np.cumsum(sizes[order]) - sizes[order]
    n = int(sizes.sum())
    points, weights = np.empty((n, 2)), np.empty(n)
    cell_ids = np.empty(n, dtype=np.int64)
    for part, boxes, gg in ((slice(0, interior.size), cell_boxes[interior], g),
                            (slice(interior.size, None), leaf_boxes, g_leaf)):
        slots = (start[part, None] + np.arange(gg * gg)).ravel()
        points[slots], weights[slots] = _box_rules(boxes, gg)
        cell_ids[slots] = np.repeat(owner[part], gg * gg)
    return DomainQuadrature(points=points, weights=weights, cell_ids=cell_ids,
                            leaves=leaves)
