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

The error rule of a study level is composed rather than built: its
interior cells at another Gauss order, merged with the boundary runs of the
assembly rule, which it reads in place (:class:`ComposedQuadrature`).
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


def block_slices(n):
    """Slices of consecutive blocks of at most ``BLOCK`` of ``n`` points."""
    return [slice(p0, min(p0 + BLOCK, n)) for p0 in range(0, n, BLOCK)]


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

    def blocks(self):
        """(slice, points, weights) of consecutive blocks of at most
        ``BLOCK`` points."""
        for sl in block_slices(self.num_points):
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
    """The rule of ``base`` with its interior cells at ``g`` Gauss points
    per axis, without a copy of ``base``'s boundary points.

    Its runs are the interior cells (``g * g`` points each) and the boundary
    runs of ``base``, in the (point count, cell id) order of
    :func:`build_quadrature`, so it equals the rule that function builds on
    ``base.leaves`` point for point. The runs form pieces, each a range of
    points from one source: ``starts`` (P + 1,) bounds the pieces in this
    rule, ``src`` (P,) is the first point of each in its source and
    ``from_base`` (P,) tells the source: the points of ``base``, or the
    interior rule (the interior cells ``cells`` in id order, one run of
    ``g * g`` points each, generated on demand from their ``boxes``).
    """

    def __init__(self, base, cells, boxes, g):
        self.base, self.cells, self.boxes, self.g = base, cells, boxes, g
        ids = base.cell_ids
        b_starts = np.flatnonzero(np.diff(ids, prepend=-1))
        b_counts = np.diff(np.append(b_starts, ids.size))
        keep = ~np.isin(ids[b_starts], cells)
        gg = g * g
        run_cell = np.concatenate([cells, ids[b_starts[keep]]])
        count = np.concatenate([np.full(cells.size, gg), b_counts[keep]])
        src = np.concatenate([np.arange(cells.size) * gg, b_starts[keep]])
        from_base = np.repeat([False, True], [cells.size, keep.sum()])
        order = np.lexsort((run_cell, count))
        count, src, from_base = count[order], src[order], from_base[order]
        # a run continues the piece before it if it reads on from the same
        # source where that one stops
        joins = np.zeros(count.size, dtype=bool)
        joins[1:] = ((from_base[1:] == from_base[:-1])
                     & (src[1:] == src[:-1] + count[:-1]))
        head = np.flatnonzero(~joins)
        self.starts = np.append((np.cumsum(count) - count)[head], count.sum())
        self.src, self.from_base = src[head], from_base[head]

    @property
    def num_points(self):
        return int(self.starts[-1])

    def pieces(self, p0, p1):
        """(lo, hi, src, from_base) of the pieces of points [p0, p1), with
        ``lo``/``hi`` relative to ``p0`` and ``src`` the source point of
        ``lo``."""
        i0 = np.searchsorted(self.starts, p0, side="right") - 1
        i1 = np.searchsorted(self.starts, p1, side="left")
        st = self.starts[i0:i1]
        lo = np.maximum(st, p0)
        hi = np.minimum(self.starts[i0 + 1:i1 + 1], p1)
        return zip((lo - p0).tolist(), (hi - p0).tolist(),
                   (self.src[i0:i1] + lo - st).tolist(),
                   self.from_base[i0:i1].tolist())

    def _interior(self, a, b):
        """Points, weights and cell ids of points [a, b) of the interior
        rule, computed as :func:`_box_rules` computes them."""
        cell, local = np.divmod(np.arange(a, b), self.g * self.g)
        ref, w = gauss_2d(self.g)
        box = self.boxes[cell]
        size = box[:, 2:] - box[:, :2]
        return (box[:, :2] + ref[local] * size,
                w[local] * size[:, 0] * size[:, 1], self.cells[cell])

    def take(self, p0, p1):
        """Points, weights and cell ids of points [p0, p1)."""
        n = p1 - p0
        pts, w = np.empty((n, 2)), np.empty(n)
        ids = np.empty(n, dtype=np.int64)
        base = self.base
        for lo, hi, s, from_base in self.pieces(p0, p1):
            e = s + hi - lo
            if from_base:
                pts[lo:hi], w[lo:hi] = base.points[s:e], base.weights[s:e]
                ids[lo:hi] = base.cell_ids[s:e]
            else:
                pts[lo:hi], w[lo:hi], ids[lo:hi] = self._interior(s, e)
        return pts, w, ids

    def blocks(self):
        """(slice, points, weights) of consecutive blocks of at most
        ``BLOCK`` points, see :meth:`DomainQuadrature.blocks`."""
        for sl in block_slices(self.num_points):
            pts, w, _ = self.take(sl.start, sl.stop)
            yield sl, pts, w

    # the whole rule, assembled on each access: for a consumer that needs it
    # at once (the pressure projection) and for inspection
    @property
    def points(self):
        return self.take(0, self.num_points)[0]

    @property
    def weights(self):
        return self.take(0, self.num_points)[1]

    @property
    def cell_ids(self):
        return self.take(0, self.num_points)[2]


def _cell_boxes(grid, cells):
    """(x0, y0, x1, y1) rows of grid cells by cell id (jx * ny + jy)."""
    jx, jy = np.divmod(cells, grid.num_cells[1])
    bx, by = grid.kvs[0].breakpoints, grid.kvs[1].breakpoints
    return np.column_stack([bx[jx], by[jy], bx[jx + 1], by[jy + 1]])


def build_quadrature(domain, grid, cls, g, depth, g_leaf=None, leaves=None,
                     base=None):
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
    base : DomainQuadrature, optional
        A rule built with the same domain, grid, cells and depth. The result
        is then the :class:`ComposedQuadrature` of its boundary runs (their
        leaves and leaf order are ``base``'s; ``g_leaf`` and ``leaves`` are
        not read) and the interior cells at order ``g``.
    """
    if depth < 0:
        raise QuadratureError(f"subdivision depth must be nonnegative, got {depth}")
    g_leaf = g if g_leaf is None else g_leaf
    nx, ny = grid.num_cells
    labels = cls.labels.ravel()
    interior = np.flatnonzero(labels == CellLabel.INTERIOR)
    if base is not None:
        return ComposedQuadrature(base, interior, _cell_boxes(grid, interior), g)
    cell_boxes = _cell_boxes(grid, np.arange(nx * ny))
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
