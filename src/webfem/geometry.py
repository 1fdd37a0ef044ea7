"""Implicit domain description, weight function and inner/outer classification.

Domains are trees of primitives (disk, box, half-plane) combined with the
R0 system of R-functions: conjunction ``u + v - sqrt(u^2 + v^2)``, disjunction
with ``+sqrt``, complement by negation. The root function ``phi`` is positive
inside, zero on the boundary and negative outside; the weight is
``w = max(phi, 0)^r``.
"""

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric configuration or query."""


class ResolutionError(RuntimeError):
    """Grid too coarse for the domain (no inner B-splines)."""


# ---------------------------------------------------------------------------
# primitives and R-function combinators
# ---------------------------------------------------------------------------

class _Node:
    def value(self, pts):
        raise NotImplementedError

    def gradient(self, pts):
        raise NotImplementedError


class Disk(_Node):
    """phi = (R^2 - |x - c|^2) / (2R); equals the boundary distance to first order."""

    def __init__(self, center, radius):
        if radius <= 0:
            raise GeometryError(f"disk radius must be positive, got {radius}")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def value(self, pts):
        d = pts - self.center
        return (self.radius ** 2 - np.sum(d * d, axis=1)) / (2.0 * self.radius)

    def gradient(self, pts):
        return -(pts - self.center) / self.radius

    def to_config(self):
        return {"op": "disk", "center": list(self.center), "radius": self.radius}


class HalfPlane(_Node):
    """phi = (offset - n.x) / |n|; inside where n.x <= offset."""

    def __init__(self, normal, offset):
        normal = np.asarray(normal, dtype=float)
        nn = np.linalg.norm(normal)
        if nn == 0:
            raise GeometryError("half-plane normal must be nonzero")
        self.normal = normal / nn
        self.offset = float(offset) / nn

    def value(self, pts):
        return self.offset - pts @ self.normal

    def gradient(self, pts):
        return np.broadcast_to(-self.normal, pts.shape).copy()

    def to_config(self):
        return {"op": "halfplane", "normal": list(self.normal), "offset": self.offset}


class _Combine(_Node):
    sign = 0.0

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def value(self, pts):
        u = self.a.value(pts)
        v = self.b.value(pts)
        return u + v + self.sign * np.sqrt(u * u + v * v)

    def gradient(self, pts):
        u = self.a.value(pts)
        v = self.b.value(pts)
        gu = self.a.gradient(pts)
        gv = self.b.gradient(pts)
        s = np.sqrt(u * u + v * v)
        # joint zeros of the children make s vanish; by construction the test
        # domains only place them on the boundary, where gradients are not used
        safe = np.where(s > 0, s, 1.0)
        cu = 1.0 + self.sign * u / safe
        cv = 1.0 + self.sign * v / safe
        return cu[:, None] * gu + cv[:, None] * gv

    def to_config(self):
        return {"op": self.opname, "args": [self.a.to_config(), self.b.to_config()]}


class Conjunction(_Combine):
    sign = -1.0
    opname = "conj"


class Disjunction(_Combine):
    sign = +1.0
    opname = "disj"


class Complement(_Node):
    def __init__(self, a):
        self.a = a

    def value(self, pts):
        return -self.a.value(pts)

    def gradient(self, pts):
        return -self.a.gradient(pts)

    def to_config(self):
        return {"op": "not", "arg": self.a.to_config()}


def box(lo, hi):
    """Axis-aligned box as the R-conjunction of four half-planes."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise GeometryError(f"empty box [{lo}, {hi}]")
    planes = [HalfPlane([-1.0, 0.0], -lo[0]), HalfPlane([1.0, 0.0], hi[0]),
              HalfPlane([0.0, -1.0], -lo[1]), HalfPlane([0.0, 1.0], hi[1])]
    return Conjunction(Conjunction(planes[0], planes[1]),
                       Conjunction(planes[2], planes[3]))


def annulus(center, r_inner, r_outer):
    """Ring r_inner < |x - c| < r_outer (multiply connected)."""
    if not 0 < r_inner < r_outer:
        raise GeometryError("need 0 < r_inner < r_outer")
    return Conjunction(Disk(center, r_outer), Complement(Disk(center, r_inner)))


class ImplicitDomain:
    """Composable implicit domain with weight ``w = max(phi, 0)^r``."""

    def __init__(self, root, exponent=1.0):
        if exponent < 0:
            raise GeometryError(f"weight exponent must be nonnegative, got {exponent}")
        self.root = root
        self.exponent = float(exponent)

    def phi(self, pts):
        return self.root.value(np.atleast_2d(np.asarray(pts, dtype=float)))

    def phi_gradient(self, pts):
        return self.root.gradient(np.atleast_2d(np.asarray(pts, dtype=float)))

    def inside(self, pts):
        return self.phi(pts) > 0.0

    def weight(self, pts):
        """phi^r where phi > 0, and 0 on the boundary and outside."""
        p = self.phi(pts)
        r = self.exponent
        return np.where(p > 0.0, np.maximum(p, 0.0) ** r, 0.0)

    def weight_gradient(self, pts):
        """Analytic gradient of the weight via the chain rule.

        Points on or outside the boundary return zero for r >= 1 (the
        outside limit); for r < 1 the gradient is unbounded there and a
        :class:`GeometryError` is raised.
        """
        p = self.phi(pts)
        r = self.exponent
        outside = p <= 0.0
        if np.any(outside) and r < 1.0:
            bad = np.atleast_2d(np.asarray(pts, dtype=float))[outside][0]
            raise GeometryError(
                f"weight gradient singular on/outside the boundary at {tuple(bad)} "
                f"for exponent r = {r} < 1")
        g = self.phi_gradient(pts)
        if r == 1.0:
            fac = np.where(outside, 0.0, 1.0)
        else:
            fac = np.where(outside, 0.0, r * np.maximum(p, 0.0) ** (r - 1.0))
        return fac[:, None] * g

    def to_config(self):
        return {"exponent": self.exponent, "tree": self.root.to_config()}


def weight(domain, x):
    """Scalar weight value at a single point."""
    return float(domain.weight(np.asarray(x, dtype=float)[None, :])[0])


def weight_gradient(domain, x):
    """Scalar weight gradient at a single point."""
    return domain.weight_gradient(np.asarray(x, dtype=float)[None, :])[0]


def domain_from_config(cfg):
    """Build an :class:`ImplicitDomain` from its declarative description."""
    return ImplicitDomain(_node_from_config(cfg["tree"]),
                          exponent=cfg.get("exponent", 1.0))


_PRIMITIVES = {"disk": (Disk, (("center", (2,)), ("radius", ()))),
               "box": (box, (("lo", (2,)), ("hi", (2,)))),
               "halfplane": (HalfPlane, (("normal", (2,)), ("offset", ())))}


def _config_value(node, op, key, shape):
    """``node[key]`` as a float array of ``shape``, or a GeometryError."""
    if key not in node:
        raise GeometryError(f"{op} node is missing key {key!r}")
    try:
        value = np.asarray(node[key], dtype=float)
        if value.shape == shape:
            return value
    except (TypeError, ValueError):
        pass
    raise GeometryError(f"{op} node has invalid {key!r}: {node[key]!r}")


def _node_from_config(node):
    if not isinstance(node, dict):
        raise GeometryError(f"domain tree node must be an object, got {node!r}")
    op = node.get("op")
    if op in _PRIMITIVES:
        make, args = _PRIMITIVES[op]
        return make(*(_config_value(node, op, k, shape) for k, shape in args))
    if op == "conj" or op == "disj":
        args = node.get("args", [])
        if len(args) < 2:
            raise GeometryError(f"{op} needs at least two operands")
        cls = Conjunction if op == "conj" else Disjunction
        out = _node_from_config(args[0])
        for a in args[1:]:
            out = cls(out, _node_from_config(a))
        return out
    if op == "not":
        return Complement(_node_from_config(node.get("arg")))
    raise GeometryError(f"unknown primitive op {op!r}")


# ---------------------------------------------------------------------------
# cell classification
# ---------------------------------------------------------------------------

class CellLabel(IntEnum):
    INTERIOR = 0
    BOUNDARY = 1
    EXTERIOR = 2


@dataclass
class CellClassification:
    """Per-cell label over a TensorGrid; ``labels[jx, jy]`` is a CellLabel."""

    labels: np.ndarray
    samples_per_axis: int

    def label(self, cell):
        return CellLabel(self.labels[cell])

    def cells_with(self, label):
        jx, jy = np.nonzero(self.labels == label)
        return list(zip(jx.tolist(), jy.tolist()))

    def counts(self):
        return {lab.name.lower(): int(np.sum(self.labels == lab))
                for lab in CellLabel}


def classify_cells(domain, grid, samples_per_axis=5):
    """Label every grid cell Interior / Boundary / Exterior.

    A cell is Interior when phi is strictly positive on a tensor lattice of
    ``samples_per_axis**2`` points including the four corners, Exterior when
    strictly negative everywhere, Boundary otherwise.
    """
    if samples_per_axis < 2:
        raise GeometryError("samples_per_axis must be at least 2")
    nx, ny = grid.num_cells
    bx = grid.kvs[0].breakpoints
    by = grid.kvs[1].breakpoints
    frac = np.linspace(0.0, 1.0, samples_per_axis)
    labels = np.empty((nx, ny), dtype=np.int8)
    # evaluate row by row to keep the point blocks modest
    for jx in range(nx):
        xs = bx[jx] + (bx[jx + 1] - bx[jx]) * frac
        ys = by[:-1, None] + np.diff(by)[:, None] * frac[None, :]  # (ny, s)
        X = np.broadcast_to(xs[None, :, None], (ny, samples_per_axis, samples_per_axis))
        Y = np.broadcast_to(ys[:, None, :], (ny, samples_per_axis, samples_per_axis))
        pts = np.column_stack([X.ravel(), Y.ravel()])
        vals = domain.phi(pts).reshape(ny, -1)
        pos = np.all(vals > 0.0, axis=1)
        neg = np.all(vals < 0.0, axis=1)
        labels[jx] = np.where(pos, CellLabel.INTERIOR,
                              np.where(neg, CellLabel.EXTERIOR, CellLabel.BOUNDARY))
    return CellClassification(labels=labels, samples_per_axis=samples_per_axis)


# ---------------------------------------------------------------------------
# index classification
# ---------------------------------------------------------------------------

@dataclass
class IndexSets:
    """Relevant / inner / outer tensor-basis indices and their couplings.

    ``q_cell[j]`` is the interior cell closest (Hausdorff metric) to the
    support of outer B-spline j; ``i_of_j[j]`` the inner indices whose
    support contains that cell; ``j_of_i`` its inverse; ``center[i]`` the
    center of the designated interior cell in supp b_i.
    """

    relevant: list
    inner: list
    outer: list
    q_cell: dict
    i_of_j: dict
    j_of_i: dict
    center: dict
    center_cell: dict = field(default_factory=dict)
    alpha: dict = field(default_factory=dict)

    @cached_property
    def kmap(self):
        """Relevant index -> its position in ``relevant``."""
        return {k: c for c, k in enumerate(self.relevant)}

    @cached_property
    def imap(self):
        """Inner index -> its position in ``inner``."""
        return {i: r for r, i in enumerate(self.inner)}


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


def classify_indices(grid, cls):
    """Split the relevant B-spline indices into inner and outer sets.

    Relevant indices have a non-Exterior cell in their support; inner ones
    have an Interior cell. Each outer index j is assigned the interior cell
    ``Q_j`` minimizing the Hausdorff distance to supp b_j (ties broken by
    lexicographically smallest cell index), and each inner index i gets the
    center ``x_i`` of its lexicographically smallest interior support cell.
    """
    labels = cls.labels
    nbx, nby = grid.num_basis
    interior_cells = cls.cells_with(CellLabel.INTERIOR)
    if not interior_cells:
        raise ResolutionError(
            "no interior grid cells: the grid is too coarse for this domain; "
            "refine the grid or enlarge the domain")
    int_arr = np.array(interior_cells)
    bx = grid.kvs[0].breakpoints
    by = grid.kvs[1].breakpoints
    int_lo = np.column_stack([bx[int_arr[:, 0]], by[int_arr[:, 1]]])
    int_hi = np.column_stack([bx[int_arr[:, 0] + 1], by[int_arr[:, 1] + 1]])

    # per-axis cell ranges of each basis support
    sup_x = [grid.kvs[0].support_cells(i) for i in range(nbx)]
    sup_y = [grid.kvs[1].support_cells(i) for i in range(nby)]

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
                center[k] = grid.cell_center(cell)
            else:
                outer.append(k)

    if not inner:
        raise ResolutionError(
            "no inner B-splines: every relevant spline is cut by the boundary; "
            "refine the grid")

    q_cell, i_of_j, alpha = {}, {}, {}
    inner_set = set(inner)
    for j in outer:
        alo, ahi = grid.support_box(j)
        d = _box_corner_hausdorff(alo, ahi, int_lo, int_hi)
        near = np.nonzero(d <= d.min() * (1.0 + 1e-12))[0]
        # interior_cells is lexicographically sorted, so the first hit wins ties
        q = interior_cells[near[0]]
        q_cell[j] = q
        i_of_j[j] = sorted(i for i in grid.covering_indices(q) if i in inner_set)
        (x0, x1), (y0, y1) = grid.cell_bounds(q)
        alpha[j] = min((x1 - x0) / (ahi[0] - alo[0]), (y1 - y0) / (ahi[1] - alo[1]))

    j_of_i = {i: [] for i in inner}
    for j in outer:
        for i in i_of_j[j]:
            j_of_i[i].append(j)
    for i in j_of_i:
        j_of_i[i].sort()

    return IndexSets(relevant=relevant, inner=inner, outer=outer, q_cell=q_cell,
                     i_of_j=i_of_j, j_of_i=j_of_i, center=center,
                     center_cell=center_cell, alpha=alpha)
