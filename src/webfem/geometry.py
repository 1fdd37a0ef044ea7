"""Implicit domain description, weight function and inner/outer classification.

Domains are trees of primitives (disk, box, half-plane) combined with the
R0 system of R-functions: conjunction ``u + v - sqrt(u^2 + v^2)``, disjunction
with ``+sqrt``, complement by negation. The root function ``phi`` is positive
inside, zero on the boundary and negative outside; the weight is
``w = max(phi, 0)^r``.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric configuration or query."""


class ResolutionError(RuntimeError):
    """Grid too coarse for the domain (no inner B-splines)."""


def squared_norm(v):
    """Squared Euclidean norm of each row of (N, 2) vectors, or squared
    Frobenius norm of (N, 2, 2) matrices.

    Component by component, ``v0*v0 + v1*v1 (+ v2*v2 + v3*v3)``: the
    summation order of ``np.sum(v * v, axis=...)`` over the trailing axes,
    which it equals bit for bit, without numpy's slow reduction over a
    length-2 axis.
    """
    v = v.reshape(v.shape[0], -1)
    out = v[:, 0] * v[:, 0]
    for k in range(1, v.shape[1]):
        out += v[:, k] * v[:, k]
    return out


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
        return ((self.radius ** 2 - squared_norm(pts - self.center))
                / (2.0 * self.radius))

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
        return self._weight(self.phi(pts))

    def weight_gradient(self, pts):
        """Analytic gradient of the weight via the chain rule.

        Points on or outside the boundary return zero for r >= 1 (the
        outside limit); for r < 1 the gradient is unbounded there and a
        :class:`GeometryError` is raised.
        """
        return self._weight_gradient(pts, self.phi(pts))

    def weight_and_gradient(self, pts):
        """``(weight(pts), weight_gradient(pts))`` from one phi evaluation."""
        p = self.phi(pts)
        return self._weight(p), self._weight_gradient(pts, p)

    def _weight(self, p):
        return np.where(p > 0.0, np.maximum(p, 0.0) ** self.exponent, 0.0)

    def _weight_gradient(self, pts, p):
        r = self.exponent
        outside = p <= 0.0
        if np.any(outside) and r < 1.0:
            bad = np.atleast_2d(np.asarray(pts, dtype=float))[outside][0]
            raise GeometryError(
                "weight gradient singular on/outside the boundary at "
                f"{tuple(bad.tolist())} for exponent r = {r} < 1")
        g = self.phi_gradient(pts)
        if r == 1.0:
            fac = np.where(outside, 0.0, 1.0)
        else:
            fac = np.where(outside, 0.0, r * np.maximum(p, 0.0) ** (r - 1.0))
        return fac[:, None] * g

    def to_config(self):
        return {"exponent": self.exponent, "tree": self.root.to_config()}


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
    return CellClassification(labels=labels)


# ---------------------------------------------------------------------------
# index classification
# ---------------------------------------------------------------------------

@dataclass
class IndexSets:
    """Relevant / inner / outer tensor-basis indices and their couplings.

    ``relevant``, ``inner`` and ``outer`` are (n, 2) index arrays in
    lexicographic order. Per outer j: ``q_cell``, the interior cell closest
    (Hausdorff metric) to supp b_j, and ``alpha``, the smaller ratio over the
    axes of its width to the support's. Per inner i: ``center_cell``, the
    designated interior cell in supp b_i, and ``center``, its center.
    Coupling c joins ``inner[pair_inner[c]]``, whose support contains
    ``Q_j``, to ``outer[pair_outer[c]]``; they run by outer, then inner
    position.
    """

    relevant: np.ndarray
    inner: np.ndarray
    outer: np.ndarray
    q_cell: np.ndarray
    alpha: np.ndarray
    center: np.ndarray
    center_cell: np.ndarray
    pair_inner: np.ndarray
    pair_outer: np.ndarray


def _box_sums(mask, lo1, hi1, lo2, hi2):
    """Number of True entries of ``mask`` in [lo1, hi1) x [lo2, hi2) for every
    pair of a row range and a column range, from one summed-area table."""
    s = np.zeros((mask.shape[0] + 1, mask.shape[1] + 1), dtype=np.int64)
    s[1:, 1:] = mask.cumsum(0).cumsum(1)
    return (s[np.ix_(hi1, hi2)] - s[np.ix_(lo1, hi2)]
            - s[np.ix_(hi1, lo2)] + s[np.ix_(lo1, lo2)])


def _windows(mask, lo1, hi1, lo2, hi2):
    """``mask`` gathered over the boxes [lo1[r], hi1[r]) x [lo2[r], hi2[r]).

    Returns ``win`` of shape (n, w1, w2), False outside each box, and the
    row and column indices ``u`` (n, w1), ``v`` (n, w2) it was read at.
    """
    u = lo1[:, None] + np.arange((hi1 - lo1).max(initial=0))
    v = lo2[:, None] + np.arange((hi2 - lo2).max(initial=0))
    inside = (u < hi1[:, None])[:, :, None] & (v < hi2[:, None])[:, None, :]
    u = np.minimum(u, mask.shape[0] - 1)
    v = np.minimum(v, mask.shape[1] - 1)
    return mask[u[:, :, None], v[:, None, :]] & inside, u, v


def _gap(p, lo, hi):
    """Distance from the coordinate ``p`` to the interval [lo, hi]."""
    return np.maximum(np.maximum(lo - p, p - hi), 0.0)


def classify_indices(grid, cls):
    """Split the relevant B-spline indices into inner and outer sets.

    Relevant indices have a non-Exterior cell in their support; inner ones
    have an Interior cell. Per axis the support of b_i covers the cells
    [a_i, b_i), so both tests are box sums over summed-area tables of the
    cell masks. Each inner index i gets the center ``x_i`` of its
    lexicographically smallest interior support cell. Each outer index j is
    assigned the interior cell ``Q_j`` minimizing the Hausdorff distance to
    supp b_j (exact for boxes by the corner formula; ties within a relative
    1e-12 go to the lexicographically smallest cell). Since a_i and b_i are
    nondecreasing in i, the indices whose support contains ``Q_j`` form one
    range per axis, and the couplings of j are the inner ones of that box.
    """
    interior = cls.labels == CellLabel.INTERIOR
    if not interior.any():
        raise ResolutionError(
            "no interior grid cells: the grid is too coarse for this domain; "
            "refine the grid or enlarge the domain")
    kx, ky = grid.kvs
    bpx, bpy = kx.breakpoints, ky.breakpoints
    ax, bx = (np.searchsorted(bpx, kx.knots[:kx.num_basis]),
              np.searchsorted(bpx, kx.knots[kx.degree + 1:]))
    ay, by = (np.searchsorted(bpy, ky.knots[:ky.num_basis]),
              np.searchsorted(bpy, ky.knots[ky.degree + 1:]))
    rel = _box_sums(cls.labels != CellLabel.EXTERIOR, ax, bx, ay, by) > 0
    inn = _box_sums(interior, ax, bx, ay, by) > 0
    r1, r2 = np.nonzero(rel)
    i1, i2 = np.nonzero(inn)
    o1, o2 = np.nonzero(rel & ~inn)

    # designated cell: first True of each inner support window, row-major
    win, u, v = _windows(interior, ax[i1], bx[i1], ay[i2], by[i2])
    fx, fy = np.divmod(win.reshape(i1.size, -1).argmax(axis=1), v.shape[1])
    r = np.arange(i1.size)
    cx, cy = u[r, fx], v[r, fy]
    centers = np.column_stack([0.5 * (bpx[cx] + bpx[cx + 1]),
                               0.5 * (bpy[cy] + bpy[cy + 1])])

    # Hausdorff distance of every outer support (rows) to every interior
    # cell (columns): the largest distance of a corner of one box to the other
    jx, jy = np.nonzero(interior)
    lo_x, hi_x = kx.knots[o1], kx.knots[o1 + kx.degree + 1]
    lo_y, hi_y = ky.knots[o2], ky.knots[o2 + ky.degree + 1]
    sup = ((lo_x[:, None], hi_x[:, None]), (lo_y[:, None], hi_y[:, None]))
    cell = ((bpx[jx], bpx[jx + 1]), (bpy[jy], bpy[jy + 1]))
    d = 0.0
    for a, b in ((sup, cell), (cell, sup)):
        gxs = [_gap(p, *b[0]) for p in a[0]]
        gys = [_gap(p, *b[1]) for p in a[1]]
        for gx in gxs:
            for gy in gys:
                d = np.maximum(d, np.hypot(gx, gy))
    q = (d <= d.min(axis=1, keepdims=True) * (1.0 + 1e-12)).argmax(axis=1)
    qx, qy = jx[q], jy[q]
    alpha = np.minimum((bpx[qx + 1] - bpx[qx]) / (hi_x - lo_x),
                       (bpy[qy + 1] - bpy[qy]) / (hi_y - lo_y))
    # inner indices i with a_i <= q < b_i on both axes
    win, u, v = _windows(inn, np.searchsorted(bx, qx, "right"),
                         np.searchsorted(ax, qx, "right"),
                         np.searchsorted(by, qy, "right"),
                         np.searchsorted(ay, qy, "right"))
    cr, du, dv = np.nonzero(win)
    # position in ``inner`` of each inner index: inner is row-major
    pos = (np.cumsum(inn.ravel()) - 1).reshape(inn.shape)
    return IndexSets(
        relevant=np.column_stack([r1, r2]), inner=np.column_stack([i1, i2]),
        outer=np.column_stack([o1, o2]), q_cell=np.column_stack([qx, qy]),
        alpha=alpha, center=centers, center_cell=np.column_stack([cx, cy]),
        pair_inner=pos[u[cr, du], v[cr, dv]], pair_outer=cr)
