"""Sparse Galerkin operators and load vectors over the web basis.

Assembly is table-driven: the weighted tensor-product basis (w * b_k) and
its first partials are tabulated once per quadrature rule, together with a
sparsity plan of the per-cell blocks. Every operator (including each
Newton reassembly) then reduces to batched per-cell matrix products
scattered into the fixed pattern, and every load or residual vector to
batched per-cell sums scattered to the cell's basis row. Systems are
assembled in the full relevant basis and reduced to the web basis with the
coupling matrix ``Ebar = diag(1/w(x_i)) E``:  A_web = Ebar A Ebar^T.

Every web-basis matrix (stiffness, mass, seminorm Gram, each Newton
Jacobian and each velocity block of the mixed system) reduces through the
one :class:`WebReductionPlan` of its table: the web pattern and a linear
map from the full-basis data to the web data, so that a reduction is one
sparse mat-vec into a pattern shared by every matrix of the table. Load
and residual vectors reduce as ``Ebar @ F`` (``BasisTables.web_load``).
The table also holds a :class:`StackedPattern` of the 2x2 velocity
block; a Newton step then computes values only, into fixed patterns.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .geometry import squared_norm
from .quadrature import block_slices
from .webbasis import BasisValues, block_points


class AssemblyError(RuntimeError):
    """Inconsistent assembly inputs."""


class CoercivityError(AssemblyError):
    """Coefficient failed the positivity requirement at a quadrature point."""


# ---------------------------------------------------------------------------
# per-cell segments and sparsity plans
# ---------------------------------------------------------------------------

class CellSegments:
    """Quadrature points grouped into per-cell runs, batched by run length.

    A quadrature rule lists its points cell by cell, each grid cell one
    contiguous run (:func:`~webfem.quadrature.build_quadrature`). Each batch
    is a tuple ``(first_run, end_run, first_point, end_point, run_length)``
    of consecutive runs of one length, so its points reshape to (runs,
    run_length, ...) without a copy. A batch holds at most
    ``block_points(width)`` points, or one run if that is longer: ``width``
    floats a point is the widest operand the batch forms (a table row).
    """

    def __init__(self, cell_ids, width):
        cell_ids = np.asarray(cell_ids)
        n = cell_ids.size
        self.starts = np.flatnonzero(np.diff(cell_ids, prepend=cell_ids[:1] - 1))
        self.counts = np.diff(np.append(self.starts, n))
        offsets = np.append(self.starts, n)
        first = np.flatnonzero(np.diff(self.counts, prepend=-1))
        ends = np.append(first[1:], self.counts.size)
        self.batches = []
        for lo, hi in zip(first.tolist(), ends.tolist()):
            k = self.counts[lo]
            step = max(1, block_points(width) // k)
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                self.batches.append((a, b, offsets[a], offsets[b], k))

    @property
    def num_cells(self):
        return self.starts.size


class SparsityPlan:
    """CSR pattern of per-cell blocks and the scatter of local entries into it.

    ``rows`` (n_cells, nr) and ``cols`` (n_cells, nc) hold the global row
    and column of each cell's local matrix, one line per run of
    ``segments``. Every matrix assembled with the plan shares its read-only
    ``indices`` and ``indptr``; ``scatter`` maps each local entry
    (cell, a, b) to its slot in ``data``.
    """

    def __init__(self, segments, rows, cols, shape):
        self.segments = segments
        self.shape = shape
        keys = (rows[:, :, None] * shape[1] + cols[:, None, :]).ravel()
        slots, self.scatter = np.unique(keys, return_inverse=True)
        self.nnz = slots.size
        self.indices, self.indptr = _csr_pattern(slots, shape)


def _csr_pattern(slots, shape):
    """Read-only CSR ``indices`` and ``indptr`` of sorted row-major slots."""
    dtype = np.int32 if max(slots.size, *shape) < 2 ** 31 else np.int64
    indices = (slots % shape[1]).astype(dtype)
    per_row = np.bincount(slots // shape[1], minlength=shape[0])
    indptr = np.concatenate([[0], np.cumsum(per_row)]).astype(dtype)
    indices.setflags(write=False)
    indptr.setflags(write=False)
    return indices, indptr


class WebReductionPlan:
    """Fixed-pattern web reduction  Ebar P Ebar^T  of matrices on a plan.

    The web entry (r, s) is the sum over the full slots (i, j) of
    Ebar[r, i] Ebar[s, j] P[i, j], linear in ``P.data``. ``R`` (web nnz x
    full nnz) stores these products once, so that reducing a matrix
    assembled on ``plan`` is one sparse mat-vec ``R @ P.data`` into the
    shared CSR pattern ``indices``/``indptr`` of shape ``shape``.
    """

    def __init__(self, E, plan):
        Et = E.T.tocsr()
        deg = np.diff(Et.indptr)
        i = np.repeat(np.arange(plan.shape[0], dtype=plan.indptr.dtype),
                      np.diff(plan.indptr))
        j = plan.indices
        # every full slot k = (i, j) pairs each web row r of Ebar[:, i] with
        # each web column s of Ebar[:, j]: deg(i) * deg(j) contributions,
        # numbered by t = 0 .. deg(i) deg(j) - 1 within the slot
        counts = deg[i] * deg[j]
        size = int(counts.sum())
        dtype = np.int32 if max(size, Et.nnz) < 2 ** 31 else np.int64
        k = np.repeat(np.arange(counts.size, dtype=dtype), counts)
        t = np.arange(size, dtype=dtype)
        t -= np.repeat((np.cumsum(counts) - counts).astype(dtype), counts)
        ri, sj = np.divmod(t, deg[j][k])
        del t
        ri += Et.indptr[i[k]]
        sj += Et.indptr[j[k]]
        n = E.shape[0]
        self.shape = (n, n)
        keys = Et.indices[ri].astype(np.int64 if n * n >= 2 ** 31 else dtype,
                                     copy=False)
        keys *= n
        keys += Et.indices[sj]
        data = Et.data[ri] * Et.data[sj]
        del ri, sj
        slots, row = np.unique(keys, return_inverse=True)
        del keys
        self.nnz = slots.size
        self.indices, self.indptr = _csr_pattern(slots, self.shape)
        del slots
        self.R = sp.csr_matrix((data, (row.astype(dtype), k)),
                               shape=(self.nnz, plan.nnz))


class StackedPattern:
    """Fixed pattern of a block matrix stacked from fixed-pattern parts.

    ``layout(*parts)`` returns the nested block list that ``sp.bmat`` takes
    (transposes allowed, each part used any number of times). The entries
    of every part are numbered and stacked once; the numbers read back give
    ``gather``, the position of each slot's value in the concatenated part
    data. Restacking new values of the same patterns is then one gather.
    """

    def __init__(self, parts, layout, format):
        ends = np.cumsum([p.nnz for p in parts])
        numbered = [sp.csr_matrix((np.arange(end - p.nnz, end) + 1.0,
                                   p.indices, p.indptr), shape=p.shape)
                    for p, end in zip(parts, ends)]
        M = sp.bmat(layout(*numbered), format=format)
        self.gather = M.data.astype(np.int64) - 1
        self.indices, self.indptr, self.shape = M.indices, M.indptr, M.shape
        self.indices.setflags(write=False)
        self.indptr.setflags(write=False)
        self.format = format

    def values(self, *data):
        """Slot values from the data arrays of the parts, in part order."""
        return np.concatenate(data)[self.gather]

    def stack(self, *data):
        """New matrix in the stacked pattern (its index arrays are shared)."""
        cls = sp.csr_matrix if self.format == "csr" else sp.csc_matrix
        return cls((self.values(*data), self.indices, self.indptr),
                   shape=self.shape)


def bilinear_form(plan, qw, terms):
    """Sparse matrix  sum_q qw_q * sum_t c_t(q) Fa_t(q,a) Fb_t(q,b).

    ``terms`` is an iterable of (c, Fa, Fb) with c of shape (N,) or a
    scalar, and Fa, Fb of shapes (N, nr), (N, nc) matching the row and
    column blocks of ``plan``. The local matrices sum_t (c_t qw Fa_t)^T Fb_t
    of consecutive cells with one point count come from one batched matmul;
    the scatter into the shared pattern is a deterministic bincount.
    """
    return sp.csr_matrix((_form_data(plan, qw, terms), plan.indices,
                          plan.indptr), shape=plan.shape)


def _form_data(plan, qw, terms):
    """``data`` of :func:`bilinear_form`, without building the matrix."""
    local = _local_matrices(plan.segments, qw, terms)
    return np.bincount(plan.scatter, weights=local.ravel(), minlength=plan.nnz)


def _local_matrices(seg, qw, terms):
    """Per-cell matrices (n_cells, nr, nc) of :func:`bilinear_form`.

    The weighted operand c qw Fa is formed batch by batch, so that no
    temporary is larger than one batch of points.
    """
    local = None
    for c, fa, fb in terms:
        scalar = np.ndim(c) == 0
        if local is None:
            local = np.zeros((seg.num_cells, fa.shape[1], fb.shape[1]))
        for lo, hi, p0, p1, k in seg.batches:
            wc = qw[p0:p1] * (c if scalar else c[p0:p1])
            a = (wc[:, None] * fa[p0:p1]).reshape(hi - lo, k, -1)
            b = fb[p0:p1].reshape(hi - lo, k, -1)
            local[lo:hi] += np.matmul(a.transpose(0, 2, 1), b)
    return local


def linear_form(segments, cols, qw, terms, n_cols):
    """Vector  sum_q qw_q * sum_t c_t(q) F_t(q, a)  scattered to columns.

    ``terms`` is an iterable of (c, F) with c of shape (N,) or a scalar and
    F of shape (N, na). All points of a run of ``segments`` share the
    columns ``cols`` (n_cells, na) of that run, so each batch reduces over
    its points as one batched product (runs, 1, k) @ (runs, k, na), and
    one bincount scatters the per-cell sums.
    """
    local = np.zeros(cols.shape)
    for c, fa in terms:
        scalar = np.ndim(c) == 0
        for lo, hi, p0, p1, k in segments.batches:
            wc = qw[p0:p1] * (c if scalar else c[p0:p1])
            local[lo:hi] += np.matmul(wc.reshape(hi - lo, 1, k),
                                      fa[p0:p1].reshape(hi - lo, k, -1))[:, 0]
    return np.bincount(cols.ravel(), weights=local.ravel(), minlength=n_cols)


# ---------------------------------------------------------------------------
# basis tables
# ---------------------------------------------------------------------------

class BasisTables(BasisValues):
    """Values of the weighted basis w*b_k at the quadrature points.

    The :class:`~webfem.webbasis.BasisValues` of a rule whose points activate
    relevant B-splines only (every column of ``rows`` >= 0), plus:

    Attributes
    ----------
    qw : (N,) quadrature weights; points : (N, 2); cell_ids : (N,).
    segments : :class:`CellSegments` of the points.
    cell_idx : (n_cells, na) int
        The basis row shared by all points of each cell.
    plan : :class:`SparsityPlan`
        Full-basis pattern, reused by every operator on these tables.
    web_plan : :class:`WebReductionPlan`
        Web-basis pattern of ``plan``, built on first use and shared by
        every matrix :meth:`web_form` returns.
    velocity_pattern : :class:`StackedPattern`
        Pattern of the 2x2 velocity block of the mixed system, built on
        first use by :class:`StokesIterate`.
    """

    def __init__(self, basis, quad):
        super().__init__(basis, quad.points)
        self.qw = quad.weights
        self.points = quad.points
        self.cell_ids = quad.cell_ids
        self.n_cols = basis.n_relevant
        self.basis = basis
        # all points of a cell activate the same basis row, which makes the
        # pattern a union of dense per-cell blocks fixed for the table's life
        self.segments = CellSegments(quad.cell_ids, self.wb.shape[1])
        starts = self.segments.starts
        if np.any(self.row_of != np.repeat(self.row_of[starts],
                                           self.segments.counts)):
            raise AssemblyError(
                "points of one quadrature cell activate different basis "
                "rows; cell ids do not match the points")
        self.cell_idx = self.rows[self.row_of[starts]]
        if np.any(self.cell_idx < 0):
            raise AssemblyError(
                "quadrature point activates a basis function outside the "
                "relevant set; the domain is not covered by the grid core")
        self.plan = SparsityPlan(self.segments, self.cell_idx, self.cell_idx,
                                 (self.n_cols, self.n_cols))

    @property
    def num_points(self):
        return self.points.shape[0]

    def sample(self, f, *shape):
        """Values (N, *shape) of ``f`` at the points: a callable on (n, 2)
        point arrays, evaluated one block of points at a time, or a
        constant, broadcast without a copy."""
        if not callable(f):
            return np.broadcast_to(np.asarray(f, dtype=float),
                                   (self.num_points, *shape))
        out = np.empty((self.num_points, *shape))
        for sl in block_slices(self.num_points):
            out[sl] = f(self.points[sl])
        return out

    @cached_property
    def web_plan(self):
        """:class:`WebReductionPlan` of ``plan``, built on first use."""
        return WebReductionPlan(self.basis.coupling_matrix(), self.plan)

    def web_form(self, terms):
        """Web-basis matrix  Ebar P Ebar^T  of the full-basis matrix
        P = ``bilinear_form(plan, qw, terms)``, in the CSR pattern of
        ``web_plan`` (its ``indices`` and ``indptr`` are shared)."""
        web = self.web_plan
        data = web.R @ _form_data(self.plan, self.qw, terms)
        return sp.csr_matrix((data, web.indices, web.indptr), shape=web.shape)

    def web_load(self, terms):
        """Web-basis vector  Ebar F  of F = ``linear_form(segments,
        cell_idx, qw, terms)``."""
        return self.basis.coupling_matrix() @ linear_form(
            self.segments, self.cell_idx, self.qw, terms, self.n_cols)

    @cached_property
    def velocity_pattern(self):
        """:class:`StackedPattern` of [[A11, A12], [A12^T, A22]], all blocks
        in the pattern of ``web_plan``."""
        web = self.web_plan
        return StackedPattern([web, web, web], lambda a11, a12, a22: [
            [a11, a12], [a12.T, a22]], "csr")


# ---------------------------------------------------------------------------
# scalar problems
# ---------------------------------------------------------------------------

@dataclass
class AssembledSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray


def assemble_vcpe(basis, a, f, tables):
    """Stiffness system for -div(a grad u) = f over the web basis."""
    a_vals = tables.sample(a)
    if np.any(a_vals <= 0.0):
        where = tables.points[np.argmin(a_vals)]
        raise CoercivityError("diffusion coefficient nonpositive at quadrature "
                              f"point {tuple(where.tolist())}")
    f_vals = tables.sample(f)
    A = tables.web_form([(a_vals, tables.wbx, tables.wbx),
                         (a_vals, tables.wby, tables.wby)])
    F = tables.web_load([(f_vals, tables.wb)])
    return AssembledSystem(matrix=A, rhs=F)


def assemble_mass(basis, tables):
    """Web-basis mass matrix."""
    return tables.web_form([(1.0, tables.wb, tables.wb)])


def gram_condition_estimate(basis, tables):
    """l2-condition number of the web-basis Gram (mass) matrix.

    Exact for small systems; extreme eigenvalues via Lanczos with a fixed
    start vector (deterministic) above that.
    """
    import scipy.sparse.linalg as spla

    M = assemble_mass(basis, tables)
    n = M.shape[0]
    if n <= 1500:
        vals = np.linalg.eigvalsh(M.toarray())
        return float(vals[-1] / vals[0])
    v0 = np.ones(n)
    top = spla.eigsh(M, k=1, which="LA", v0=v0, return_eigenvectors=False)
    bottom = spla.eigsh(M, k=1, sigma=0.0, which="LM", v0=v0,
                        return_eigenvectors=False)
    return float(top[0] / bottom[0])


# ---------------------------------------------------------------------------
# p-Laplacian (regularized)
# ---------------------------------------------------------------------------

class PlapIterate:
    """Regularized p-Laplacian with mass term at one iterate, sampled once.

    ``u``, ``g`` = grad u, ``base`` = eps^2 + |grad u|^2, ``mu`` =
    base^{(p-2)/2} and ``energy`` never raise on non-finite values;
    ``residual`` (computed on first use) and :meth:`jacobian` do.
    """

    def __init__(self, basis, tables, coeffs, p, eps, f_vals):
        if p <= 1.0:
            raise AssemblyError(f"admissible exponents are p in (1, inf), got {p}")
        if eps < 0.0 or (p < 2.0 and eps == 0.0):
            raise AssemblyError("regularization eps must be positive for p < 2")
        self.tables, self.coeffs, self.p, self.f_vals = tables, coeffs, p, f_vals
        self.u, self.g = tables.field(basis.coupling_matrix().T @ coeffs,
                                      grad=True)
        self.base = eps ** 2 + squared_norm(self.g)
        self.mu = self.base ** (0.5 * (p - 2.0))
        # (1/p) int base^{p/2} + 1/2 int u^2 - int f u
        dens = (self.base ** (0.5 * p) / p + 0.5 * self.u * self.u
                - f_vals * self.u)
        self.energy = float(np.sum(tables.qw * dens))

    @cached_property
    def residual(self):
        """R[j] = int mu grad u . grad B_j + int u B_j - int f B_j."""
        t, u, g, mu = self.tables, self.u, self.g, self.mu
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(u))):
            raise AssemblyError("non-finite iterate in p-Laplacian assembly")
        return t.web_load([(mu * g[:, 0], t.wbx), (mu * g[:, 1], t.wby),
                           (u - self.f_vals, t.wb)])

    def jacobian(self):
        """Exact Jacobian of ``residual`` in the web coefficients, with the
        rank-modifying term (p-2)(eps^2+s^2)^{(p-4)/2} (grad u (x) grad u)."""
        self.residual  # rejects a non-finite iterate
        t, g, base = self.tables, self.g, self.base
        # where the base vanishes so does grad u, killing the rank-1 term
        kappa = np.zeros_like(base)
        pos = base > 0.0
        kappa[pos] = (self.p - 2.0) * base[pos] ** (0.5 * (self.p - 4.0))
        # directional factor d_a = grad u . grad wb_a
        d = g[:, 0][:, None] * t.wbx + g[:, 1][:, None] * t.wby
        return t.web_form([(self.mu, t.wbx, t.wbx), (self.mu, t.wby, t.wby),
                           (kappa, d, d), (1.0, t.wb, t.wb)])


def assemble_plap_jacobian_and_residual(basis, tables, coeffs, p, eps, f_vals):
    """(Jacobian, residual) of :class:`PlapIterate` at ``coeffs``."""
    state = PlapIterate(basis, tables, coeffs, p, eps, f_vals)
    return state.jacobian(), state.residual


def plap_energy(basis, tables, coeffs, p, eps, f_vals):
    """Regularized energy of :class:`PlapIterate` at ``coeffs``."""
    return PlapIterate(basis, tables, coeffs, p, eps, f_vals).energy


# ---------------------------------------------------------------------------
# pressure space and mixed system
# ---------------------------------------------------------------------------

SLIVER_FRACTION = 0.1
# a patch itself, then its 3x3 neighborhood row by row, as (dx, dy)
_HOST_CANDIDATES = np.array([(0, 0)] + [(dx, dy) for dx in (-1, 0, 1)
                                        for dy in (-1, 0, 1)])


class PressureSpace:
    """Discontinuous tensor polynomials per cell, restricted by cut quadrature.

    Cells that receive no quadrature weight carry no degrees of freedom.
    Sliver cut cells (cut area below ``SLIVER_FRACTION`` times the full cell
    area) are merged into their best-covered neighbor, which removes the
    near-null pressure modes such slivers would otherwise contribute.
    The basis on each patch is the tensor monomials of the host cell,
    ((x-cx)/hx)^a ((y-cy)/hy)^b, extended over the merged cells. ``cells``
    (n_patches, 2) holds the macro-cell coordinates of the dof-carrying
    patches in lexicographic (dof) order, ``constant`` the coefficients of 1.
    """

    def __init__(self, grid, quad, degree, macro=1):
        if degree < 0:
            raise AssemblyError(f"pressure degree must be nonnegative, got {degree}")
        if macro < 1:
            raise AssemblyError(f"macro-cell size must be at least 1, got {macro}")
        self.grid = grid
        self.degree = degree
        self.macro = m = int(macro)
        nx, ny = grid.num_cells
        ids, inv = np.unique(quad.cell_ids, return_inverse=True)
        if ids.size == 0:
            raise AssemblyError("pressure space is empty: no active cells")
        bx, by = (kv.breakpoints for kv in grid.kvs)
        # group grid cells into macro patches, numbered row-major on the patch
        # grid padded by one patch per side, and measure their cut coverage
        jx, jy = np.divmod(ids, ny)
        stride = -(-ny // m) + 2
        patches, patch_of = np.unique((jx // m + 1) * stride + jy // m + 1,
                                      return_inverse=True)
        cell_area = np.bincount(inv, weights=quad.weights)
        full = (bx[jx + 1] - bx[jx]) * (by[jy + 1] - by[jy])
        fraction = (np.bincount(patch_of, weights=cell_area)
                    / np.bincount(patch_of, weights=full))
        # a sliver patch joins the first best-covered of its host candidates
        # (-inf on the padding and on inactive patches); chains resolve by
        # pointer jumping, acyclic as a host covers more than its sliver
        cover = np.full((-(-nx // m) + 2) * stride, -np.inf)
        cover[patches] = fraction
        sliver = np.flatnonzero(fraction < SLIVER_FRACTION)
        cand = patches[sliver, None] + _HOST_CANDIDATES @ [stride, 1]
        host = np.arange(patches.size)
        host[sliver] = np.searchsorted(patches, cand[
            np.arange(sliver.size), np.argmax(cover[cand], axis=1)])
        for _ in range(patches.size):
            if np.array_equal(host[host], host):
                break
            host = host[host]
        roots, root_pos = np.unique(host, return_inverse=True)
        px, py = np.divmod(patches - stride - 1, stride)
        self.cells = np.column_stack([px[roots], py[roots]])
        # per grid cell: dof position of its host patch (-1: no dofs) and
        # the host patch's center and half widths
        hx, hy = px[host[patch_of]] * m, py[host[patch_of]] * m
        lo = np.column_stack([bx[hx], by[hy]])
        hi = np.column_stack([bx[np.minimum(hx + m, nx)],
                              by[np.minimum(hy + m, ny)]])
        self._pos = np.full(nx * ny, -1, dtype=np.int64)
        self._pos[ids] = root_pos[patch_of]
        self._center = np.zeros((nx * ny, 2))
        self._half = np.ones((nx * ny, 2))
        self._center[ids] = 0.5 * (lo + hi)
        self._half[ids] = 0.5 * (hi - lo)
        self.ndof_cell = (degree + 1) ** 2
        self.n_dofs = len(self.cells) * self.ndof_cell
        # the monomial 1 is the first basis function of every patch
        self.constant = np.zeros(self.n_dofs)
        self.constant[::self.ndof_cell] = 1.0
        self.constant.setflags(write=False)
        self._blocks = None     # (tables, B, Mp, g) of the last table

    def _values(self, pts, cell_ids):
        """Basis values of points given their grid cell ids."""
        d = self.degree
        local = (pts - self._center[cell_ids]) / self._half[cell_ids]
        px = np.stack([local[:, 0] ** a for a in range(d + 1)], axis=1)
        py = np.stack([local[:, 1] ** b for b in range(d + 1)], axis=1)
        return (px[:, :, None] * py[:, None, :]).reshape(-1, self.ndof_cell)

    def rule(self, points, cell_ids, segments=None):
        """(segments, cols, vals) of the space on a quadrature rule: its
        :class:`CellSegments` (from ``cell_ids`` unless given), the dof
        columns (n_cells, ndof_cell) shared by the points of each run and
        the basis values (N, ndof_cell) at the points."""
        seg = (CellSegments(cell_ids, self.ndof_cell) if segments is None
               else segments)
        pos = self._pos[cell_ids[seg.starts]]
        if np.any(pos < 0):
            raise AssemblyError("quadrature point in a cell without pressure dofs")
        cols = pos[:, None] * self.ndof_cell + np.arange(self.ndof_cell)
        return seg, cols, self._values(points, cell_ids)

    def evaluate(self, coeffs, pts):
        """Point values of a pressure field (zero outside active cells)."""
        grid = self.grid
        pts = np.asarray(pts, dtype=float)
        cids = np.zeros(pts.shape[0], dtype=np.int64)
        for ax, kv in enumerate(grid.kvs):
            cids = cids * grid.num_cells[ax] + kv.find_cell(pts[:, ax])
        pos = self._pos[cids]
        active = pos >= 0
        out = np.zeros(pts.shape[0])
        vals = self._values(pts[active], cids[active])
        loc = coeffs.reshape(-1, self.ndof_cell)[pos[active]]
        out[active] = np.einsum("nd,nd->n", loc, vals)
        return out

    def blocks(self, tables):
        """Divergence block B (n_dofs x 2 n_inner), pressure mass and integrals
        on the rule of the velocity ``tables``.

        None of them depends on the velocity iterate, so they are assembled
        once per table and shared by every Newton step.
        """
        if self._blocks is None or self._blocks[0] is not tables:
            seg, cols, vals = self.rule(tables.points, tables.cell_ids,
                                        tables.segments)
            plan = SparsityPlan(seg, cols, tables.cell_idx,
                                (self.n_dofs, tables.n_cols))
            Et = tables.basis.coupling_matrix().T
            B = sp.hstack([(bilinear_form(plan, tables.qw, [(-1.0, vals, d)])
                            @ Et).tocsr() for d in (tables.wbx, tables.wby)],
                          format="csr")
            Mp, g = _mass_and_integral(self.n_dofs, tables.qw, seg, cols, vals)
            self._blocks = (tables, B, Mp, g)
        return self._blocks[1:]


def _mass_and_integral(n_dofs, weights, seg, cols, vals):
    """Pressure mass and basis integrals of a :meth:`PressureSpace.rule`."""
    plan = SparsityPlan(seg, cols, cols, (n_dofs, n_dofs))
    return (bilinear_form(plan, weights, [(1.0, vals, vals)]),
            linear_form(seg, cols, weights, [(1.0, vals)], n_dofs))


def pressure_mass_and_integral(pspace, quad):
    """Block-diagonal pressure mass matrix and the vector of basis integrals."""
    return _mass_and_integral(pspace.n_dofs, quad.weights,
                              *pspace.rule(quad.points, quad.cell_ids))


def project_pressure(pspace, quad, p_exact):
    """Patch-wise L2 projection onto the pressure space."""
    # read once each: a composed rule joins its two parts on every access
    points, weights = quad.points, quad.weights
    seg, cols, vals = pspace.rule(points, quad.cell_ids)
    p_vals = p_exact(points) if callable(p_exact) else np.asarray(p_exact)
    nd = pspace.ndof_cell
    # the mass block of each patch: its cells' local masses summed in cell
    # order, entry (a, b) of the cell with columns cols at cols[a] * nd + b
    local = _local_matrices(seg, weights, [(1.0, vals, vals)])
    blocks = np.bincount((cols[:, :, None] * nd + np.arange(nd)).ravel(),
                         weights=local.ravel(),
                         minlength=pspace.n_dofs * nd).reshape(-1, nd, nd)
    rhs = linear_form(seg, cols, weights, [(p_vals, vals)],
                      pspace.n_dofs).reshape(-1, nd)
    out = np.zeros_like(rhs)
    for c, (block, loc) in enumerate(zip(blocks, rhs)):
        try:
            out[c] = np.linalg.solve(block, loc)
        except np.linalg.LinAlgError:
            out[c] = np.linalg.lstsq(block, loc, rcond=None)[0]
    return out.ravel()


class StokesIterate:
    """Quasi-Newtonian Stokes at one iterate of the mixed system, sampled once.

    ``coeffs`` stacks the unknowns of the saddle system: the two velocity
    blocks (``velocity``, ``Fv.size`` web coefficients), the pressure dofs
    (``pressure``) and the mean-value multiplier. The symmetric gradient
    D u (``d11``, ``d12``, ``d22``), ``s`` = |D u|^2 and the viscosity ``a``
    = a(s) are sampled once; sampling raises :class:`CoercivityError` where
    a(s) is not positive and finite.

    ``energy`` (needs ``viscosity.primitive``) is the Carreau energy
    1/2 int A(s) - Fv . u with A' = a. ``residual`` is the Newton right-hand
    side [R, 0, 0], R = int a D u : D v + B^T p - Fv; its constraint rows
    are zero, as they are on every iterate with B u + g mu = 0, which every
    damped Newton step keeps. A prolonged start need not satisfy it:
    ``solvers.solve_quasi_newtonian`` first takes one step with the
    constraint rows [B u, 0] added to this right-hand side.
    :meth:`jacobian` (needs ``viscosity.derivative``) is the tangent of R,
    :meth:`frozen_block` its part with the viscosity held at a(s).
    """

    def __init__(self, basis, tables, coeffs, viscosity, Fv, B):
        self.tables, self.coeffs, self.viscosity = tables, coeffs, viscosity
        self.Fv, self.B = Fv, B
        n = basis.n_inner
        self.velocity = coeffs[:2 * n]
        self.pressure = coeffs[2 * n:-1]
        Et = basis.coupling_matrix().T
        _, g1 = tables.field(Et @ coeffs[:n], grad=True)
        _, g2 = tables.field(Et @ coeffs[n:2 * n], grad=True)
        self.d11, self.d22 = g1[:, 0], g2[:, 1]
        self.d12 = 0.5 * (g1[:, 1] + g2[:, 0])
        self.s = self.d11 ** 2 + self.d22 ** 2 + 2.0 * self.d12 ** 2
        self.a = viscosity(self.s)
        if np.any(self.a <= 0.0) or not np.all(np.isfinite(self.a)):
            raise CoercivityError("viscosity must be positive and finite")

    @cached_property
    def energy(self):
        dens = 0.5 * self.viscosity.primitive(self.s)
        return float(np.sum(self.tables.qw * dens) - self.Fv @ self.velocity)

    @cached_property
    def residual(self):
        t, a = self.tables, self.a
        R = np.concatenate([
            t.web_load([(a * self.d11, t.wbx), (a * self.d12, t.wby)]),
            t.web_load([(a * self.d12, t.wbx), (a * self.d22, t.wby)])])
        R += self.B.T @ self.pressure - self.Fv
        return np.concatenate([R, np.zeros(self.coeffs.size - R.size)])

    def _frozen_data(self):
        t = self.tables
        # A11 = Pxx + Pyy/2, A22 = Pyy + Pxx/2, A12 = Pyx/2; halving is exact
        xx, yy, yx = (t.web_form([(self.a, fa, fb)]).data
                      for fa, fb in ((t.wbx, t.wbx), (t.wby, t.wby),
                                     (t.wby, t.wbx)))
        return [xx + 0.5 * yy, 0.5 * yx, yy + 0.5 * xx]

    def frozen_block(self):
        """Velocity block  int a(s) D v : D w, the viscosity frozen at s."""
        return self.tables.velocity_pattern.stack(*self._frozen_data())

    def jacobian(self):
        """Tangent of the velocity residual: :meth:`frozen_block` plus
        2 a'(s) (D u : D v)(D u : D w), in the same pattern."""
        t = self.tables
        # D u : D(phi e_k) is e_k . (D u grad phi)
        e1 = self.d11[:, None] * t.wbx + self.d12[:, None] * t.wby
        e2 = self.d12[:, None] * t.wbx + self.d22[:, None] * t.wby
        kappa = 2.0 * self.viscosity.derivative(self.s)
        blocks = self._frozen_data()
        for block, (fa, fb) in zip(blocks, ((e1, e1), (e1, e2), (e2, e2))):
            block += t.web_form([(kappa, fa, fb)]).data
        return t.velocity_pattern.stack(*blocks)


def assemble_mixed(basis, pspace, a_fn, coeffs_prev, phi, tables):
    """Blocks of the quasi-Newtonian mixed system with frozen viscosity.

    Velocity dofs are the two stacked web-coefficient blocks; A is the
    :meth:`StokesIterate.frozen_block` at the velocity ``coeffs_prev``
    (2*n_inner,), at zero velocity also the Newton tangent.

    Returns (A, B, Fv, Mp, g): velocity block A (2n x 2n), divergence block
    B (np x 2n), velocity load Fv, pressure mass Mp and pressure integrals g.
    """
    phi_vals = tables.sample(phi, 2)
    Fv = np.concatenate([tables.web_load([(phi_vals[:, k], tables.wb)])
                         for k in range(2)])
    B, Mp, g = pspace.blocks(tables)
    state = StokesIterate(basis, tables, np.concatenate(
        [coeffs_prev, np.zeros(B.shape[0] + 1)]), a_fn, Fv, B)
    return state.frozen_block(), B, Fv, Mp, g


def export_coo(path, matrix, header=None):
    """Write a sparse matrix as coordinate-format text: 'row col value' lines."""
    coo = sp.coo_matrix(matrix)
    with open(path, "w") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write(f"# shape {coo.shape[0]} {coo.shape[1]} nnz {coo.nnz}\n")
        order = np.lexsort((coo.col, coo.row))
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{int(r)} {int(c)} {float(v)!r}\n")
