"""Sparse Galerkin operators and load vectors over the web basis.

Assembly is table-driven: the weighted tensor-product basis (w * b_k) and
its first partials are tabulated once per quadrature rule, together with a
sparsity plan of the per-cell blocks. Every operator (including each
Newton/Picard reassembly) then reduces to batched per-cell matrix products
scattered into the fixed pattern. Systems are assembled in the full
relevant basis and reduced to the web basis with the coupling matrix
``Ebar = diag(1/w(x_i)) E``:  A_web = Ebar A Ebar^T.

Every web-basis matrix (stiffness, mass, seminorm Gram, each Newton
Jacobian and each Picard velocity block) reduces through the one
:class:`WebReductionPlan` of its table: the web pattern and a linear map
from the full-basis data to the web data, so that a reduction is one
sparse mat-vec into a pattern shared by every matrix of the table. Load
and residual vectors reduce as ``Ebar @ F`` (``BasisTables.web_load``).
The table also holds a :class:`StackedPattern` of the 2x2 Picard velocity
block; a Picard step then computes values only, into fixed patterns.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .webbasis import BasisValues


class AssemblyError(RuntimeError):
    """Inconsistent assembly inputs."""


class CoercivityError(AssemblyError):
    """Coefficient failed the positivity requirement at a quadrature point."""


# ---------------------------------------------------------------------------
# per-cell segments and sparsity plans
# ---------------------------------------------------------------------------

class CellSegments:
    """Quadrature points grouped into per-cell runs, batched by run length.

    A quadrature rule lists its points cell by cell, so each grid cell is
    one contiguous run. ``perm`` reorders the points so that runs of equal
    length sit next to each other. Each batch is a tuple
    ``(first_run, end_run, first_point, end_point, run_length)`` in that
    order, so its points reshape to (runs, run_length, ...) without a copy.
    """

    def __init__(self, cell_ids):
        cell_ids = np.asarray(cell_ids)
        n = cell_ids.size
        self.starts = np.flatnonzero(np.diff(cell_ids, prepend=cell_ids[:1] - 1))
        self.counts = np.diff(np.append(self.starts, n))
        self.order = np.argsort(self.counts, kind="stable")
        counts = self.counts[self.order]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        self.perm = np.arange(n) + np.repeat(
            self.starts[self.order] - offsets[:-1], counts)
        first = np.flatnonzero(np.diff(counts, prepend=-1))
        ends = np.append(first[1:], counts.size)
        self.batches = [(lo, hi, offsets[lo], offsets[hi], counts[lo])
                        for lo, hi in zip(first.tolist(), ends.tolist())]

    @property
    def num_cells(self):
        return self.starts.size


class SparsityPlan:
    """CSR pattern of per-cell blocks and the scatter of local entries into it.

    ``rows`` (n_cells, nr) and ``cols`` (n_cells, nc) hold the global row
    and column of each cell's local matrix, one line per run of
    ``segments``. Every matrix assembled with the plan shares its read-only
    ``indices`` and ``indptr``; ``scatter`` maps each local entry
    (cell, a, b), cells in batch order, to its slot in ``data``.
    """

    def __init__(self, segments, rows, cols, shape):
        self.segments = segments
        self.shape = shape
        rows = rows[segments.order]
        cols = cols[segments.order]
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
        i = np.repeat(np.arange(plan.shape[0]), np.diff(plan.indptr))
        j = plan.indices
        # every full slot k = (i, j) pairs each web row r of Ebar[:, i] with
        # each web column s of Ebar[:, j]: deg(i) * deg(j) contributions
        ni, nj = deg[i], deg[j]
        counts = ni * nj
        k = np.repeat(np.arange(counts.size), counts)
        t = np.arange(k.size) - np.repeat(np.cumsum(counts) - counts, counts)
        ri = Et.indptr[i[k]] + t // nj[k]
        sj = Et.indptr[j[k]] + t % nj[k]
        n = E.shape[0]
        self.shape = (n, n)
        slots, row = np.unique(Et.indices[ri].astype(np.int64) * n
                               + Et.indices[sj], return_inverse=True)
        self.nnz = slots.size
        self.indices, self.indptr = _csr_pattern(slots, self.shape)
        self.R = sp.csr_matrix((Et.data[ri] * Et.data[sj], (row, k)),
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
    of all cells with the same point count come from one batched matmul;
    the scatter into the shared pattern is a deterministic bincount.
    """
    return sp.csr_matrix((_form_data(plan, qw, terms), plan.indices,
                          plan.indptr), shape=plan.shape)


def _form_data(plan, qw, terms):
    """``data`` of :func:`bilinear_form`, without building the matrix."""
    seg = plan.segments
    local = None
    for c, fa, fb in terms:
        wa = ((qw * c)[:, None] * fa)[seg.perm]
        wb = fb[seg.perm]
        if local is None:
            local = np.zeros((seg.num_cells, wa.shape[1], wb.shape[1]))
        for lo, hi, p0, p1, k in seg.batches:
            a = wa[p0:p1].reshape(hi - lo, k, -1)
            b = wb[p0:p1].reshape(hi - lo, k, -1)
            local[lo:hi] += np.matmul(a.transpose(0, 2, 1), b)
    return np.bincount(plan.scatter, weights=local.ravel(), minlength=plan.nnz)


def linear_form(idx, qw, terms, n_cols):
    """Vector  sum_q qw_q * sum_t c_t(q) F_t(q, a) scattered to columns."""
    acc = None
    for c, fa in terms:
        contrib = (qw * c)[:, None] * fa
        acc = contrib if acc is None else acc + contrib
    return np.bincount(idx.ravel(), weights=acc.ravel(), minlength=n_cols)


# ---------------------------------------------------------------------------
# basis tables
# ---------------------------------------------------------------------------

class BasisTables(BasisValues):
    """Values of the weighted basis w*b_k at the quadrature points.

    The :class:`~webfem.webbasis.BasisValues` of a rule whose points activate
    relevant B-splines only (every ``idx`` >= 0), plus:

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
        Pattern of the Picard velocity block, built on first use by
        :func:`assemble_mixed`.
    """

    def __init__(self, basis, quad, nderiv=1):
        super().__init__(basis, quad.points, nderiv)
        if np.any(self.idx < 0):
            raise AssemblyError(
                "quadrature point activates a basis function outside the "
                "relevant set; the domain is not covered by the grid core")
        self.qw = quad.weights
        self.points = quad.points
        self.cell_ids = quad.cell_ids
        self.n_cols = basis.n_relevant
        self.basis = basis
        # all points of a cell activate the same basis row, which makes the
        # pattern a union of dense per-cell blocks fixed for the table's life
        self.segments = CellSegments(quad.cell_ids)
        self.cell_idx = self.idx[self.segments.starts]
        if np.any(self.idx != np.repeat(self.cell_idx, self.segments.counts,
                                        axis=0)):
            raise AssemblyError(
                "points of one quadrature cell activate different basis "
                "rows; cell ids do not match the points")
        self.plan = SparsityPlan(self.segments, self.cell_idx, self.cell_idx,
                                 (self.n_cols, self.n_cols))

    @property
    def num_points(self):
        return self.points.shape[0]

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
        """Web-basis vector  Ebar F  of F = ``linear_form(idx, qw, terms)``."""
        return self.basis.coupling_matrix() @ linear_form(
            self.idx, self.qw, terms, self.n_cols)

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
    basis: object
    kind: str
    meta: dict = field(default_factory=dict)


def assemble_vcpe(basis, a, f, tables):
    """Stiffness system for -div(a grad u) = f over the web basis."""
    a_vals = a(tables.points) if callable(a) else np.full(tables.num_points, float(a))
    if np.any(a_vals <= 0.0):
        where = tables.points[np.argmin(a_vals)]
        raise CoercivityError(
            f"diffusion coefficient nonpositive at quadrature point {tuple(where)}")
    f_vals = f(tables.points) if callable(f) else np.full(tables.num_points, float(f))
    A = tables.web_form([(a_vals, tables.wbx, tables.wbx),
                         (a_vals, tables.wby, tables.wby)])
    F = tables.web_load([(f_vals, tables.wb)])
    return AssembledSystem(matrix=A, rhs=F, basis=basis, kind="vcpe")


def assemble_mass(basis, tables, coefficient=1.0):
    """Web-basis mass matrix (optionally with a variable coefficient)."""
    c = (coefficient(tables.points) if callable(coefficient)
         else float(coefficient))
    return tables.web_form([(c, tables.wb, tables.wb)])


def raw_weighted_gram(tables):
    """Gram matrix of the raw weighted basis {w b_k, k in K} (no extension)."""
    return bilinear_form(tables.plan, tables.qw,
                         [(1.0, tables.wb, tables.wb)])


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


def assemble_dipole_rhs(basis, d, tables):
    """Load vector for a dipole source f = div d in weak form: -int d.grad B."""
    d_vals = d(tables.points) if callable(d) else np.broadcast_to(
        np.asarray(d, dtype=float), (tables.num_points, 2))
    return tables.web_load([(-d_vals[:, 0], tables.wbx),
                            (-d_vals[:, 1], tables.wby)])


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
        self.base = eps ** 2 + np.sum(self.g * self.g, axis=1)
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


class PressureSpace:
    """Discontinuous tensor polynomials per cell, restricted by cut quadrature.

    Cells that receive no quadrature weight carry no degrees of freedom.
    Sliver cut cells (cut area below ``SLIVER_FRACTION`` times the full cell
    area) are merged into their best-covered neighbor, which removes the
    near-null pressure modes such slivers would otherwise contribute.
    The basis on each patch is the tensor monomials of the host cell,
    ((x-cx)/hx)^a ((y-cy)/hy)^b, extended over the merged cells.
    """

    def __init__(self, grid, quad, degree, macro=1):
        if degree < 0:
            raise AssemblyError(f"pressure degree must be nonnegative, got {degree}")
        if macro < 1:
            raise AssemblyError(f"macro-cell size must be at least 1, got {macro}")
        self.grid = grid
        self.degree = degree
        self.macro = int(macro)
        nx, ny = grid.num_cells
        ids, inv = np.unique(quad.cell_ids, return_inverse=True)
        if ids.size == 0:
            raise AssemblyError("pressure space is empty: no active cells")
        cell_area = np.bincount(inv, weights=quad.weights)
        bx = grid.kvs[0].breakpoints
        by = grid.kvs[1].breakpoints
        # group grid cells into macro patches, measuring their cut coverage
        patch_area, patch_full = {}, {}
        for cid, area in zip(ids.tolist(), cell_area):
            jx, jy = divmod(int(cid), ny)
            pc = (jx // self.macro, jy // self.macro)
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
        self.cells = roots
        root_pos = {c: r for r, c in enumerate(roots)}
        # per grid cell: dof position of its host patch (-1: no dofs) and
        # the host patch's center and half widths
        hosts = np.array([assign[(c // ny // self.macro, c % ny // self.macro)]
                          for c in ids.tolist()])
        self._pos = np.full(nx * ny, -1, dtype=np.int64)
        self._pos[ids] = [root_pos[tuple(h)] for h in hosts.tolist()]
        x0 = bx[hosts[:, 0] * self.macro]
        x1 = bx[np.minimum((hosts[:, 0] + 1) * self.macro, nx)]
        y0 = by[hosts[:, 1] * self.macro]
        y1 = by[np.minimum((hosts[:, 1] + 1) * self.macro, ny)]
        self._center = np.zeros((nx * ny, 2))
        self._half = np.ones((nx * ny, 2))
        self._center[ids] = np.column_stack([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
        self._half[ids] = np.column_stack([0.5 * (x1 - x0), 0.5 * (y1 - y0)])
        self.ndof_cell = (degree + 1) ** 2
        self.n_dofs = len(self.cells) * self.ndof_cell
        self._tabulated = None  # (quad, cols, vals) of the last rule
        self._blocks = None     # (tables, quad, B, Mp, g) of the last pair

    def _tabulate(self, pts, cell_ids):
        """Dof position and basis values of points given their grid cell ids."""
        d = self.degree
        local = (pts - self._center[cell_ids]) / self._half[cell_ids]
        px = np.stack([local[:, 0] ** a for a in range(d + 1)], axis=1)
        py = np.stack([local[:, 1] ** b for b in range(d + 1)], axis=1)
        vals = (px[:, :, None] * py[:, None, :]).reshape(-1, self.ndof_cell)
        return self._pos[cell_ids], vals

    def tables(self, quad):
        """Per-point values and global dof columns, shapes (N, ndof_cell).

        Tabulated once per rule: repeated calls with the same ``quad``
        return the same read-only arrays.
        """
        if self._tabulated is None or self._tabulated[0] is not quad:
            pos, vals = self._tabulate(quad.points, quad.cell_ids)
            if np.any(pos < 0):
                raise AssemblyError(
                    "quadrature point in a cell without pressure dofs")
            cols = pos[:, None] * self.ndof_cell + np.arange(self.ndof_cell)
            cols.setflags(write=False)
            vals.setflags(write=False)
            self._tabulated = (quad, cols, vals)
        return self._tabulated[1:]

    def evaluate(self, coeffs, pts):
        """Point values of a pressure field (zero outside active cells)."""
        grid = self.grid
        pts = np.asarray(pts, dtype=float)
        cids = np.zeros(pts.shape[0], dtype=np.int64)
        for ax, kv in enumerate(grid.kvs):
            cids = cids * grid.num_cells[ax] + kv.find_cell(pts[:, ax])
        active = self._pos[cids] >= 0
        out = np.zeros(pts.shape[0])
        pos, vals = self._tabulate(pts[active], cids[active])
        loc = coeffs.reshape(-1, self.ndof_cell)[pos]
        out[active] = np.einsum("nd,nd->n", loc, vals)
        return out

    def blocks(self, tables, quad):
        """Divergence block B (n_dofs x 2 n_inner), pressure mass and integrals.

        None of them depends on the velocity iterate, so they are assembled
        once per (tables, quad) pair and shared by every Picard step.
        """
        if self._blocks is None or self._blocks[0] is not tables \
                or self._blocks[1] is not quad:
            pcols, pvals = self.tables(quad)
            seg = tables.segments
            plan = SparsityPlan(seg, pcols[seg.starts], tables.cell_idx,
                                (self.n_dofs, tables.n_cols))
            Et = tables.basis.coupling_matrix().T
            Bx = bilinear_form(plan, tables.qw, [(-1.0, pvals, tables.wbx)])
            By = bilinear_form(plan, tables.qw, [(-1.0, pvals, tables.wby)])
            B = sp.hstack([(Bx @ Et).tocsr(), (By @ Et).tocsr()], format="csr")
            Mp, g = pressure_mass_and_integral(self, quad)
            self._blocks = (tables, quad, B, Mp, g)
        return self._blocks[2:]


def pressure_mass_and_integral(pspace, quad):
    """Block-diagonal pressure mass matrix and the vector of basis integrals."""
    cols, vals = pspace.tables(quad)
    seg = CellSegments(quad.cell_ids)
    plan = SparsityPlan(seg, cols[seg.starts], cols[seg.starts],
                        (pspace.n_dofs, pspace.n_dofs))
    M = bilinear_form(plan, quad.weights, [(1.0, vals, vals)])
    g = linear_form(cols, quad.weights, [(1.0, vals)], pspace.n_dofs)
    return M, g


def project_pressure(pspace, quad, p_exact):
    """Cell-wise L2 projection onto the pressure space."""
    cols, vals = pspace.tables(quad)
    p_vals = p_exact(quad.points) if callable(p_exact) else np.asarray(p_exact)
    M, _ = pressure_mass_and_integral(pspace, quad)
    rhs = linear_form(cols, quad.weights, [(p_vals, vals)], pspace.n_dofs)
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


def assemble_mixed(basis, pspace, a_fn, coeffs_prev, phi, tables, quad):
    """Blocks of the quasi-Newtonian mixed system with Picard-frozen viscosity.

    Velocity dofs are the two stacked web-coefficient blocks; the viscosity
    is evaluated at |D(u_prev)|^2 from ``coeffs_prev`` (2*n_inner,).

    Returns (A, B, Fv, Mp, g): velocity block A (2n x 2n), divergence block
    B (np x 2n), velocity load Fv, pressure mass Mp and pressure integrals g.
    """
    n = basis.n_inner
    E = basis.coupling_matrix()
    c1 = E.T @ coeffs_prev[:n]
    c2 = E.T @ coeffs_prev[n:]
    _, g1 = tables.field(c1, grad=True)
    _, g2 = tables.field(c2, grad=True)
    d11 = g1[:, 0]
    d22 = g2[:, 1]
    d12 = 0.5 * (g1[:, 1] + g2[:, 0])
    dnorm2 = d11 ** 2 + d22 ** 2 + 2.0 * d12 ** 2
    a_vals = a_fn(dnorm2)
    if np.any(a_vals <= 0.0) or not np.all(np.isfinite(a_vals)):
        raise CoercivityError("viscosity must be positive and finite")

    # A11 = Pxx + Pyy/2, A22 = Pyy + Pxx/2, A12 = Pyx/2; halving is exact
    xx, yy, yx = (tables.web_form([(a_vals, fa, fb)]).data
                  for fa, fb in ((tables.wbx, tables.wbx),
                                 (tables.wby, tables.wby),
                                 (tables.wby, tables.wbx)))
    A = tables.velocity_pattern.stack(xx + 0.5 * yy, 0.5 * yx, yy + 0.5 * xx)

    phi_vals = phi(tables.points) if callable(phi) else np.broadcast_to(
        np.asarray(phi, dtype=float), (tables.num_points, 2))
    Fv = np.concatenate([tables.web_load([(phi_vals[:, k], tables.wb)])
                         for k in range(2)])

    B, Mp, g = pspace.blocks(tables, quad)
    return A, B, Fv, Mp, g


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
