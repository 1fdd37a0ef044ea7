"""In-memory spans around calls into webfem's modules.

The benchmark traces from its own side: it swaps a module attribute for a
timing wrapper, runs a study, and puts the original back. A name has to be
patched where its caller looks it up, because ``from .x import y`` binds a
copy in the importing module (``webfem.analysis.build_quadrature`` is the
one ``run_convergence`` calls, not ``webfem.quadrature.build_quadrature``).
"""

import importlib
import inspect
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int = None
    workload: str = None
    level: int = None
    run_id: str = None
    study: int = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def _tables_points(bound, result):
    return {"points": bound["tables"].num_points}


def _cells(bound, result):
    counts = result.counts()
    return {"interior": counts["interior"], "boundary": counts["boundary"]}


def _basis(bound, result):
    return {"n_inner": result.n_inner, "n_outer": len(result.idx.outer)}


def _extension(bound, result):
    return {"entries": len(result.entries)}


def _quadrature(bound, result):
    from webfem.geometry import CellLabel
    labels = bound["cls"].labels.ravel()[result.cell_ids]
    interior = int((labels == CellLabel.INTERIOR).sum())
    return {"points": result.num_points, "interior": interior,
            "boundary": result.num_points - interior}


def _basis_tables(bound, result):
    return {"points": result.num_points}


def _vcpe(bound, result):
    return {"points": bound["tables"].num_points, "nnz": result.matrix.nnz}


def _plap_jacobian(bound, result):
    return {"points": bound["tables"].num_points, "nnz": result[0].nnz}


def _mixed(bound, result):
    return {"points": bound["tables"].num_points,
            "nnz": result[0].nnz + result[1].nnz}


def _iterations(bound, result):
    return {"iterations": result.params["iterations"]}


def _picard(bound, result):
    return {"iterations": result[2]["iterations"]}


LEVEL_SPAN = "analysis.level"

# (module, attribute, span name, counts taken from the bound arguments and
# the result). Span names are "<layer>.<call>"; the layer is the webfem
# module the call belongs to.
WRAPPED = [
    ("webfem.analysis", "_run_level", LEVEL_SPAN, None),
    ("webfem.analysis", "build_web_basis", "webbasis.build_web_basis", _basis),
    ("webfem.webbasis", "classify_cells", "geometry.classify_cells", _cells),
    ("webfem.webbasis", "classify_indices", "geometry.classify_indices", None),
    ("webfem.webbasis", "build_extension", "webbasis.build_extension",
     _extension),
    ("webfem.analysis", "build_quadrature", "quadrature.build_quadrature",
     _quadrature),
    ("webfem.analysis", "BasisTables", "assembly.BasisTables", _basis_tables),
    ("webfem.analysis", "gram_condition_estimate",
     "assembly.gram_condition_estimate", _tables_points),
    ("webfem.solvers", "assemble_vcpe", "assembly.assemble_vcpe", _vcpe),
    ("webfem.solvers", "assemble_plap_jacobian_and_residual",
     "assembly.plap_jacobian", _plap_jacobian),
    ("webfem.solvers", "plap_energy", "assembly.plap_energy", _tables_points),
    ("webfem.solvers", "assemble_mixed", "assembly.assemble_mixed", _mixed),
    ("webfem.analysis", "PressureSpace", "assembly.PressureSpace", None),
    ("webfem.analysis", "solve_vcpe", "solvers.solve_vcpe", _iterations),
    ("webfem.analysis", "solve_plap", "solvers.solve_plap", _iterations),
    ("webfem.analysis", "solve_quasi_newtonian",
     "solvers.solve_quasi_newtonian", _picard),
    ("webfem.analysis", "estimate_infsup", "solvers.estimate_infsup", None),
    ("webfem.analysis", "error_norm", "analysis.error_norm", None),
]


class Tracer:
    """Records spans of one benchmark run in memory.

    ``install()`` patches every entry of ``WRAPPED``; ``uninstall()``
    restores the originals. Use it as a context manager so the originals
    come back even when a study raises.
    """

    def __init__(self, workload=None, run_id=None):
        self.workload = workload
        self.run_id = run_id
        self.spans = []
        self.study = None
        self._stack = []
        self._level = None
        self._saved = []

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``attrs(bound_arguments, result)`` returns counts for the span.
        """
        bound = None
        if attrs is not None or name == LEVEL_SPAN:
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        outer_level = self._level
        if name == LEVEL_SPAN:
            # spans inside a level carry its index
            self._level = int(bound["level"])
        span = Span(id=len(self.spans), name=name, start=0.0, end=0.0,
                    parent=self._stack[-1].id if self._stack else None,
                    workload=self.workload, level=self._level,
                    run_id=self.run_id, study=self.study)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._level = outer_level
        if attrs is not None:
            span.attrs = attrs(bound, result)
        return result

    def _wrapper(self, name, fn, attrs):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, attrs in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, attrs))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans):
    """Map span id -> duration minus the part covered by its child spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out
