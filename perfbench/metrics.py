"""Metric names, units and the per-layer aggregation of traced spans.

End-to-end metrics come from untraced studies. Per-layer metrics come from
the spans of a traced study, once over the whole study and once over its
finest level (prefix ``finest.``). Counts over the whole study are sums
over its levels.
"""

from statistics import median

from spans import self_times

END_TO_END = {
    "study_s": "s",
    "finest_level_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYERS = ("geometry", "webbasis", "quadrature", "assembly", "solvers",
          "analysis")

# Assembly calls whose cost scales with quadrature points times calls.
_POINT_CALLS = ("assembly.assemble_vcpe", "assembly.gram_condition_estimate",
                "assembly.plap_jacobian", "assembly.plap_energy",
                "assembly.assemble_mixed")

_SCOPED = {
    "geometry.classify_cells_s": "s",
    "geometry.classify_indices_s": "s",
    "geometry.cells_interior": "count",
    "geometry.cells_boundary": "count",
    "webbasis.build_extension_s": "s",
    "webbasis.build_web_basis_self_s": "s",
    "webbasis.n_inner": "count",
    "webbasis.n_outer": "count",
    "webbasis.extension_entries": "count",
    "webbasis.us_per_extension_entry": "us",
    "quadrature.build_quadrature_s": "s",
    "quadrature.points_interior": "count",
    "quadrature.points_boundary": "count",
    "quadrature.boundary_point_share": "ratio",
    "assembly.BasisTables_s": "s",
    "assembly.assemble_vcpe_s": "s",
    "assembly.gram_condition_estimate_s": "s",
    "assembly.plap_jacobian_s": "s",
    "assembly.plap_jacobian_calls": "count",
    "assembly.plap_energy_calls": "count",
    "assembly.assemble_mixed_s": "s",
    "assembly.assemble_mixed_calls": "count",
    "assembly.PressureSpace_s": "s",
    "assembly.nnz": "count",
    "assembly.us_per_point_call": "us",
    "solvers.cg_self_s": "s",
    "solvers.cg_iterations": "count",
    "solvers.newton_iterations": "count",
    "solvers.newton_self_s": "s",
    "solvers.line_search_accept_ratio": "ratio",
    "solvers.picard_updates": "count",
    "solvers.picard_self_s": "s",
    "solvers.infsup_self_s": "s",
    "analysis.error_norm_s": "s",
    "analysis.error_norm_calls": "count",
    "analysis.run_convergence_self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

PER_LAYER = {
    **_SCOPED,
    **{f"finest.{name}": unit for name, unit in _SCOPED.items()},
    "cli.load_config_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def scoped_metrics(spans, self_t):
    """Per-layer metrics over ``spans`` (one study or one level of it).

    ``self_t`` maps span id to self time, computed over the whole trace so
    that a span's children are found whatever the scope.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, []))

    def own(name):
        return sum(self_t[s.id] for s in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def count(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, []))

    points_interior = count("quadrature.build_quadrature", "interior")
    points_boundary = count("quadrature.build_quadrature", "boundary")
    extension_entries = count("webbasis.build_extension", "entries")
    point_calls = sum(count(n, "points") for n in _POINT_CALLS)
    # nnz of the largest operator assembled on each level
    nnz_by_level = {}
    for s in spans:
        if "nnz" in s.attrs:
            nnz_by_level[s.level] = max(nnz_by_level.get(s.level, 0),
                                        s.attrs["nnz"])
    newton_iterations = count("solvers.solve_plap", "iterations")
    out = {
        "geometry.classify_cells_s": total("geometry.classify_cells"),
        "geometry.classify_indices_s": total("geometry.classify_indices"),
        "geometry.cells_interior": count("geometry.classify_cells", "interior"),
        "geometry.cells_boundary": count("geometry.classify_cells", "boundary"),
        "webbasis.build_extension_s": total("webbasis.build_extension"),
        "webbasis.build_web_basis_self_s": own("webbasis.build_web_basis"),
        "webbasis.n_inner": count("webbasis.build_web_basis", "n_inner"),
        "webbasis.n_outer": count("webbasis.build_web_basis", "n_outer"),
        "webbasis.extension_entries": extension_entries,
        "webbasis.us_per_extension_entry": 1e6 * _ratio(
            total("webbasis.build_extension"), extension_entries),
        "quadrature.build_quadrature_s": total("quadrature.build_quadrature"),
        "quadrature.points_interior": points_interior,
        "quadrature.points_boundary": points_boundary,
        "quadrature.boundary_point_share": _ratio(
            points_boundary, points_interior + points_boundary),
        "assembly.BasisTables_s": total("assembly.BasisTables"),
        "assembly.assemble_vcpe_s": total("assembly.assemble_vcpe"),
        "assembly.gram_condition_estimate_s": total(
            "assembly.gram_condition_estimate"),
        "assembly.plap_jacobian_s": total("assembly.plap_jacobian"),
        "assembly.plap_jacobian_calls": calls("assembly.plap_jacobian"),
        "assembly.plap_energy_calls": calls("assembly.plap_energy"),
        "assembly.assemble_mixed_s": total("assembly.assemble_mixed"),
        "assembly.assemble_mixed_calls": calls("assembly.assemble_mixed"),
        "assembly.PressureSpace_s": total("assembly.PressureSpace"),
        "assembly.nnz": sum(nnz_by_level.values()),
        "assembly.us_per_point_call": 1e6 * _ratio(
            sum(total(n) for n in _POINT_CALLS), point_calls),
        "solvers.cg_self_s": own("solvers.solve_vcpe"),
        "solvers.cg_iterations": count("solvers.solve_vcpe", "iterations"),
        "solvers.newton_iterations": newton_iterations,
        "solvers.newton_self_s": own("solvers.solve_plap"),
        "solvers.line_search_accept_ratio": _ratio(
            newton_iterations, calls("assembly.plap_energy")),
        "solvers.picard_updates": count("solvers.solve_quasi_newtonian",
                                        "iterations"),
        "solvers.picard_self_s": own("solvers.solve_quasi_newtonian"),
        "solvers.infsup_self_s": own("solvers.estimate_infsup"),
        "analysis.error_norm_s": total("analysis.error_norm"),
        "analysis.error_norm_calls": calls("analysis.error_norm"),
        "analysis.run_convergence_self_s": (own("analysis.run_convergence")
                                            + own("analysis.level")),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(self_t[s.id] for s in spans
                                     if s.layer == layer)
    return out


def per_layer_metrics(spans, study_ids, untraced_study_s, traced_study_s):
    """Per-layer metrics of a traced run: medians over its traced studies.

    ``trace.overhead_s`` is ``traced_study_s - untraced_study_s``, the
    run's traced and untraced study times.
    """
    self_t = self_times(spans)
    samples = []
    for study in study_ids:
        in_study = [s for s in spans if s.study == study]
        finest = max(s.level for s in in_study if s.level is not None)
        row = scoped_metrics(in_study, self_t)
        row.update({f"finest.{k}": v for k, v in scoped_metrics(
            [s for s in in_study if s.level == finest], self_t).items()})
        row["cli.load_config_s"] = sum(s.duration for s in spans
                                       if s.name == "cli.load_config")
        samples.append(row)
    out = {name: median(row[name] for row in samples) for name in samples[0]}
    out["trace.overhead_s"] = traced_study_s - untraced_study_s
    return out
