"""Acceptance suite: one test per criterion, each printing a PASS line.

The bundled study configs are executed once by a module fixture; the
rate criteria assert on those reports, and the determinism criterion
reruns every config a second time and compares the stripped reports.
Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from webfem.assembly import (
    BasisTables, PlapIterate, assemble_mass,
    assemble_plap_jacobian_and_residual, assemble_vcpe, linear_form,
)
from webfem.cli import bundled_config_dir, load_config, run
from webfem.geometry import Disk, ImplicitDomain, classify_cells
from webfem.quadrature import build_quadrature
from webfem.splines import KnotVector, TensorGrid, uniform_knots
from webfem.solvers import solve_plap
from webfem.webbasis import build_web_basis

from oracles import (
    deboor_fix, integrate, kv_support_cells, local_polynomial,
    raw_weighted_gram,
)


def _passline(n, text):
    print(f"[criterion {n:2d}] {text}: PASS")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """First run of every bundled config: name -> (config, report)."""
    out = tmp_path_factory.mktemp("suite")
    results = {}
    for path in sorted(bundled_config_dir().iterdir()):
        if not str(path).endswith(".json"):
            continue
        cfg = load_config(str(path))
        code, report = run(cfg, out_dir=str(out / "pass1"))
        assert code == 0, f"{cfg['name']} failed its embedded floors"
        results[cfg["name"]] = (cfg, report)
    return out, results


def random_knot_vector(rng, degree, n_cells=7):
    w = rng.uniform(0.5, 2.0, n_cells)
    core = np.concatenate([[0.0], np.cumsum(w)]) / np.sum(w)
    left = core[0] - (core[1] - core[0]) * np.arange(degree, 0, -1)
    right = core[-1] + (core[-1] - core[-2]) * np.arange(1, degree + 1)
    return KnotVector(np.concatenate([left, core, right]), degree)


def test_criterion_01_biorthogonality():
    # lambda_k(local polynomial of b_k') = delta_{kk'} to 1e-10,
    # degrees 1..3 on 5 random non-uniform knot vectors
    rng = np.random.default_rng(12345)
    worst = 0.0
    for degree in (1, 2, 3):
        for _ in range(5):
            kv = random_knot_vector(rng, degree)
            grid = TensorGrid(kv, kv)
            n = kv.num_basis
            for k in range(n):
                cells = set(kv_support_cells(kv, k))
                for kp in range(max(0, k - degree), min(n, k + degree + 1)):
                    for cell in sorted(cells & set(kv_support_cells(kv, kp))):
                        piece = local_polynomial(grid, (kp, kp), (cell, cell))
                        lam = deboor_fix((kv, kv), (k, k), piece)
                        expect = 1.0 if k == kp else 0.0
                        worst = max(worst, abs(lam - expect))
    assert worst <= 1e-10
    _passline(1, f"bi-orthogonality worst deviation {worst:.2e} <= 1e-10")


def test_criterion_02_stability_contrast():
    # web Gram condition growth <= 5x per dyadic level; raw weighted basis
    # (outer splines kept) grows >= 50x per level on the same sequence
    dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
    web_conds, raw_conds = [], []
    for n in (8, 16, 32):
        kv = uniform_knots(-1.17, 1.17, n, 1)
        grid = TensorGrid(kv, kv)
        basis = build_web_basis(dom, grid)
        quad = build_quadrature(dom, grid, basis.cls, 2, 8)
        tables = BasisTables(basis, quad)
        ew = np.linalg.eigvalsh(assemble_mass(basis, tables).toarray())
        web_conds.append(ew[-1] / ew[0])
        er = np.linalg.eigvalsh(raw_weighted_gram(tables).toarray())
        raw_conds.append(er[-1] / er[0])
    web_growth = [b / a for a, b in zip(web_conds, web_conds[1:])]
    raw_growth = [b / a for a, b in zip(raw_conds, raw_conds[1:])]
    assert max(web_growth) <= 5.0
    assert min(raw_growth) >= 50.0
    _passline(2, "web Gram growth "
              f"{[f'{g:.2f}' for g in web_growth]} <= 5, raw growth "
              f"{[f'{g:.0f}' for g in raw_growth]} >= 50")


def test_criterion_03_jackson(suite):
    _, results = suite
    _, report = results["jackson_deg1"]
    med = float(np.median(report.eoc_table["H1"]))
    assert med >= 0.9
    _passline(3, f"projector H1 EOC median {med:.3f} >= 0.9 "
                 "(u = (1-r^2)^2, degree 1, 3 levels)")


def test_criterion_04_linear_rates(suite):
    _, results = suite
    _, deg2 = results["disk_poisson_deg2"]
    med2 = float(np.median(deg2.eoc_table["H1"]))
    assert len(deg2.levels) == 4
    assert med2 >= 1.75
    _, deg3 = results["disk_poisson_deg3"]
    med3 = float(np.median(deg3.eoc_table["H1"]))
    assert med3 >= 2.5
    _passline(4, f"Poisson H1 EOC medians: degree 2 {med2:.3f} >= 1.75, "
                 f"degree 3 {med3:.3f} >= 2.5")


def test_criterion_05_plap_p15(suite):
    _, results = suite
    _, w2p = results["plap_p15_w2p"]
    med_w = float(np.median(w2p.eoc_table["quasinorm"]))
    assert med_w >= 0.5  # target 0.75 = p/2
    _, smooth = results["plap_p15_smooth"]
    med_s = float(np.median(smooth.eoc_table["quasinorm"]))
    assert med_s >= 0.75  # target 1 on the smooth branch
    _passline(5, f"p=1.5 quasi-norm EOC medians: W2p branch {med_w:.3f} >= 0.5 "
                 f"(target 0.75), smooth branch {med_s:.3f} >= 0.75 (target 1)")


def test_criterion_06_plap_p3(suite):
    _, results = suite
    _, rep = results["plap_p3"]
    med = float(np.median(rep.eoc_table["quasinorm"]))
    assert med >= 0.75  # alpha = 2 regularity, target alpha/2 = 1
    _passline(6, f"p=3 quasi-norm EOC median {med:.3f} >= 0.75 (target 1)")


def test_criterion_07_p2_degeneration():
    dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
    kv = uniform_knots(-1.1, 1.1, 8, 2)
    grid = TensorGrid(kv, kv)
    basis = build_web_basis(dom, grid)
    quad = build_quadrature(dom, grid, basis.cls, 3, 5)
    tables = BasisTables(basis, quad)
    f = lambda p: 4.0 + 1.0 - p[:, 0] ** 2 - p[:, 1] ** 2
    stiff = assemble_vcpe(basis, 1.0, 0.0, tables).matrix
    mass = assemble_mass(basis, tables)
    F = basis.coupling_matrix() @ linear_form(
        tables.segments, tables.cell_idx, tables.qw,
        [(f(quad.points), tables.wb)], tables.n_cols)
    c_lin = spla.spsolve((stiff + mass).tocsc(), F)
    sol = solve_plap(basis, 2.0, f, tables)
    diff = float(np.max(np.abs(sol.coeffs - c_lin)))
    assert diff <= 1e-9
    _passline(7, f"p=2 coefficient agreement {diff:.2e} <= 1e-9")


def test_criterion_08_jacobian_fd():
    dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
    kv = uniform_knots(-1.1, 1.1, 6, 2)
    grid = TensorGrid(kv, kv)
    basis = build_web_basis(dom, grid)
    quad = build_quadrature(dom, grid, basis.cls, 3, 5)
    tables = BasisTables(basis, quad)
    rng = np.random.default_rng(99)
    f_vals = np.sin(quad.points[:, 0] + 0.3 * quad.points[:, 1])
    worst = 0.0
    for p in (1.5, 3.0):
        for _ in range(5):
            c = rng.normal(size=basis.n_inner)
            d = rng.normal(size=basis.n_inner)
            d /= np.linalg.norm(d)
            J, _ = assemble_plap_jacobian_and_residual(
                basis, tables, c, p, 1e-1, f_vals)
            step = 1e-6
            fd = (PlapIterate(basis, tables, c + step * d, p, 1e-1, f_vals).residual
                  - PlapIterate(basis, tables, c - step * d, p, 1e-1,
                                f_vals).residual) / (2 * step)
            Jd = J @ d
            rel = np.linalg.norm(Jd - fd) / np.linalg.norm(Jd)
            worst = max(worst, rel)
    assert worst <= 1e-4
    _passline(8, f"Newton Jacobian vs directional FD, worst rel err "
                 f"{worst:.2e} <= 1e-4 (p in {{1.5, 3}}, 5 iterates each)")


def test_criterion_09_quasi_newtonian(suite):
    _, results = suite
    cfg, rep = results["stokes_carreau"]
    med = float(np.median(rep.eoc_table["combined"]))
    assert med >= 0.75
    worst_b = max(lv["incompressibility"] for lv in rep.levels)
    assert worst_b <= 1e-8
    infsup = [lv["infsup"] for lv in rep.levels]
    assert min(infsup) > 0.0
    ratio = min(infsup) / max(infsup)
    assert ratio >= 0.5
    _passline(9, f"Carreau mixed: combined EOC median {med:.3f} >= 0.75, "
                 f"max |b(u_h,q_h)| {worst_b:.1e} <= 1e-8, "
                 f"inf-sup {[f'{v:.3f}' for v in infsup]} ratio {ratio:.2f} >= 0.5")


def test_criterion_10_pressure_projection(suite):
    _, results = suite
    _, rep = results["pressure_projection"]
    med = float(np.median(rep.eoc_table["pressure_L2"]))
    assert med >= 0.9
    _passline(10, f"piecewise-constant pressure projection EOC median "
                  f"{med:.3f} >= 0.9")


def test_criterion_11_quadrature():
    dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
    one = lambda p: np.ones(p.shape[0])
    # area accuracy at cell width exactly 1/8
    kv = uniform_knots(-1.0625, 1.0625, 17, 1)
    grid = TensorGrid(kv, kv)
    cls = classify_cells(dom, grid)
    area = integrate(dom, grid, cls, one, g=3, depth=6)
    rel = abs(area - np.pi) / np.pi
    assert rel <= 1e-3
    # depth contraction on a coarser grid whose breakpoints are not tangent
    # to the circle (tangency makes individual depth errors flukey)
    kv = uniform_knots(-1.125, 1.125, 9, 1)
    grid = TensorGrid(kv, kv)
    cls = classify_cells(dom, grid)
    errors = [abs(integrate(dom, grid, cls, one, g=3, depth=d) - np.pi)
              for d in (3, 4, 5, 6)]
    contractions = [b / a for a, b in zip(errors, errors[1:])]
    assert max(contractions) <= 0.6
    _passline(11, f"disk area rel err {rel:.2e} <= 1e-3 at h=1/8, "
                  f"depth contractions {[f'{c:.2f}' for c in contractions]} <= 0.6")


def test_criterion_12_determinism(suite):
    out, results = suite

    def strip(payload):
        payload = json.loads(json.dumps(payload))
        payload.pop("timing", None)
        for lv in payload["levels"]:
            lv.pop("wall_time", None)
        return json.dumps(payload, sort_keys=True)

    for name, (cfg, _) in sorted(results.items()):
        code, _ = run(cfg, out_dir=str(out / "pass2"))
        assert code == 0
        first = json.loads((out / "pass1" / f"{name}.json").read_text())
        second = json.loads((out / "pass2" / f"{name}.json").read_text())
        assert strip(first) == strip(second), f"{name} report not reproducible"
    _passline(12, f"bit-identical reports (timing excluded) across two runs "
                  f"of all {len(results)} bundled configs")
