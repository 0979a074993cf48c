"""Acceptance gate: closed forms vs. oracles, exactness, trend reproduction.

Each criterion prints one PASS/FAIL line; the assertions carry the details.
The synthetic trend suite (criteria 9 and 10) shares one module-scoped run.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from rotavg.cli import default_loss_scale, main as cli_main
from rotavg.evaluate import align_rotations, auc
from rotavg.losses import (
    ALL_KINDS,
    LossSpec,
    chi_quantile,
    magsac_loss,
    magsac_weight,
    upper_incomplete_gamma,
)
from rotavg.so3 import (Rotation, canonical_quats, exp_so3, hat, quat_conj, quat_exp, quat_log,
                        quat_mul, quat_to_matrix)
from rotavg.solver import SolverConfig, solve
from rotavg.synth import SynthConfig, generate_graph, generate_two_view_scene
from rotavg.twoview import (
    covariance_of_rotation,
    fundamental_from_pose,
    rotation_jacobian,
    sampson_batch,
    whitener_from_covariance,
)
from rotavg.viewgraph import spanning_tree_init

from conftest import (
    marginal_weight_by_quadrature,
    moderate_rotation,
    random_pd_matrix,
    random_rotation,
    random_unit_vector,
    report_line,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:02d} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    report_line(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared synthetic trend suite (criteria 9 and 10)
# ---------------------------------------------------------------------------

SUITE_SEEDS = range(20)


def _suite_scene(seed):
    return generate_graph(SynthConfig(
        n_cameras=50,
        edge_density=0.25,
        noise_sigmas_deg=((0.5, 0.5), (0.5, 5.0)),
        outlier_fraction=0.10,
        seed=seed,
    ))


def _run_errors(scene, init, loss, weighting):
    config = SolverConfig(loss=loss, weighting=weighting)
    result = solve(scene.graph, init, config)
    gt = {nid: n.gt_rotation for nid, n in scene.graph.nodes.items()}
    alignment = align_rotations(result.rotations, gt)
    return np.array(sorted(alignment.per_view_errors.values()))


@pytest.fixture(scope="module")
def trend_suite():
    """Per-seed error sets for the weighting and loss ablations."""
    weighting_runs = {"cov_full": [], "inlier_count": [], "none": []}
    loss_runs = {kind: [] for kind in ALL_KINDS}
    for seed in SUITE_SEEDS:
        scene = _suite_scene(seed)
        init = spanning_tree_init(scene.graph, "auto")
        weighting_runs["cov_full"].append(
            _run_errors(scene, init, LossSpec("magsac", scale=3.0), "cov_full"))
        weighting_runs["inlier_count"].append(
            _run_errors(scene, init, LossSpec("magsac", scale=0.06), "inlier_count"))
        weighting_runs["none"].append(
            _run_errors(scene, init, LossSpec("soft_l1", scale=0.02), "none"))
        for kind in ALL_KINDS:
            loss_runs[kind].append(
                _run_errors(scene, init, LossSpec(kind, scale=0.02), "none"))
    return weighting_runs, loss_runs


# ---------------------------------------------------------------------------
# 1. MAGSAC closed form vs. quadrature of the marginal integral
# ---------------------------------------------------------------------------


def test_criterion_01_magsac_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for nu in (2, 3, 4):
        for alpha in (0.95, 0.99):
            for sigma_max in (0.02, 0.1, 1.0):
                spec = LossSpec("magsac", scale=sigma_max, nu=nu, alpha=alpha)
                for r in np.linspace(0.0, 1.5 * spec.cutoff, 41):
                    r_eval = max(float(r), 1e-9 * spec.cutoff)
                    dev = abs(magsac_weight(spec, r_eval)
                              - marginal_weight_by_quadrature(spec, r_eval))
                    worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    _report(1, "magsac-closed-form-vs-quadrature",
            worst < 1e-6 and elapsed < 10.0,
            f"max abs dev {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. loss shape
# ---------------------------------------------------------------------------


def test_criterion_02_loss_shape():
    start = time.perf_counter()
    ok = True
    for spec in (LossSpec("magsac", scale=0.02), LossSpec("magsac", scale=1.0, nu=4)):
        ok &= magsac_loss(spec, 0.0).value == 0.0
        grid = np.linspace(0.0, spec.cutoff, 1000)
        vals = [magsac_loss(spec, float(r)).value for r in grid]
        ok &= all(b > a for a, b in zip(vals, vals[1:]))
        beyond = [magsac_loss(spec, float(r)).value
                  for r in np.linspace(spec.cutoff, 4.0 * spec.cutoff, 100)]
        ok &= max(beyond) == min(beyond)
        eps = 1e-13 * spec.cutoff
        ok &= abs(magsac_loss(spec, spec.cutoff - eps).value - beyond[0]) < 1e-12
    elapsed = time.perf_counter() - start
    _report(2, "loss-shape", ok and elapsed < 1.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. special functions
# ---------------------------------------------------------------------------


def test_criterion_03_special_functions():
    oracle_k = math.sqrt(scipy.stats.chi2.ppf(0.99, 3))  # bisection-free oracle
    ok = abs(chi_quantile(3, 0.99) - 3.3682) < 1e-3
    ok &= abs(chi_quantile(3, 0.99) - oracle_k) < 1e-9
    for x in (0.0, 0.5, 1.0, 5.0):
        ok &= abs(upper_incomplete_gamma(1.0, x) - math.exp(-x)) < 1e-12
    quad, _ = scipy.integrate.quad(lambda t: math.sqrt(t) * math.exp(-t), 1.0, np.inf)
    ok &= abs(upper_incomplete_gamma(1.5, 1.0) - quad) < 1e-9
    _report(3, "special-functions", ok)


# ---------------------------------------------------------------------------
# 4. covariance propagation vs. Monte-Carlo oracle
# ---------------------------------------------------------------------------


def _sampson_and_jacobian(f, gens, x, y):
    """Signed Sampson residuals (D, N) of matches x <-> y (homogeneous, (D, N, 3))
    under F (D, 3, 3), and their Jacobian (D, N, K) along dF/d delta_k = gens[:, k]."""
    d, k = gens.shape[:2]
    fx = x @ np.swapaxes(f, 1, 2)                     # F x
    fty = y @ f                                       # F^T y
    num = y[..., 0] * fx[..., 0] + y[..., 1] * fx[..., 1] + fx[..., 2]
    den2 = fx[..., 0] ** 2 + fx[..., 1] ** 2 + fty[..., 0] ** 2 + fty[..., 1] ** 2
    den = np.sqrt(den2)
    # G_k x and G_k^T y of every k from one product each, (D, N, K, 3)
    gx = (x @ gens.transpose(0, 3, 1, 2).reshape(d, 3, 3 * k)).reshape(x.shape[:2] + (k, 3))
    gty = (y @ gens.transpose(0, 2, 1, 3).reshape(d, 3, 3 * k)).reshape(gx.shape)
    x, y, fx, fty = (v[:, :, None] for v in (x, y, fx, fty))
    dnum = y[..., 0] * gx[..., 0] + y[..., 1] * gx[..., 1] + gx[..., 2]
    dden2 = 2.0 * (fx[..., 0] * gx[..., 0] + fx[..., 1] * gx[..., 1]
                   + fty[..., 0] * gty[..., 0] + fty[..., 1] * gty[..., 1])
    jac = dnum / den[..., None] - (num / (2.0 * den2 * den))[..., None] * dden2
    return num / den, jac


def _mc_rotation_covariance(rot, clean, geom, draws, sigma, rng):
    """Sample covariance of Gauss-Newton-refined rotations over noise draws.

    All draws are refined at once: up to 4 Gauss-Newton steps on each draw's
    Sampson residuals, each draw frozen after its first step shorter than
    1e-12.  One normal() call draws the numbers one call per draw would.
    """
    noisy = clean + rng.normal(scale=sigma, size=(draws,) + clean.shape)
    ones = np.ones(noisy.shape[:2] + (1,))
    x = np.concatenate([noisy[..., :2], ones], axis=-1)
    y = np.concatenate([noisy[..., 2:], ones], axis=-1)
    left = geom.intrinsics_j.inverse.T
    right = hat(geom.translation) @ geom.intrinsics_i.inverse
    q = np.tile(rot.quaternion, (draws, 1))
    live = np.arange(draws)
    for _ in range(4):
        r = left @ quat_to_matrix(q[live])            # K_j^{-T} R
        f = r @ right
        gens = r[:, None] @ hat(np.eye(3)) @ right    # K_j^{-T} R [e_k]x [t]x K_i^{-1}
        res, j = _sampson_and_jacobian(f, gens, x[live], y[live])
        jt = np.swapaxes(j, 1, 2)
        step = np.linalg.solve(jt @ j, -(jt @ res[..., None]))[..., 0]
        q[live] = canonical_quats(quat_mul(q[live], quat_exp(step)))
        live = live[np.linalg.norm(step, axis=1) >= 1e-12]
    r0_inv = canonical_quats(quat_conj(rot.quaternion))
    deltas = quat_log(canonical_quats(quat_mul(r0_inv, q)))
    return np.cov(deltas.T)


def test_criterion_04_covariance_vs_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ratios = []
    analytic_off, mc_off = [], []
    off_idx = ([0, 0, 1], [1, 2, 2])
    for scene_id in range(20):
        rot = moderate_rotation(rng)
        t = random_unit_vector(rng)
        geom, clean, _ = generate_two_view_scene(
            n_points=100, pixel_sigma=0.0, rotation=rot, translation=t,
            seed=4000 + scene_id, scene_depth=float(rng.uniform(4.0, 8.0)),
            return_clean=True,
        )
        analytic = covariance_of_rotation(
            dataclasses.replace(geom, matches=clean), residual_sigma=1.0,
        )
        mc = _mc_rotation_covariance(rot, clean, geom, draws=2000, sigma=1.0, rng=rng)
        ratios.extend(np.diag(analytic) / np.diag(mc))
        analytic_off.extend(analytic[off_idx])
        mc_off.extend(mc[off_idx])
    corr = float(np.corrcoef(analytic_off, mc_off)[0, 1])
    elapsed = time.perf_counter() - start
    ok = all(0.5 <= r <= 2.0 for r in ratios) and corr > 0.9 and elapsed < 300.0
    _report(4, "covariance-vs-monte-carlo", ok,
            f"diag ratios [{min(ratios):.2f}, {max(ratios):.2f}], "
            f"off-diag corr {corr:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. Jacobian vs. central finite differences
# ---------------------------------------------------------------------------


def test_criterion_05_jacobian_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    h = 1e-6
    for scene_id in range(100):
        geom = generate_two_view_scene(
            n_points=30, pixel_sigma=1.0, rotation=moderate_rotation(rng),
            translation=random_unit_vector(rng), seed=5000 + scene_id,
            scene_depth=float(rng.uniform(3.0, 9.0)),
        )
        analytic = rotation_jacobian(geom)
        fd = np.empty_like(analytic)
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            gp = dataclasses.replace(geom, rotation=geom.rotation.compose(exp_so3(d)))
            gm = dataclasses.replace(geom, rotation=geom.rotation.compose(exp_so3(-d)))
            rp = sampson_batch(fundamental_from_pose(gp), geom.matches)
            rm = sampson_batch(fundamental_from_pose(gm), geom.matches)
            fd[:, k] = (rp - rm) / (2.0 * h)
        scale = max(np.abs(analytic).max(), 1e-12)
        worst = max(worst, float(np.max(np.abs(analytic - fd)) / scale))
    elapsed = time.perf_counter() - start
    _report(5, "jacobian-vs-finite-differences",
            worst < 1e-4 and elapsed < 30.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. whitening identity
# ---------------------------------------------------------------------------


def test_criterion_06_whitening_identity():
    rng = np.random.default_rng(66)
    ok = True
    for _ in range(1000):
        c = random_pd_matrix(rng)
        d = whitener_from_covariance(c)
        ok &= float(np.linalg.norm(d @ d.T @ c - np.eye(3))) / math.sqrt(3.0) < 1e-7
        r = rng.normal(size=3)
        lhs = float(np.sum((d.T @ r) ** 2))
        rhs = float(r @ np.linalg.solve(c, r))
        ok &= abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
    _report(6, "whitening-identity", ok)


# ---------------------------------------------------------------------------
# 7. exact recovery under every loss x weighting
# ---------------------------------------------------------------------------


def test_criterion_07_exact_recovery():
    start = time.perf_counter()
    scene = generate_graph(SynthConfig(10, 0.6, ((1.0, 0.0),), seed=4))
    gt = {nid: n.gt_rotation for nid, n in scene.graph.nodes.items()}
    init = spanning_tree_init(scene.graph, "auto")
    weightings = ("none", "inlier_count", "cov_trace", "cov_fro", "cov_full")
    worst = 0.0
    for kind in ALL_KINDS:
        for weighting in weightings:
            loss = LossSpec(kind, scale=default_loss_scale(weighting))
            result = solve(scene.graph, init, SolverConfig(loss=loss, weighting=weighting))
            errors = align_rotations(result.rotations, gt).per_view_errors
            worst = max(worst, max(errors.values()))
    elapsed = time.perf_counter() - start
    _report(7, "exact-recovery",
            worst < 1e-6 and elapsed < 60.0,
            f"max err {worst:.2e} deg over {len(ALL_KINDS) * len(weightings)} configs, "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. IRLS monotonicity
# ---------------------------------------------------------------------------


def test_criterion_08_irls_monotonicity():
    violations = 0
    for seed in range(50):
        scene = generate_graph(SynthConfig(
            10, 0.5, ((0.7, 1.0), (0.3, 6.0)), outlier_fraction=0.08, seed=seed,
        ))
        init = spanning_tree_init(scene.graph, "auto")
        costs = []
        for k in range(1, 7):
            config = SolverConfig(loss=LossSpec("magsac", scale=0.06),
                                  weighting="inlier_count", max_outer_irls=k)
            costs.append(solve(scene.graph, init, config).final_cost)
        violations += sum(b > a + 1e-12 for a, b in zip(costs, costs[1:]))
    _report(8, "irls-monotonicity", violations == 0,
            f"{violations} violations over 50 graphs")


# ---------------------------------------------------------------------------
# 9. weighting-ablation trend
# ---------------------------------------------------------------------------


def test_criterion_09_weighting_trend(trend_suite):
    weighting_runs, _ = trend_suite
    med = {name: [float(np.median(e)) for e in runs]
           for name, runs in weighting_runs.items()}
    ordered = sum(
        med["cov_full"][s] < med["inlier_count"][s] < med["none"][s]
        for s in range(len(list(SUITE_SEEDS)))
    )
    auc5 = {name: [auc(e, 5.0) for e in runs] for name, runs in weighting_runs.items()}
    gap = float(np.mean(auc5["cov_full"]) - np.mean(auc5["none"]))
    ok = ordered >= 15 and gap >= 10.0
    _report(9, "weighting-trend", ok,
            f"ordering {ordered}/20 seeds, mean AUC@5 gap {gap:.1f}")


# ---------------------------------------------------------------------------
# 10. loss-ablation trend
# ---------------------------------------------------------------------------


def test_criterion_10_loss_ablation(trend_suite):
    _, loss_runs = trend_suite
    auc2 = {kind: [auc(e, 2.0) for e in runs] for kind, runs in loss_runs.items()}
    wins = 0
    for s in range(len(list(SUITE_SEEDS))):
        best = max(auc2, key=lambda kind: auc2[kind][s])
        wins += best == "magsac"
    means = {kind: float(np.mean(vals)) for kind, vals in auc2.items()}
    runner_up = max(v for k, v in means.items() if k != "magsac")
    _report(10, "loss-ablation", wins >= 15,
            f"magsac best on {wins}/20 seeds, mean AUC@2 {means['magsac']:.1f} "
            f"vs best other {runner_up:.1f}")


# ---------------------------------------------------------------------------
# 11. evaluation correctness
# ---------------------------------------------------------------------------


def test_criterion_11_evaluation(trend_suite):
    ok = auc([1.0, 3.0], 5.0) == 60.0
    weighting_runs, _ = trend_suite
    for runs in weighting_runs.values():
        for errors in runs:
            vals = [auc(errors, t) for t in (2.0, 5.0, 10.0, 20.0)]
            ok &= all(b >= a for a, b in zip(vals, vals[1:]))
    rng = np.random.default_rng(11)
    gt = {i: random_rotation(rng) for i in range(25)}
    q = random_rotation(rng)
    est = {i: r.compose(q) for i, r in gt.items()}
    residual = max(align_rotations(est, gt).per_view_errors.values())
    ok &= residual < 1e-8
    _report(11, "evaluation-correctness", ok,
            f"global-rotation residual {residual:.1e} deg")


# ---------------------------------------------------------------------------
# 12. determinism
# ---------------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    for out in (g1, g2):
        rc = cli_main(["synth", "--cameras", "20", "--density", "0.4",
                       "--outliers", "0.1", "--seed", "3",
                       "--out", str(out)])
        assert rc == 0
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (r1, r2):
        rc = cli_main(["average", "--in", str(g1), "--loss", "magsac",
                       "--weighting", "cov_full",
                       "--out", str(out)])
        assert rc == 0
    ok = g1.read_bytes() == g2.read_bytes() and r1.read_bytes() == r2.read_bytes()
    _report(12, "determinism", ok, "byte-identical graph and result files")
