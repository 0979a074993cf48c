"""Robust losses: closed forms vs. quadrature/hand oracles, IRLS shape."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rotavg.losses import (
    ALL_KINDS,
    CLASSIC_KINDS,
    LossSpec,
    chi_quantile,
    classic_loss,
    evaluate_loss,
    magsac_loss,
    magsac_weight,
    upper_incomplete_gamma,
)

from conftest import marginal_weight_by_quadrature


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def test_upper_gamma_a_one_closed_form():
    for x in (0.0, 1.0, 5.0):
        assert abs(upper_incomplete_gamma(1.0, x) - math.exp(-x)) < 1e-12


def test_upper_gamma_complete_value():
    assert abs(upper_incomplete_gamma(1.5, 0.0) - math.sqrt(math.pi) / 2.0) < 1e-12


def test_upper_gamma_vs_quadrature():
    for a, x in ((1.5, 1.0), (0.5, 0.3), (2.0, 4.0), (1.0, 2.5)):
        oracle, _ = scipy.integrate.quad(
            lambda t: t ** (a - 1.0) * math.exp(-t), x, np.inf
        )
        assert abs(upper_incomplete_gamma(a, x) - oracle) < 1e-9


def test_gamma_input_validation():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(1.0, -1.0)
    with pytest.raises(ValueError, match="nu must be >= 1"):
        chi_quantile(0, 0.9)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
        chi_quantile(3, 1.0)


def test_chi_quantile_values():
    # one-sigma of |N(0,1)|
    assert abs(chi_quantile(1, 0.682689) - 1.0) < 1e-4
    # sqrt of the 0.99 quantile of chi-squared with 3 dof
    assert abs(chi_quantile(3, 0.99) - 3.3682) < 1e-3
    assert chi_quantile(3, 0.95) < chi_quantile(3, 0.99)


def test_chi_quantile_vs_scipy():
    for nu in (1, 2, 3, 4, 9):
        for alpha in (0.6, 0.9, 0.95, 0.99):
            oracle = math.sqrt(scipy.stats.chi2.ppf(alpha, nu))
            assert abs(chi_quantile(nu, alpha) - oracle) < 1e-9


# ---------------------------------------------------------------------------
# classic losses
# ---------------------------------------------------------------------------


def test_classic_loss_hand_values():
    ev = classic_loss(LossSpec("trivial"), 0.09)
    assert ev.value == 0.09 and ev.weight == 1.0
    ev = classic_loss(LossSpec("huber", scale=1.0), 0.25)
    assert ev.value == 0.25 and ev.weight == 1.0  # quadratic branch
    ev = classic_loss(LossSpec("cauchy", scale=1.0), 1.0)
    assert abs(ev.value - math.log(2.0)) < 1e-15
    assert abs(ev.weight - 0.5) < 1e-15


def test_classic_losses_zero_at_zero_and_unit_weight():
    for kind in CLASSIC_KINDS:
        spec = LossSpec(kind, scale=0.3)
        ev = classic_loss(spec, 0.0)
        assert ev.value == 0.0
        assert abs(ev.weight - 1.0) < 1e-12


def test_classic_losses_monotone_in_s():
    grid = np.linspace(0.0, 4.0, 400)
    for kind in CLASSIC_KINDS:
        spec = LossSpec(kind, scale=0.5)
        vals = [classic_loss(spec, float(s)).value for s in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(classic_loss(spec, float(s)).weight >= 0.0 for s in grid)


def test_classic_weight_is_derivative_of_value():
    h = 1e-6
    for kind in CLASSIC_KINDS:
        spec = LossSpec(kind, scale=0.7)
        for s in (0.01, 0.2, 0.48, 0.5, 2.0):
            fd = (classic_loss(spec, s + h).value - classic_loss(spec, s - h).value) / (2 * h)
            w = classic_loss(spec, s).weight
            assert abs(fd - w) < 1e-5, (kind, s)


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("nope")
    with pytest.raises(ValueError):
        LossSpec("cauchy", scale=0.0)
    for kind in ("cauchy", "magsac"):
        for scale in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="loss scale must be positive and finite"):
                LossSpec(kind, scale=scale)
        # finite scales whose square overflows or is not a normal float
        for scale in (1e300, 1e-300, 1e-160):
            with pytest.raises(ValueError, match="its square must be finite and at least"):
                LossSpec(kind, scale=scale)
    for scale in (1e150, 1.5e-154):
        assert LossSpec("cauchy", scale=scale).scale == scale
    with pytest.raises(ValueError):
        LossSpec("magsac", nu=1)
    with pytest.raises(ValueError):
        LossSpec("magsac", alpha=0.4)
    with pytest.raises(ValueError):
        classic_loss(LossSpec("huber"), -0.1)
    with pytest.raises(ValueError, match="'magsac' is not a classic loss"):
        classic_loss(LossSpec("magsac"), 1.0)
    with pytest.raises(ValueError, match="magsac_weight requires a magsac LossSpec"):
        magsac_weight(LossSpec("cauchy"), 1.0)


# ---------------------------------------------------------------------------
# marginalized loss vs. quadrature oracle
# ---------------------------------------------------------------------------


def test_magsac_weight_matches_quadrature():
    spec = LossSpec("magsac", scale=0.1, nu=3, alpha=0.99)
    for r in np.linspace(0.0, 1.5 * spec.cutoff, 31):
        r_eval = max(float(r), 1e-9 * spec.cutoff)
        oracle = marginal_weight_by_quadrature(spec, r_eval)
        assert abs(magsac_weight(spec, r_eval) - oracle) < 1e-6


def test_magsac_hand_values_nu3_sigma1():
    spec = LossSpec("magsac", scale=1.0, nu=3, alpha=0.99)
    k = spec.k
    amp = 2.0 / math.sqrt(2.0 * math.pi)
    # Gamma(1, x) = e^{-x} collapses the closed form to exponentials
    assert abs(magsac_weight(spec, 0.0) - amp * (1.0 - math.exp(-k * k / 2.0))) < 1e-12
    assert abs(magsac_weight(spec, 0.0) - 0.7951) < 1e-3
    assert abs(magsac_loss(spec, 1.0).value - amp * (1.0 - math.exp(-0.5))) < 1e-12
    assert abs(magsac_loss(spec, 1.0).value - 0.31398) < 1e-4


def test_magsac_zero_branch_and_saturation():
    spec = LossSpec("magsac", scale=0.02, nu=3, alpha=0.99)
    assert magsac_weight(spec, spec.cutoff) == 0.0
    assert magsac_weight(spec, 2.0 * spec.cutoff) == 0.0
    assert magsac_loss(spec, 0.0).value == 0.0
    sat = magsac_loss(spec, spec.cutoff).value
    assert abs(sat - magsac_weight(spec, 0.0)) < 1e-15
    assert magsac_loss(spec, 10.0 * spec.cutoff).value == sat
    assert magsac_loss(spec, 2.0 * spec.cutoff).weight == 0.0


def test_magsac_continuity_at_cutoff():
    for nu in (2, 3, 4):
        spec = LossSpec("magsac", scale=0.5, nu=nu, alpha=0.99)
        eps = 1e-13 * spec.cutoff
        assert abs(magsac_weight(spec, spec.cutoff - eps)) < 1e-12
        below = magsac_loss(spec, spec.cutoff - eps).value
        above = magsac_loss(spec, spec.cutoff).value
        assert abs(below - above) < 1e-12


def test_magsac_strictly_increasing_then_constant():
    spec = LossSpec("magsac", scale=0.02, nu=3, alpha=0.99)
    grid = np.linspace(0.0, spec.cutoff, 1000)
    vals = [magsac_loss(spec, float(r)).value for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    beyond = [magsac_loss(spec, float(r)).value for r in
              np.linspace(spec.cutoff, 3 * spec.cutoff, 50)]
    assert max(beyond) - min(beyond) == 0.0


def test_magsac_weight_non_increasing():
    for nu in (2, 3, 4):
        spec = LossSpec("magsac", scale=0.3, nu=nu, alpha=0.95)
        grid = np.linspace(0.0, 1.2 * spec.cutoff, 500)
        ws = [magsac_weight(spec, float(r)) for r in grid]
        assert all(b <= a + 1e-15 for a, b in zip(ws, ws[1:]))


def test_magsac_irls_weight_is_derivative():
    spec = LossSpec("magsac", scale=1.0, nu=3, alpha=0.99)
    h = 1e-7
    for r in (0.3, 1.0, 2.5):
        s = r * r
        fd = (magsac_loss(spec, math.sqrt(s + h)).value
              - magsac_loss(spec, math.sqrt(s - h)).value) / (2 * h)
        assert abs(fd - magsac_loss(spec, r).weight) < 1e-6


def test_evaluate_loss_dispatch():
    s = 0.04
    assert evaluate_loss(LossSpec("cauchy", scale=0.5), s).value == \
        classic_loss(LossSpec("cauchy", scale=0.5), s).value
    spec = LossSpec("magsac", scale=0.1)
    assert evaluate_loss(spec, s).value == magsac_loss(spec, math.sqrt(s)).value


# ---------------------------------------------------------------------------
# array evaluation and input checks
# ---------------------------------------------------------------------------


_ARRAY_SPECS = [LossSpec(kind, scale=0.5) for kind in ALL_KINDS] + [
    LossSpec("magsac", scale=0.5, nu=2)]


@pytest.mark.parametrize("spec", _ARRAY_SPECS, ids=lambda spec: f"{spec.kind}-nu{spec.nu}")
def test_array_call_matches_scalar_calls(spec):
    c2 = spec.scale ** 2
    cut = LossSpec("magsac", scale=spec.scale, nu=spec.nu).cutoff
    s = np.concatenate([
        [0.0, 1e-300, 1e-12, c2 * (1.0 - 1e-15), c2, c2 * (1.0 + 1e-15)],
        # on, just below and beyond the magsac cutoff
        [cut * cut, (cut * (1.0 - 1e-13)) ** 2, (cut * (1.0 + 1e-13)) ** 2, 4.0 * cut * cut],
        np.linspace(0.0, 3.0 * cut * cut, 100),
    ]).reshape(10, 11)
    ev = evaluate_loss(spec, s)
    assert ev.value.shape == s.shape and ev.weight.shape == s.shape
    for idx in np.ndindex(s.shape):
        one = evaluate_loss(spec, float(s[idx]))
        assert np.ndim(one.value) == 0 and np.ndim(one.weight) == 0
        np.testing.assert_allclose(ev.value[idx], one.value, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(ev.weight[idx], one.weight, rtol=1e-15, atol=0.0)
    if spec.kind == "magsac":
        r = np.sqrt(s)
        w = magsac_weight(spec, r)
        assert w.shape == s.shape
        assert all(w[idx] == magsac_weight(spec, float(r[idx])) for idx in np.ndindex(s.shape))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_negative_input_raises_and_nan_passes_through(kind):
    spec = LossSpec(kind, scale=3.0)
    for bad in (-0.1, np.array([0.5, -1e-300])):
        with pytest.raises(ValueError):
            evaluate_loss(spec, bad)
    assert math.isnan(evaluate_loss(spec, float("nan")).value)
    ev = evaluate_loss(spec, np.array([0.5, np.nan]))
    assert math.isfinite(ev.value[0]) and math.isnan(ev.value[1])
    if kind == "magsac":
        assert math.isnan(evaluate_loss(spec, float("nan")).weight)
        with pytest.raises(ValueError):
            magsac_weight(spec, np.array([1.0, -1.0]))


# ---------------------------------------------------------------------------
# IRLS non-increase on a scalar location model
# ---------------------------------------------------------------------------


def _location_cost(spec, x, ys):
    return sum(evaluate_loss(spec, float((x - y) ** 2)).value for y in ys)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_irls_step_never_increases_location_cost(kind):
    rng = np.random.default_rng(42)
    spec = LossSpec(kind, scale=0.5)
    for _ in range(100):
        ys = rng.normal(scale=1.0, size=12)
        ys[: rng.integers(0, 4)] += rng.choice([-1, 1]) * 8.0  # outliers
        x = float(np.median(ys))
        before = _location_cost(spec, x, ys)
        weights = np.array([
            evaluate_loss(spec, float((x - y) ** 2)).weight for y in ys
        ])
        if weights.sum() <= 0.0:
            continue  # every point trimmed; IRLS step undefined
        x_new = float(np.sum(weights * ys) / np.sum(weights))
        after = _location_cost(spec, x_new, ys)
        assert after <= before + 1e-12


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_KINDS),
    st.floats(1e-3, 10.0),
    st.floats(0.0, 100.0),
)
def test_loss_outputs_are_sane(kind, scale, s):
    ev = evaluate_loss(LossSpec(kind, scale=scale), s)
    assert ev.value >= 0.0
    assert ev.weight >= 0.0
    assert math.isfinite(ev.value) and math.isfinite(ev.weight)
