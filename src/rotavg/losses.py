"""Robust loss family for the averaging objective.

Classic losses are defined on the squared residual ``s = ||r||^2`` with the
IRLS weight ``w = d(rho)/ds`` (so ``w(0) = 1`` for every scale-normalized
loss).  The marginalized loss integrates the trimmed chi density of the
residual over a uniform prior on the noise scale ``sigma in [0, sigma_max]``,
which has a closed form in upper incomplete gamma functions:

    w(r) = 1/(sigma_max sqrt(2) Gamma(nu/2))
           * ( Gamma((nu-1)/2, r^2 / (2 sigma_max^2)) - Gamma((nu-1)/2, k^2/2) )

for ``0 <= r < k sigma_max`` and ``w(r) = 0`` beyond, where ``k`` is the
alpha-quantile of the chi distribution with ``nu`` degrees of freedom.  The
loss itself is ``rho(r) = w(0) - w(r)``: zero at zero, strictly increasing
up to the cutoff, constant after it.

The incomplete gamma functions and the chi quantile come from
:mod:`scipy.special` (``gammaincc``, ``gammaincinv``), imported where it is
called, so ``rotavg synth``, ``weigh`` and ``evaluate`` never load scipy.

Every loss function takes a scalar or an array and returns fields shaped
like its input, so a solver evaluates all edges in one call.  A negative
entry raises ``ValueError``; a NaN entry gives a NaN value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "LossSpec",
    "LossEval",
    "classic_loss",
    "magsac_weight",
    "magsac_loss",
    "evaluate_loss",
    "upper_incomplete_gamma",
    "chi_quantile",
]

CLASSIC_KINDS = ("trivial", "huber", "soft_l1", "cauchy", "tukey", "gm", "l_half")
ALL_KINDS = CLASSIC_KINDS + ("magsac",)


# ---------------------------------------------------------------------------
# special functions (scipy.special, with the input checks of the loss model)
# ---------------------------------------------------------------------------


def upper_incomplete_gamma(a: float, x):
    """Gamma(a, x) = integral_x^inf t^(a-1) e^(-t) dt, shaped like ``x``:
    a float for a scalar, an array for an array."""
    if a <= 0.0:
        raise ValueError("a must be positive")
    x = _non_negative(x, "x")
    from scipy import special
    return (special.gammaincc(a, x) * special.gamma(a))[()]


def check_scale(value, name, unfit) -> None:
    """Raise ValueError(``unfit``) unless ``value`` is positive and finite, and one naming
    ``name`` unless its square is a finite normal float, which scales without overflow."""
    if not 0.0 < value < math.inf:
        raise ValueError(unfit)
    if not sys.float_info.min <= float(value) * float(value) < math.inf:
        raise ValueError(f"{name} {value!r} is out of range: its square must be finite and at "
                         f"least the smallest normal float {sys.float_info.min!r}")


@lru_cache(maxsize=None)
def chi_quantile(nu: int, alpha: float) -> float:
    """k with CDF_chi(nu)(k) = alpha, from the inverse regularized gamma."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    from scipy import special
    return math.sqrt(2.0 * float(special.gammaincinv(0.5 * nu, alpha)))


# ---------------------------------------------------------------------------
# loss specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossSpec:
    """Robust loss choice.

    ``scale`` is the residual-norm scale in the units of the weighted
    residual (radians when unweighted).  For the marginalized loss it is
    ``sigma_max``; ``nu`` and ``alpha`` fix the chi quantile cutoff
    ``k * sigma_max``; the solver takes only ``nu = 3`` (see :mod:`rotavg.solver`).
    """

    kind: str
    scale: float = 1.0
    nu: int = 3
    alpha: float = 0.99

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; choose from {ALL_KINDS}")
        check_scale(self.scale, "loss scale", "loss scale must be positive and finite")
        if self.kind == "magsac":
            if self.nu < 2 or int(self.nu) != self.nu:
                raise ValueError("nu must be an integer >= 2")
            if not 0.5 < self.alpha < 1.0:
                raise ValueError("alpha must be in (0.5, 1)")
            # touch the cache so the quantile is computed once up front
            chi_quantile(self.nu, self.alpha)

    @property
    def k(self) -> float:
        """Chi-quantile cutoff factor (magsac only)."""
        return chi_quantile(self.nu, self.alpha)

    @property
    def cutoff(self) -> float:
        """Residual norm k * sigma_max beyond which the weight is zero."""
        return self.k * self.scale


@dataclass(frozen=True)
class LossEval:
    """Loss value rho(s) and IRLS weight d(rho)/ds.

    Both fields are shaped like the input: floats for a scalar, arrays of
    the same shape for an array.
    """

    value: float | np.ndarray
    weight: float | np.ndarray


def _non_negative(x, what: str) -> np.ndarray:
    """``x`` as a float array; raises on any negative entry, passes NaN through."""
    x = np.array(x, dtype=np.float64)
    if np.any(x < 0.0):
        raise ValueError(f"{what} must be non-negative")
    return x


def _loss_eval(value, weight) -> LossEval:
    """LossEval whose 0-d fields are unwrapped to scalars."""
    return LossEval(value[()], weight[()])


def classic_loss(spec: LossSpec, s) -> LossEval:
    """Classic robust losses on the squared residual; weight = d(rho)/ds."""
    s = _non_negative(s, "squared residual")
    c = spec.scale
    c2 = c * c
    kind = spec.kind
    if kind == "trivial":
        return _loss_eval(s, np.ones_like(s))
    if kind == "huber":
        inside = s <= c2
        root = np.sqrt(s)
        with np.errstate(divide="ignore"):
            return _loss_eval(np.where(inside, s, 2.0 * c * root - c2),
                              np.where(inside, 1.0, c / root))
    if kind == "soft_l1":
        u = np.sqrt(1.0 + s / c2)
        return _loss_eval(2.0 * c2 * (u - 1.0), 1.0 / u)
    if kind == "cauchy":
        return _loss_eval(c2 * np.log1p(s / c2), 1.0 / (1.0 + s / c2))
    if kind == "tukey":
        beyond = s >= c2
        t = s / c2
        u = 1.0 - t
        # 1 - u^3 = t (1 + u + u^2): no cancellation near 0, and no numpy pow,
        # which rounds differently for arrays and scalars
        return _loss_eval(np.where(beyond, c2 / 3.0, (c2 / 3.0) * (t * (1.0 + u + u * u))),
                          np.where(beyond, 0.0, u * u))
    if kind == "gm":
        d = c2 + s
        return _loss_eval(c2 * s / d, c2 * c2 / (d * d))
    if kind == "l_half":
        # scale-normalized power family with exponent 1/2 on the residual
        # norm: rho ~ s near zero, rho ~ sqrt(||r||) for large residuals
        # u^(1/4) - 1 = t / ((u^(1/4) + 1)(u^(1/2) + 1)), u = 1 + t: as for tukey
        t = s / c2
        root = np.sqrt(1.0 + t)
        quarter = np.sqrt(root)
        return _loss_eval(4.0 * c2 * t / ((quarter + 1.0) * (root + 1.0)),
                          1.0 / (root * quarter))
    raise ValueError(f"{kind!r} is not a classic loss")


@lru_cache(maxsize=128)
def _magsac_constants(spec: LossSpec) -> tuple[float, float, float, float, float]:
    """(amplitude, a = (nu-1)/2, tail Gamma(a, k^2/2), w(0), cutoff) of a magsac spec."""
    # (1/sigma_max) * 2^((nu-1)/2) / (2^(nu/2) Gamma(nu/2))
    amplitude = 1.0 / (spec.scale * math.sqrt(2.0) * math.gamma(0.5 * spec.nu))
    a = 0.5 * (spec.nu - 1)
    tail = upper_incomplete_gamma(a, 0.5 * spec.k * spec.k)
    w0 = amplitude * (upper_incomplete_gamma(a, 0.0) - tail)
    return amplitude, a, tail, w0, spec.cutoff


def magsac_weight(spec: LossSpec, r) -> float | np.ndarray:
    """Marginalized inlier weight; zero at and beyond r = k * sigma_max."""
    if spec.kind != "magsac":
        raise ValueError("magsac_weight requires a magsac LossSpec")
    r = _non_negative(r, "residual norm")
    amplitude, a, tail, _, cutoff = _magsac_constants(spec)
    w = amplitude * (upper_incomplete_gamma(a, r * r / (2.0 * spec.scale * spec.scale)) - tail)
    return np.where(r >= cutoff, 0.0, w)[()]


def magsac_loss(spec: LossSpec, r) -> LossEval:
    """rho(r) = w(0) - w(r); IRLS weight = d(rho)/ds at s = r^2."""
    w_r = magsac_weight(spec, r)
    r = np.asarray(r, dtype=np.float64)
    amplitude, a, _, w0, cutoff = _magsac_constants(spec)
    # d(rho)/ds = A x^(a-1) e^(-x) / (2 sigma_max^2),  x = s / (2 sigma_max^2)
    sig2 = spec.scale * spec.scale
    x = r * r / (2.0 * sig2)
    if a < 1.0:
        # nu = 2: the analytic limit at x = 0 diverges; evaluate at a small floor
        x = np.where(x == 0.0, 1e-16, x)
    weight = amplitude * (x ** (a - 1.0) * np.exp(-x)) / (2.0 * sig2)
    return _loss_eval(w0 - w_r, np.where(r >= cutoff, 0.0, weight))


def evaluate_loss(spec: LossSpec, s) -> LossEval:
    """Uniform entry point on the squared residual s = ||r||^2."""
    if spec.kind == "magsac":
        return magsac_loss(spec, np.sqrt(_non_negative(s, "squared residual")))
    return classic_loss(spec, s)
