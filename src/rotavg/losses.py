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
:mod:`scipy.special` (``gammaincc``, ``gammainc``, ``gammaincinv``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy import special

__all__ = [
    "LossSpec",
    "LossEval",
    "classic_loss",
    "magsac_weight",
    "magsac_loss",
    "evaluate_loss",
    "upper_incomplete_gamma",
    "regularized_lower_gamma",
    "chi_quantile",
]

CLASSIC_KINDS = ("trivial", "huber", "soft_l1", "cauchy", "tukey", "gm", "l_half")
ALL_KINDS = CLASSIC_KINDS + ("magsac",)


# ---------------------------------------------------------------------------
# special functions (scipy.special, with the input checks of the loss model)
# ---------------------------------------------------------------------------


def _check_gamma_args(a: float, x: float) -> None:
    if a <= 0.0:
        raise ValueError("a must be positive")
    if x < 0.0:
        raise ValueError("x must be non-negative")


def regularized_lower_gamma(a: float, x: float) -> float:
    """P(a, x) = gamma(a, x) / Gamma(a)."""
    _check_gamma_args(a, x)
    return float(special.gammainc(a, x))


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Gamma(a, x) = integral_x^inf t^(a-1) e^(-t) dt."""
    _check_gamma_args(a, x)
    return float(special.gammaincc(a, x) * special.gamma(a))


@lru_cache(maxsize=None)
def chi_quantile(nu: int, alpha: float) -> float:
    """k with CDF_chi(nu)(k) = alpha, from the inverse regularized gamma."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
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
    ``k * sigma_max``.
    """

    kind: str
    scale: float = 1.0
    nu: int = 3
    alpha: float = 0.99

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; choose from {ALL_KINDS}")
        if not self.scale > 0.0:
            raise ValueError("loss scale must be positive")
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
    value: float
    weight: float


def classic_loss(spec: LossSpec, s: float) -> LossEval:
    """Classic robust losses on the squared residual; weight = d(rho)/ds."""
    if s < 0.0:
        raise ValueError("squared residual must be non-negative")
    c = spec.scale
    c2 = c * c
    kind = spec.kind
    if kind == "trivial":
        return LossEval(s, 1.0)
    if kind == "huber":
        if s <= c2:
            return LossEval(s, 1.0)
        root = math.sqrt(s)
        return LossEval(2.0 * c * root - c2, c / root)
    if kind == "soft_l1":
        u = math.sqrt(1.0 + s / c2)
        return LossEval(2.0 * c2 * (u - 1.0), 1.0 / u)
    if kind == "cauchy":
        return LossEval(c2 * math.log1p(s / c2), 1.0 / (1.0 + s / c2))
    if kind == "tukey":
        if s >= c2:
            return LossEval(c2 / 3.0, 0.0)
        u = 1.0 - s / c2
        return LossEval((c2 / 3.0) * (1.0 - u ** 3), u * u)
    if kind == "gm":
        d = c2 + s
        return LossEval(c2 * s / d, c2 * c2 / (d * d))
    if kind == "l_half":
        # scale-normalized power family with exponent 1/2 on the residual
        # norm: rho ~ s near zero, rho ~ sqrt(||r||) for large residuals
        u = 1.0 + s / c2
        return LossEval(4.0 * c2 * (u ** 0.25 - 1.0), u ** -0.75)
    raise ValueError(f"{kind!r} is not a classic loss")


@lru_cache(maxsize=128)
def _magsac_constants(spec: LossSpec) -> tuple[float, float, float, float]:
    """(amplitude, tail Gamma((nu-1)/2, k^2/2), w(0), cutoff) of a magsac spec."""
    # (1/sigma_max) * 2^((nu-1)/2) / (2^(nu/2) Gamma(nu/2))
    amplitude = 1.0 / (spec.scale * math.sqrt(2.0) * math.gamma(0.5 * spec.nu))
    a = 0.5 * (spec.nu - 1)
    tail = upper_incomplete_gamma(a, 0.5 * spec.k * spec.k)
    w0 = amplitude * (upper_incomplete_gamma(a, 0.0) - tail)
    return amplitude, tail, w0, spec.cutoff


def magsac_weight(spec: LossSpec, r: float) -> float:
    """Marginalized inlier weight; zero at and beyond r = k * sigma_max."""
    if spec.kind != "magsac":
        raise ValueError("magsac_weight requires a magsac LossSpec")
    if r < 0.0:
        raise ValueError("residual norm must be non-negative")
    amplitude, tail, _, cutoff = _magsac_constants(spec)
    if r >= cutoff:
        return 0.0
    a = 0.5 * (spec.nu - 1)
    x = r * r / (2.0 * spec.scale * spec.scale)
    return amplitude * (upper_incomplete_gamma(a, x) - tail)


def magsac_loss(spec: LossSpec, r: float) -> LossEval:
    """rho(r) = w(0) - w(r); IRLS weight = d(rho)/ds at s = r^2."""
    if r < 0.0:
        raise ValueError("residual norm must be non-negative")
    w_r = magsac_weight(spec, r)
    amplitude, _, w0, cutoff = _magsac_constants(spec)
    value = w0 - w_r
    if r >= cutoff:
        return LossEval(value, 0.0)
    # d(rho)/ds = A x^(a-1) e^(-x) / (2 sigma_max^2),  x = s / (2 sigma_max^2)
    a = 0.5 * (spec.nu - 1)
    sig2 = spec.scale * spec.scale
    x = r * r / (2.0 * sig2)
    if x == 0.0:
        if abs(a - 1.0) < 1e-12:
            grad = 1.0
        elif a > 1.0:
            grad = 0.0
        else:
            # nu = 2: the analytic limit diverges; evaluate at a small floor
            x_floor = 1e-16
            grad = x_floor ** (a - 1.0) * math.exp(-x_floor)
    else:
        grad = x ** (a - 1.0) * math.exp(-x)
    weight = amplitude * grad / (2.0 * sig2)
    return LossEval(value, max(0.0, weight))


def evaluate_loss(spec: LossSpec, s: float) -> LossEval:
    """Uniform entry point on the squared residual s = ||r||^2."""
    if spec.kind == "magsac":
        return magsac_loss(spec, math.sqrt(max(0.0, s)))
    return classic_loss(spec, s)
