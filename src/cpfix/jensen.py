"""Operator inequalities around the family f_eps(t) = t^2 / (1 - eps t).

Every inequality is reported as a signed residual: the minimum eigenvalue
of (right-hand side minus left-hand side).  Property tests need margins,
not verdicts, so the number is primary and the boolean derived.

f_eps is operator convex on the open interval (-1/|eps|, 1/|eps|) and
vanishes at zero, which is exactly what the Jensen operator inequality
for contractive column families requires.  Evaluation is refused within
1% of the pole: the conditioning of (1 - eps t)^{-1} degrades without
bound there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    DomainError,
    ToleranceConfig,
    herm_part,
    hermitize,
    mat_func,
    opnorm,
    psd_min_eig,
)
from .channel import KrausFamily, apply_map, normalization_report

__all__ = [
    "MARGIN_FACTOR",
    "EpsFunction",
    "IneqResidual",
    "f_eps_eval",
    "series_truncation_check",
    "jensen_residual",
    "midpoint_convexity_residual",
    "kadison_schwarz_residual",
    "lambda_domination_check",
]

MARGIN_FACTOR = 0.99


@dataclass(frozen=True)
class EpsFunction:
    """The scalar function t -> t^2 (1 - eps t)^{-1}."""

    eps: float

    def __call__(self, t: float) -> float:
        return t * t / (1.0 - self.eps * t)

    @property
    def pole_radius(self) -> float:
        return math.inf if self.eps == 0.0 else 1.0 / abs(self.eps)

    def domain(self) -> tuple[float, float]:
        r = self.pole_radius
        return (-r, r)

    def require_margin(self, norm: float):
        if abs(self.eps) * norm > MARGIN_FACTOR:
            raise DomainError(
                f"spectrum of norm {norm:.6g} too close to the pole at "
                f"{self.pole_radius:.6g} (margin factor {MARGIN_FACTOR})"
            )


@dataclass(frozen=True)
class IneqResidual:
    """min eig of (rhs - lhs); verdict is min_eig >= -psd_tol."""

    min_eig: float
    lhs_norm: float
    rhs_norm: float
    verdict: bool


def _residual(lhs: np.ndarray, rhs: np.ndarray, cfg: ToleranceConfig) -> IneqResidual:
    m = psd_min_eig(herm_part(rhs - lhs), cfg)
    return IneqResidual(
        min_eig=m,
        lhs_norm=opnorm(lhs),
        rhs_norm=opnorm(rhs),
        verdict=m >= -cfg.psd_tol,
    )


def f_eps_eval(f: EpsFunction, a, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Spectral evaluation of f_eps; equals a @ a when eps = 0.

    Only the pole side of the spectrum is margin-guarded: f_eps is
    analytic past the symmetric convexity interval on the other side, and
    the inequality operations impose the symmetric bound themselves.
    """
    h = hermitize(a, cfg)
    if f.eps > 0:
        domain = (-np.inf, MARGIN_FACTOR / f.eps)
    elif f.eps < 0:
        domain = (MARGIN_FACTOR / f.eps, np.inf)
    else:
        domain = None
    return mat_func(f, h, cfg, domain=domain)


def series_truncation_check(
    f: EpsFunction, a, n_terms: int, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Distance between f_eps(a) and its truncated power series.

    The series is a^2 + eps a^3 + eps^2 a^4 + ...; the return value is
    bounded by the geometric tail (|eps| ||a||)^{N+1} ||a||^2 / (1 - |eps| ||a||).
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    h = hermitize(a, cfg)
    f.require_margin(opnorm(h))
    exact = f_eps_eval(f, h, cfg)
    partial = np.zeros_like(h)
    power = h @ h
    for n in range(n_terms + 1):
        partial += (f.eps**n) * power
        power = power @ h
    return opnorm(exact - partial)


def jensen_residual(
    kf: KrausFamily, f: EpsFunction, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> IneqResidual:
    """Jensen operator inequality for a contractive column family.

    Residual of sum mu x* f(a) x - f(sum mu x* a x); the verdict must be
    true whenever sum mu x*x <= 1.  Note ||sum mu x* a x|| <= ||a||, so
    the left argument is automatically inside the domain.
    """
    rep = normalization_report(kf, cfg)
    contraction = psd_min_eig(np.eye(kf.dim) - rep.column_sum, cfg)
    if contraction < -cfg.psd_tol:
        raise ValueError(
            f"family is not contractive: min eig of (I - sum mu x*x) = {contraction:.3e}"
        )
    h = hermitize(a, cfg)
    # operator convexity of f_eps lives on the symmetric interval
    f.require_margin(opnorm(h))
    lhs = f_eps_eval(f, herm_part(apply_map(kf, h)), cfg)
    rhs = herm_part(apply_map(kf, f_eps_eval(f, h, cfg)))
    return _residual(lhs, rhs, cfg)


def midpoint_convexity_residual(
    f: EpsFunction, a, b, cfg: ToleranceConfig = DEFAULT_TOL
) -> IneqResidual:
    """Residual of (f(a) + f(b))/2 - f((a+b)/2)."""
    ha, hb = hermitize(a, cfg), hermitize(b, cfg)
    f.require_margin(max(opnorm(ha), opnorm(hb)))
    mid = (ha + hb) / 2.0
    lhs = f_eps_eval(f, mid, cfg)
    rhs = (f_eps_eval(f, ha, cfg) + f_eps_eval(f, hb, cfg)) / 2.0
    return _residual(lhs, rhs, cfg)


def kadison_schwarz_residual(
    kf: KrausFamily, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> IneqResidual:
    """Residual of Phi(a^2) - Phi(a)^2 for a unital family."""
    rep = normalization_report(kf, cfg)
    if not rep.is_unital:
        raise ValueError("Kadison-Schwarz check requires a unital family")
    h = hermitize(a, cfg)
    phi_a = apply_map(kf, h)
    lhs = phi_a @ phi_a
    rhs = apply_map(kf, h @ h)
    return _residual(lhs, rhs, cfg)


def lambda_domination_check(
    f: EpsFunction, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> IneqResidual:
    """Residual of lambda a - f_eps(a) with lambda = ||a|| (1 - |eps| ||a||)^{-1}.

    Valid for positive semidefinite a inside the pole margin.
    """
    h = hermitize(a, cfg)
    if psd_min_eig(h, cfg) < -cfg.psd_tol:
        raise ValueError("lambda domination requires a positive semidefinite operator")
    norm = opnorm(h)
    f.require_margin(norm)
    lam = norm / (1.0 - abs(f.eps) * norm)
    return _residual(f_eps_eval(f, h, cfg), lam * h, cfg)
