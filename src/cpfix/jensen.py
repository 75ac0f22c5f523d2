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
    PreconditionError,
    ToleranceConfig,
    herm_part,
    hermitize,
    mat_func,
    opnorm,
    require_finite,
)
from .channel import KrausFamily, apply_map, is_unital

__all__ = [
    "MARGIN_FACTOR",
    "EpsFunction",
    "IneqResidual",
    "f_eps_eval",
    "jensen_residual",
    "kadison_schwarz_residual",
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

    def require_margin(self, norm: float):
        if abs(self.eps) * norm > MARGIN_FACTOR:
            raise DomainError(
                f"spectrum of norm {norm:.6g} too close to the pole at "
                f"{self.pole_radius:.6g} (margin factor {MARGIN_FACTOR})"
            )


@dataclass(frozen=True)
class IneqResidual:
    """min eig of (rhs - lhs); verdict is min_eig >= ``cfg.psd_bound()``."""

    min_eig: float
    lhs_norm: float
    rhs_norm: float
    verdict: bool


def _residual(lhs: np.ndarray, rhs: np.ndarray, cfg: ToleranceConfig) -> IneqResidual:
    check = cfg.psd_check("residual", herm_part(rhs - lhs))
    # both sides are Hermitian by construction
    lhs_norm, rhs_norm = opnorm(herm_part(np.stack([lhs, rhs])), hermitian=True).tolist()
    return IneqResidual(
        min_eig=check.value,
        lhs_norm=lhs_norm,
        rhs_norm=rhs_norm,
        verdict=check.passed,
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


def jensen_residual(
    kf: KrausFamily, f: EpsFunction, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> IneqResidual:
    """Jensen operator inequality for a contractive column family.

    Residual of sum mu x* f(a) x - f(sum mu x* a x); the verdict must be
    true whenever sum mu x*x <= 1.  Note ||sum mu x* a x|| <= ||a||, so
    the left argument is automatically inside the domain.
    """
    msg = "family is not contractive: min eig of (I - sum mu x*x) = {:.3e}"
    cfg.psd_check("contractive", np.eye(kf.dim) - kf.column_sum, msg).require()
    h = hermitize(a, cfg)
    # operator convexity of f_eps lives on the symmetric interval
    f.require_margin(opnorm(h))
    with np.errstate(over="ignore", invalid="ignore"):
        f_h = require_finite("value f_eps(a)", f_eps_eval(f, h, cfg))
        lhs = require_finite("value f_eps(Phi(a))", f_eps_eval(f, herm_part(apply_map(kf, h)), cfg))
    rhs = herm_part(apply_map(kf, f_h))
    return _residual(lhs, rhs, cfg)


def kadison_schwarz_residual(
    kf: KrausFamily, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> IneqResidual:
    """Residual of Phi(a^2) - Phi(a)^2 for a unital family."""
    if not is_unital(kf, cfg):
        raise PreconditionError("Kadison-Schwarz check requires a unital family")
    h = hermitize(a, cfg)
    phi_a = apply_map(kf, h)
    with np.errstate(over="ignore", invalid="ignore"):
        h2 = require_finite("square a^2", h @ h)
        lhs = require_finite("square Phi(a)^2", phi_a @ phi_a)
    return _residual(lhs, apply_map(kf, h2), cfg)
