"""Executable verification pipelines for the fixed-point results.

The main pipeline replays the commutation argument as numerical checks,
in proof order: hypotheses, the trace inequality, fixedness of a, of
f_eps(a), of the powers a^n, of every spectral projection, and finally
the commutators [a, x_t] themselves.  A companion peeling pipeline walks
the eigenprojection-by-eigenprojection argument for self-adjoint
families, and an explorer probes what happens when hypotheses are
dropped.

Conclusion residuals (projections, off-diagonal blocks, commutators) are
allowed a 100x slack over eq_tol: eigenprojections of a computed matrix
carry more noise than direct arithmetic, and a claimed counterexample
must sit far above rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    SpectralDecomposition,
    ToleranceConfig,
    commutator,
    herm_eig,
    herm_part,
    hermitize,
    mat_func,
    opnorm,
    psd_min_eig,
    rel_scale,
)
from .channel import (
    KrausFamily,
    NormalizationReport,
    apply_map,
    fixed_space_basis,
    normalization_report,
)
from .algebra import (
    BlockAlgebra,
    MembershipError,
    invariance_check,
    trace_tau,
)
from .io import channel_to_obj, matrix_to_obj
from .jensen import EpsFunction

__all__ = [
    "PreconditionError",
    "CONCLUSION_SLACK",
    "TheoremReport",
    "PeelStep",
    "PeelTrace",
    "TrialConfig",
    "ExplorationReport",
    "trace_inequality_check",
    "trace_chain_residual",
    "theorem_verify",
    "corollary_verify",
    "power_fixed_check",
    "spectral_peel",
    "haar_unitary",
    "random_bistochastic",
    "random_selfadjoint_family",
    "hypothesis_explorer",
]

# Slack factor on eq_tol for residuals derived through an eigensolver.
CONCLUSION_SLACK = 100.0


class PreconditionError(ValueError):
    """A named hypothesis of a verification pipeline is violated."""


def _trace_chain(
    alg: BlockAlgebra, dec: SpectralDecomposition, tau_phi: float, row_sum: np.ndarray
) -> float:
    # negative rounding noise in the spectrum is clamped to zero
    root = dec.apply(lambda t: np.sqrt(max(t, 0.0)))
    # no membership check: root e root may leave the algebra
    return abs(tau_phi - alg.trace(root @ row_sum @ root))


def trace_chain_residual(
    kf: KrausFamily, alg: BlockAlgebra, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """|tau(Phi(a)) - tau(a^{1/2} e a^{1/2})|, the swap behind the trace inequality."""
    h = hermitize(a, cfg)
    tau_phi = trace_tau(alg, apply_map(kf, h), cfg)
    return _trace_chain(alg, herm_eig(h, cfg), tau_phi, normalization_report(kf, cfg).row_sum)


def _trace_gap(
    alg: BlockAlgebra,
    h: np.ndarray,
    dec: SpectralDecomposition,
    phi_h: np.ndarray,
    rep: NormalizationReport,
    cfg: ToleranceConfig,
) -> tuple[float, float]:
    """(tau(h), trace gap) of a positive ``h`` in the algebra; spectrum, image and report given."""
    if not rep.is_subunital_dual:
        raise PreconditionError("family violates sum mu x x* <= 1")
    try:
        tau_phi = trace_tau(alg, phi_h, cfg)
    except MembershipError as exc:
        raise PreconditionError(f"Phi(a) is not in the algebra: {exc}") from exc
    tau_a = alg.trace(h)
    chain = _trace_chain(alg, dec, tau_phi, rep.row_sum)
    if chain > cfg.eq_tol * max(1.0, abs(tau_a)):
        raise PreconditionError(
            f"trace chain broken: |tau(Phi(a)) - tau(sqrt(a) e sqrt(a))| = {chain:.3e}"
        )
    return tau_a, tau_a - tau_phi


def trace_inequality_check(
    kf: KrausFamily, alg: BlockAlgebra, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """The trace gap tau(a) - tau(Phi(a)), guaranteed >= 0 when e <= 1.

    Also recomputes tau(a^{1/2} e a^{1/2}) independently and insists it
    matches tau(Phi(a)); a mismatch means the tracial swap itself failed
    and is raised rather than returned.
    """
    h = hermitize(a, cfg)
    if psd_min_eig(h, cfg) < -cfg.psd_tol:
        raise PreconditionError("a must be positive semidefinite")
    if not alg.contains(h, cfg):
        raise PreconditionError("a is not in the algebra")
    rep = normalization_report(kf, cfg)
    return _trace_gap(alg, h, herm_eig(h, cfg), apply_map(kf, h), rep, cfg)[1]


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Structured verdict of the main verification pipeline.

    Residuals stay None or empty when the hypotheses already fail: the
    conclusion is then not asserted at all.
    """

    hypotheses: dict[str, bool]
    trace_gap: float | None = None
    fixedness_residual: float | None = None
    f_eps_residuals: list[float] = field(default_factory=list)
    power_residuals: list[float] = field(default_factory=list)
    projection_residuals: list[float] = field(default_factory=list)
    offdiag_residuals: list[float] = field(default_factory=list)
    commutator_residuals: list[float] = field(default_factory=list)
    verdict: bool = False
    failures: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "hypotheses": {k: bool(v) for k, v in self.hypotheses.items()},
            "residuals": {
                "traceGap": self.trace_gap,
                "fixedness": self.fixedness_residual,
                "fEps": list(self.f_eps_residuals),
                "powers": list(self.power_residuals),
                "projections": list(self.projection_residuals),
                "offDiagonal": list(self.offdiag_residuals),
                "commutators": list(self.commutator_residuals),
            },
            "failures": list(self.failures),
        }


def theorem_verify(
    kf: KrausFamily,
    alg: BlockAlgebra,
    a,
    cfg: ToleranceConfig = DEFAULT_TOL,
    powers: int = 8,
) -> TheoremReport:
    """Run the full fixed-point argument as a sequence of numerical checks.

    Hypothesis failures are reported, never raised; conclusion residuals
    are only computed (and asserted) once every hypothesis holds.
    """
    h = hermitize(a, cfg)
    rep = normalization_report(kf, cfg)
    return _theorem(kf, alg, h, apply_map(kf, h), rep, cfg, powers)


def _theorem(
    kf: KrausFamily,
    alg: BlockAlgebra,
    h: np.ndarray,
    phi_h: np.ndarray,
    rep: NormalizationReport,
    cfg: ToleranceConfig,
    powers: int,
) -> TheoremReport:
    """Hypotheses and conclusion stages for a hermitized ``h``, its image and the report."""
    hypotheses = {
        "unital": rep.is_unital,
        "subunitalDual": rep.is_subunital_dual,
        "invariance": invariance_check(kf, alg, cfg),
        "aInAlgebra": alg.contains(h, cfg),
        "aPositive": psd_min_eig(h, cfg) >= -cfg.psd_tol,
        "superFixed": psd_min_eig(herm_part(phi_h - h), cfg) >= -cfg.psd_tol,
    }
    failures = [f"hypothesis failed: {k}" for k, v in hypotheses.items() if not v]
    if failures:
        return TheoremReport(hypotheses, verdict=False, failures=failures)

    dec = herm_eig(h, cfg)
    norm_h = opnorm(h)
    scale = max(1.0, norm_h)
    loose = CONCLUSION_SLACK * cfg.eq_tol

    tau_a, trace_gap = _trace_gap(alg, h, dec, phi_h, rep, cfg)
    if trace_gap < -cfg.eq_tol * max(1.0, abs(tau_a)):
        failures.append(f"trace gap negative: {trace_gap:.3e}")

    fixedness = opnorm(phi_h - h)
    if fixedness > cfg.eq_tol * scale:
        failures.append(f"fixedness residual {fixedness:.3e} exceeds tolerance")

    f_eps_residuals = []
    for eps in (0.5 / scale, -0.5 / scale):
        # |eps| ||h|| <= 1/2 < 0.99, so f_eps_eval's pole guard could never fire
        fa = dec.apply(EpsFunction(eps))
        r = opnorm(apply_map(kf, fa) - fa)
        f_eps_residuals.append(r)
        if r > loose * rel_scale(fa):
            failures.append(f"f_eps fixedness residual {r:.3e} (eps={eps:.3e})")

    power_residuals = []
    power = h.copy()
    for n in range(1, powers + 1):
        r = fixedness if n == 1 else opnorm(apply_map(kf, power) - power)
        power_residuals.append(r)
        if r > cfg.eq_tol * max(1.0, norm_h**n):
            failures.append(f"power residual at n={n}: {r:.3e}")
        power = power @ h

    eye = np.eye(kf.dim)
    projection_residuals = []
    offdiag_residuals = []
    for p in dec.projections:
        projection_residuals.append(opnorm(apply_map(kf, p) - p))
        q = eye - p
        off = 0.0
        for x in kf.operators:
            off = max(off, opnorm(p @ x @ q), opnorm(q @ x @ p))
        offdiag_residuals.append(off)
    for r in projection_residuals:
        if r > loose:
            failures.append(f"projection fixedness residual {r:.3e}")
    op_scale = max(1.0, max(opnorm(x) for x in kf.operators))
    for r in offdiag_residuals:
        if r > loose * op_scale:
            failures.append(f"off-diagonal block residual {r:.3e}")

    commutator_residuals = [opnorm(commutator(h, x)) for x in kf.operators]
    for r in commutator_residuals:
        if r > loose * scale:
            failures.append(f"commutator residual {r:.3e}")

    return TheoremReport(
        hypotheses=hypotheses,
        trace_gap=trace_gap,
        fixedness_residual=fixedness,
        f_eps_residuals=f_eps_residuals,
        power_residuals=power_residuals,
        projection_residuals=projection_residuals,
        offdiag_residuals=offdiag_residuals,
        commutator_residuals=commutator_residuals,
        verdict=not failures,
        failures=failures,
    )


def _require_fixed_point(kf: KrausFamily, h: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Phi(h), once h is known to be a fixed point."""
    phi_h = apply_map(kf, h)
    fix_res = opnorm(phi_h - h)
    if fix_res > cfg.eq_tol * rel_scale(h):
        raise PreconditionError(f"a is not a fixed point: ||Phi(a) - a|| = {fix_res:.3e}")
    return phi_h


def corollary_verify(
    kf: KrausFamily,
    alg: BlockAlgebra,
    a,
    cfg: ToleranceConfig = DEFAULT_TOL,
    powers: int = 8,
) -> TheoremReport:
    """Fixed point a with finite a^2 still commutes with the family.

    Runs Kadison-Schwarz to upgrade Phi(a) = a into Phi(a^2) >= a^2, hands
    a^2 to the main pipeline, and asserts the commutators of a itself
    (positive a and a^2 share their spectral family).  The report, Phi(a)
    and Phi(a^2) are computed once and shared with the main pipeline.
    """
    h = hermitize(a, cfg)
    if psd_min_eig(h, cfg) < -cfg.psd_tol:
        raise PreconditionError("corollary pipeline requires a >= 0")
    phi_h = _require_fixed_point(kf, h, cfg)
    rep = normalization_report(kf, cfg)
    if not rep.is_unital:
        raise ValueError("Kadison-Schwarz check requires a unital family")
    h2 = herm_part(h @ h)
    phi_h2 = apply_map(kf, h2)
    ks = psd_min_eig(herm_part(phi_h2 - phi_h @ phi_h), cfg)
    inner = _theorem(kf, alg, h2, phi_h2, rep, cfg, powers)
    failures = list(inner.failures)
    if ks < -cfg.psd_tol:
        failures.append(f"Kadison-Schwarz residual negative: {ks:.3e}")
    comms = [opnorm(commutator(h, x)) for x in kf.operators]
    loose = CONCLUSION_SLACK * cfg.eq_tol * rel_scale(h)
    for r in comms:
        if r > loose:
            failures.append(f"commutator of a residual {r:.3e}")
    return replace(
        inner,
        commutator_residuals=comms,
        verdict=not failures,
        failures=failures,
    )


def power_fixed_check(
    kf: KrausFamily, a, n_max: int, cfg: ToleranceConfig = DEFAULT_TOL
) -> list[float]:
    """Residuals ||Phi(a^n) - a^n|| for n = 1..n_max of a fixed point."""
    h = hermitize(a, cfg)
    _require_fixed_point(kf, h, cfg)
    out = []
    power = h.copy()
    for _ in range(n_max):
        out.append(opnorm(apply_map(kf, power) - power))
        power = power @ h
    return out


@dataclass(frozen=True, eq=False)
class PeelStep:
    eigenvalue: float
    projection: np.ndarray
    commutator_residual: float
    fixedness_residual: float


@dataclass(frozen=True, eq=False)
class PeelTrace:
    """Record of the eigenprojection peeling argument, step by step."""

    steps: list[PeelStep]
    reconstruction_residual: float
    verdict: bool
    failed_step: int | None = None
    failures: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "steps": [
                {
                    "eigenvalue": s.eigenvalue,
                    "commutatorResidual": s.commutator_residual,
                    "fixednessResidual": s.fixedness_residual,
                }
                for s in self.steps
            ],
            "reconstructionResidual": self.reconstruction_residual,
            "failedStep": self.failed_step,
            "failures": list(self.failures),
        }


def spectral_peel(
    kf: KrausFamily, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> PeelTrace:
    """Peel eigenprojections off a super-fixed positive operator.

    Requires a self-adjoint unital family.  At each step the top
    eigenprojection must commute with every family member and be fixed by
    the map; the remainder must stay super-fixed.  Terminates when the
    remainder is numerically zero.
    """
    rep = normalization_report(kf, cfg)
    if not rep.self_adjoint_family:
        raise PreconditionError("spectral peeling requires x_t = x_t* for all t")
    if not rep.is_unital:
        raise PreconditionError("spectral peeling requires a unital family")
    h = hermitize(a, cfg)
    if psd_min_eig(h, cfg) < -cfg.psd_tol:
        raise PreconditionError("spectral peeling requires a >= 0")
    gap0 = psd_min_eig(herm_part(apply_map(kf, h) - h), cfg)
    if gap0 < -cfg.psd_tol:
        raise PreconditionError(
            f"Phi(a) >= a fails: min eig of Phi(a) - a is {gap0:.3e}"
        )

    scale = rel_scale(h)
    loose = CONCLUSION_SLACK * cfg.eq_tol * scale
    steps: list[PeelStep] = []
    # (step, message); the failed step is the first step that recorded one
    failures: list[tuple[int | None, str]] = []
    current = h.copy()
    total = np.zeros_like(h)
    for k in range(kf.dim + 1):
        if opnorm(current) <= cfg.eq_tol * scale:
            break
        dec = herm_eig(current, cfg)
        lam = float(dec.eigenvalues[0])
        p = dec.projections[0]
        comm_res = max(opnorm(commutator(x, p)) for x in kf.operators)
        fix_res = opnorm(apply_map(kf, p) - p)
        steps.append(PeelStep(lam, p, comm_res, fix_res))
        if lam < -cfg.psd_tol:
            failures.append((k, f"step {k}: negative eigenvalue {lam:.3e}"))
            break
        if comm_res > loose:
            failures.append((k, f"step {k}: commutator residual {comm_res:.3e}"))
        if fix_res > loose:
            failures.append((k, f"step {k}: projection not fixed, residual {fix_res:.3e}"))
        total += lam * p
        current = herm_part(current - lam * p)
        super_gap = psd_min_eig(herm_part(apply_map(kf, current) - current), cfg)
        if super_gap < -cfg.psd_tol:
            failures.append(
                (k, f"step {k}: super-fixed property lost, min eig {super_gap:.3e}")
            )
            break
    else:
        failures.append((len(steps), "peeling did not terminate within dim + 1 steps"))

    recon = opnorm(h - total)
    if not failures and recon > cfg.eq_tol * scale:
        failures.append((None, f"reconstruction residual {recon:.3e}"))
    return PeelTrace(
        steps=steps,
        reconstruction_residual=recon,
        verdict=not failures,
        failed_step=failures[0][0] if failures else None,
        failures=[msg for _, msg in failures],
    )


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase-fixed diagonal."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_bistochastic(dim: int, n_terms: int, seed) -> KrausFamily:
    """Unital and trace-preserving family x_k = u_k / sqrt(n), u_k Haar."""
    if dim < 1 or n_terms < 1:
        raise ValueError("dim and n_terms must be >= 1")
    rng = np.random.default_rng(seed)
    ops = [haar_unitary(dim, rng) / np.sqrt(n_terms) for _ in range(n_terms)]
    return KrausFamily.from_operators(ops)


def _random_projective_partition(
    dim: int, n_terms: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """n mutually orthogonal projections summing to I, Haar-rotated."""
    u = haar_unitary(dim, rng)
    assignment = np.concatenate(
        [np.arange(n_terms), rng.integers(0, n_terms, size=dim - n_terms)]
    )
    rng.shuffle(assignment)
    out = []
    for k in range(n_terms):
        mask = np.diag((assignment == k).astype(np.complex128))
        p = u @ mask @ u.conj().T
        out.append(herm_part(p))
    return out


def random_selfadjoint_family(
    dim: int,
    n_terms: int,
    seed,
    strategy: str = "projective",
    max_retries: int = 20,
) -> KrausFamily:
    """Self-adjoint unital family (so both setup conditions hold with e = 1).

    ``projective`` (default) draws a random orthogonal partition of the
    identity: exactly Hermitian, exactly unital.  ``perturbed`` adds a
    Hermitian perturbation and renormalizes iteratively; Hermiticity is
    exact but unitality only holds to ~1e-12.
    """
    if dim < 1 or n_terms < 1:
        raise ValueError("dim and n_terms must be >= 1")
    if n_terms > dim:
        raise ValueError("at most dim nonzero orthogonal projections exist")
    rng = np.random.default_rng(seed)
    if strategy == "projective":
        return KrausFamily.from_operators(
            _random_projective_partition(dim, n_terms, rng)
        )
    if strategy != "perturbed":
        raise ValueError(f"unknown strategy {strategy!r}")
    for _ in range(max_retries):
        ops = _random_projective_partition(dim, n_terms, rng)
        ops = [
            p + 0.05 * _random_hermitian(dim, rng) for p in ops
        ]
        ok = True
        # fixed-point iteration x <- s^{-1/4} x s^{-1/4}, s = sum x^2,
        # keeps every x exactly Hermitian while driving s to I; the
        # eigendecomposition is unclustered here, clustering would floor
        # the achievable slack at cluster_gap
        for _ in range(200):
            s = sum(x @ x for x in ops)
            dev = opnorm(s - np.eye(dim))
            if dev <= 1e-13:
                break
            if not np.isfinite(dev) or dev > 1e3:
                ok = False
                break
            w, v = np.linalg.eigh(herm_part(s))
            if w[0] <= 0.0:
                ok = False
                break
            s_inv_quarter = (v * w ** (-0.25)) @ v.conj().T
            ops = [herm_part(s_inv_quarter @ x @ s_inv_quarter) for x in ops]
        else:
            ok = False
        if ok:
            return KrausFamily.from_operators(ops)
    raise RuntimeError("perturbed self-adjoint normalization failed to converge")


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return herm_part(z)


def _random_complex(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


# ---------------------------------------------------------------------------
# Hypothesis necessity explorer
# ---------------------------------------------------------------------------

EXPLORER_MODES = ("unital-only", "subunital-only")


@dataclass(frozen=True)
class TrialConfig:
    """Reproducible randomized-trial configuration."""

    dim: int
    trials: int
    seed: int
    mode: str
    n_terms: int = 3

    def __post_init__(self):
        if self.dim < 1 or self.trials < 1 or self.n_terms < 1:
            raise ValueError("dim, trials and n_terms must be >= 1")
        if self.mode not in EXPLORER_MODES:
            raise ValueError(f"mode must be one of {EXPLORER_MODES}")


@dataclass(frozen=True, eq=False)
class ExplorationReport:
    """Outcome of the hypothesis-dropping exploration.

    A "violation" is a fixed-space element whose commutator with some
    family member exceeds 100x eq_tol, i.e. far above rounding level.
    Absence of violations is evidence, not a proof of impossibility.
    """

    mode: str
    dim: int
    trials: int
    seed: int
    violations: list[dict]
    max_commutator_residual: float

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "verdict": self.clean,
            "config": {
                "mode": self.mode,
                "dim": self.dim,
                "trials": self.trials,
                "seed": self.seed,
            },
            "violationCount": len(self.violations),
            "violations": self.violations,
            "maxCommutatorResidual": self.max_commutator_residual,
        }


def hypothesis_explorer(
    trial_cfg: TrialConfig, cfg: ToleranceConfig = DEFAULT_TOL
) -> ExplorationReport:
    """Look for fixed points outside the commutant when a hypothesis is dropped.

    ``unital-only`` column-normalizes random families (sum mu x*x = 1
    exactly, no constraint on sum mu x x*); ``subunital-only`` rescales so
    the top eigenvalue of sum mu x x* is 1 (no unitality).  Deterministic
    per (seed, trial index).
    """
    d = trial_cfg.dim
    violations: list[dict] = []
    max_res = 0.0
    for trial in range(trial_cfg.trials):
        rng = np.random.default_rng([trial_cfg.seed, trial])
        raw = [_random_complex(d, rng) for _ in range(trial_cfg.n_terms)]
        if trial_cfg.mode == "unital-only":
            col = sum(x.conj().T @ x for x in raw)
            col_inv_root = mat_func(lambda t: t**-0.5, herm_part(col))
            ops = [x @ col_inv_root for x in raw]
        else:
            row = sum(x @ x.conj().T for x in raw)
            top = float(np.linalg.eigvalsh(herm_part(row))[-1])
            ops = [x / np.sqrt(top) for x in raw]
        kf = KrausFamily.from_operators(ops)
        for b in fixed_space_basis(kf, cfg).basis:
            res = max(opnorm(commutator(b, x)) for x in kf.operators)
            max_res = max(max_res, res)
            if res > CONCLUSION_SLACK * cfg.eq_tol * rel_scale(b):
                violations.append(
                    {
                        "trial": trial,
                        "commutatorResidual": res,
                        "fixedElement": matrix_to_obj(b),
                        "family": channel_to_obj(kf),
                    }
                )
    return ExplorationReport(
        mode=trial_cfg.mode,
        dim=d,
        trials=trial_cfg.trials,
        seed=trial_cfg.seed,
        violations=violations,
        max_commutator_residual=max_res,
    )
