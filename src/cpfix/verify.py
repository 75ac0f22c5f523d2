"""Executable verification pipelines for the fixed-point results.

The main pipeline replays the commutation argument as numerical checks,
in proof order: hypotheses, the trace inequality, fixedness of a, of
f_eps(a), of the powers a^n, of every spectral projection, and finally
the commutators [a, x_t] themselves.  A companion peeling pipeline walks
the eigenprojection-by-eigenprojection argument for self-adjoint
families, and an explorer probes what happens when hypotheses are
dropped.

Conclusion residuals (f_eps(a), projections, off-diagonal blocks,
commutators) get ``slack=CONCLUSION_SLACK``, 100x, in ``cfg.eq_bound``:
eigenprojections of a computed matrix carry more noise than direct
arithmetic, and a claimed counterexample must sit far above rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    Check,
    PreconditionError,
    SpectralDecomposition,
    ToleranceConfig,
    commutator,
    herm_eig,
    herm_part,
    hermitize,
    mat_func,
    opnorm,
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
    "spectral_peel",
    "haar_unitary",
    "random_bistochastic",
    "random_selfadjoint_family",
    "hypothesis_explorer",
]

# Slack factor on eq_tol for residuals derived through an eigensolver.
CONCLUSION_SLACK = 100.0

# The projection stage of the theorem and the peel takes the spectral
# projections, and their blocks p x_t q and q x_t p, through the map and the
# norm in groups of at most this many bytes: at d = 16 with up to 7 Kraus
# terms all fit in one group, and at large d with many distinct eigenvalues
# the working memory stays bounded instead of growing with their number.
GROUP_BYTES = 1 << 20


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
    return _trace_chain(alg, herm_eig(h, cfg), tau_phi, kf.row_sum)


def _trace_gap(
    alg: BlockAlgebra,
    h: np.ndarray,
    dec: SpectralDecomposition,
    phi_h: np.ndarray,
    row_sum: np.ndarray,
    cfg: ToleranceConfig,
) -> tuple[float, float]:
    """(tau(h), trace gap) of a positive ``h`` in the algebra, for a sub-unital dual family."""
    try:
        tau_phi = trace_tau(alg, phi_h, cfg)
    except MembershipError as exc:
        raise PreconditionError(f"Phi(a) is not in the algebra: {exc}") from exc
    tau_a = alg.trace(h)
    chain = _trace_chain(alg, dec, tau_phi, row_sum)
    msg = f"trace chain broken: |tau(Phi(a)) - tau(sqrt(a) e sqrt(a))| = {chain:.3e}"
    Check("traceChain", chain, cfg.eq_bound(abs(tau_a)), msg).require()
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
    cfg.psd_check("aPositive", h, "a must be positive semidefinite").require()
    if not alg.contains(h, cfg):
        raise PreconditionError("a is not in the algebra")
    rep = normalization_report(kf, cfg)
    if not rep.is_subunital_dual:
        raise PreconditionError("family violates sum mu x x* <= 1")
    return _trace_gap(alg, h, herm_eig(h, cfg), apply_map(kf, h), kf.row_sum, cfg)[1]


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Structured verdict of the main verification pipeline.

    ``checks`` are the conclusion stages in proof order; they stay empty
    when a hypothesis already fails, since the conclusion is then not
    asserted at all.  Everything else is derived from the two fields.
    """

    hypotheses: dict[str, bool]
    checks: list[Check] = field(default_factory=list)

    def residuals(self, name: str) -> list[float]:
        """Values of the checks called ``name``, in stage order."""
        return [c.value for c in self.checks if c.name == name]

    @property
    def failures(self) -> list[str]:
        hyp = [f"hypothesis failed: {k}" for k, v in self.hypotheses.items() if not v]
        return hyp + [c.failure for c in self.checks if not c.passed]

    @property
    def verdict(self) -> bool:
        return all(self.hypotheses.values()) and all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        res = {k: (self.residuals(k) or [None])[0] for k in ("traceGap", "fixedness")}
        for k in ("fEps", "powers", "projections", "offDiagonal", "commutators"):
            res[k] = self.residuals(k)
        return {
            "verdict": self.verdict,
            "hypotheses": {k: bool(v) for k, v in self.hypotheses.items()},
            "residuals": res,
            "failures": self.failures,
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
    return _theorem(kf, alg, h, apply_map(kf, h), rep, cfg, powers, "commutators")


def _theorem(
    kf: KrausFamily,
    alg: BlockAlgebra,
    h: np.ndarray,
    phi_h: np.ndarray,
    rep: NormalizationReport,
    cfg: ToleranceConfig,
    powers: int,
    commutator_name: str,
) -> TheoremReport:
    """Hypotheses and conclusion stages for a hermitized ``h``, its image and the report."""
    hypotheses = {
        "unital": rep.is_unital,
        "subunitalDual": rep.is_subunital_dual,
        "invariance": invariance_check(kf, alg, cfg),
        "aInAlgebra": alg.contains(h, cfg),
        "aPositive": cfg.psd_check("aPositive", h).passed,
        "superFixed": cfg.psd_check("superFixed", herm_part(phi_h - h)).passed,
    }
    if not all(hypotheses.values()):
        return TheoremReport(hypotheses)

    dec = herm_eig(h, cfg)
    norm_h = dec.norm

    tau_a, gap = _trace_gap(alg, h, dec, phi_h, kf.row_sum, cfg)
    gap_bound = -cfg.eq_bound(abs(tau_a))
    checks = [Check("traceGap", gap, gap_bound, f"trace gap negative: {gap:.3e}", lower=True)]

    fixedness = opnorm(phi_h - h)
    msg = f"fixedness residual {fixedness:.3e} exceeds tolerance"
    checks.append(Check("fixedness", fixedness, cfg.eq_bound(norm_h), msg))

    half = 0.5 / max(1.0, norm_h)
    # |eps| ||h|| <= 1/2 < 0.99, so f_eps_eval's pole guard could never fire
    fas = np.stack([dec.apply(EpsFunction(eps)) for eps in (half, -half)])
    residuals, norms = opnorm(np.stack([apply_map(kf, fas) - fas, fas])).tolist()
    for eps, r, norm in zip((half, -half), residuals, norms):
        msg = f"f_eps fixedness residual {r:.3e} (eps={eps:.3e})"
        checks.append(Check("fEps", r, cfg.eq_bound(norm, CONCLUSION_SLACK), msg))

    for n, r in enumerate(_power_residuals(kf, h, fixedness, powers), 1):
        msg = f"power residual at n={n}: {r:.3e}"
        checks.append(Check("powers", r, cfg.eq_bound(norm_h**n), msg))

    (proj_res, proj_bound), (off_res, off_bound) = _projection_residuals(kf, dec.projections, cfg)
    for r in proj_res:
        msg = f"projection fixedness residual {r:.3e}"
        checks.append(Check("projections", r, proj_bound, msg))
    for r in off_res:
        checks.append(Check("offDiagonal", r, off_bound, f"off-diagonal block residual {r:.3e}"))

    checks += _commutator_checks(h, norm_h, kf, cfg, commutator_name, "commutator residual")
    return TheoremReport(hypotheses, checks)


def _projection_residuals(
    kf: KrausFamily, projections: list[np.ndarray], cfg: ToleranceConfig
) -> tuple[tuple[list[float], float], tuple[list[float], float]]:
    """(||Phi(p) - p||, max_t ||[x_t, p]||) for each spectral projection p, each kind with its bound.

    [x, p] = q x p - p x q with q = I - p, two blocks between orthogonal
    ranges, so ||[x, p]|| = max(||p x q||, ||q x p||).  The bounds scale
    with what the residuals are made of, ||p|| = 1 and max ||x_t||, and not
    with the operator whose projections they are; the theorem and the peel
    judge their one projection stage by them alike.
    """
    xs = np.stack(kf.operators)
    group = max(1, GROUP_BYTES // (xs[0].nbytes * (2 * len(xs) + 1)))
    proj_res, off_res = [], []
    for i in range(0, len(projections), group):
        ps = np.stack(projections[i : i + group])
        proj_res += opnorm(apply_map(kf, ps) - ps).tolist()
        # blocks[j, :k] = p_j x_t q_j and blocks[j, k:] = q_j x_t p_j
        p, q = ps[:, None], np.eye(kf.dim) - ps[:, None]
        blocks = np.concatenate([p @ xs @ q, q @ xs @ p], axis=1)
        off_res += opnorm(blocks).max(axis=1).tolist()
    op_bound = cfg.eq_bound(float(kf.operator_norms.max()), CONCLUSION_SLACK)
    return (proj_res, cfg.eq_bound(slack=CONCLUSION_SLACK)), (off_res, op_bound)


def _power_residuals(kf: KrausFamily, h: np.ndarray, r: float, n_max: int) -> list[float]:
    """||Phi(h^n) - h^n|| for n = 1..n_max, given the n = 1 residual ``r``.

    The powers n >= 2 take one map call and one norm call.
    """
    if n_max < 2:
        return [r][:n_max]
    powers = [h @ h]
    while len(powers) < n_max - 1:
        powers.append(powers[-1] @ h)
    stack = np.stack(powers)
    return [r, *opnorm(apply_map(kf, stack) - stack).tolist()]


def _commutator_checks(
    h: np.ndarray, norm_h: float, kf: KrausFamily, cfg: ToleranceConfig, name: str, label: str
) -> list[Check]:
    """||[h, x_t]|| <= eq_bound(||h||, CONCLUSION_SLACK) for each family member."""
    bound = cfg.eq_bound(norm_h, CONCLUSION_SLACK)
    residuals = opnorm(commutator(h, np.stack(kf.operators))).tolist()
    return [Check(name, r, bound, f"{label} {r:.3e}") for r in residuals]


def _require_fixed_point(
    kf: KrausFamily, h: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, float, float]:
    """(Phi(h), ||Phi(h) - h||, ||h||), once h is known to be a fixed point."""
    phi_h = apply_map(kf, h)
    fix_res, norm_h = opnorm(np.stack([phi_h - h, h])).tolist()
    msg = f"a is not a fixed point: ||Phi(a) - a|| = {fix_res:.3e}"
    Check("fixedPoint", fix_res, cfg.eq_bound(norm_h), msg).require()
    return phi_h, fix_res, norm_h


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
    cfg.psd_check("aPositive", h, "corollary pipeline requires a >= 0").require()
    # the report first: an overflowing family sum is named, not a NaN residual
    rep = normalization_report(kf, cfg)
    phi_h, _, norm_h = _require_fixed_point(kf, h, cfg)
    if not rep.is_unital:
        raise PreconditionError("Kadison-Schwarz check requires a unital family")
    h2 = herm_part(h @ h)
    phi_h2 = apply_map(kf, h2)
    msg = "Kadison-Schwarz residual negative: {:.3e}"
    ks_check = cfg.psd_check("kadisonSchwarz", herm_part(phi_h2 - phi_h @ phi_h), msg)
    # a^2's commutator checks count under their own name; "commutators" are a's
    inner = _theorem(kf, alg, h2, phi_h2, rep, cfg, powers, "squareCommutators")
    comms = _commutator_checks(h, norm_h, kf, cfg, "commutators", "commutator of a residual")
    return TheoremReport(inner.hypotheses, [*inner.checks, ks_check, *comms])


@dataclass(frozen=True, eq=False)
class PeelStep:
    eigenvalue: float
    projection: np.ndarray
    commutator_residual: float
    fixedness_residual: float


@dataclass(frozen=True, eq=False)
class PeelTrace:
    """Record of the eigenprojection peeling argument, step by step.

    ``checks`` pairs each check with the step it belongs to (None for the
    final reconstruction); the failed step is the first step with a
    failing check.
    """

    steps: list[PeelStep]
    reconstruction_residual: float
    checks: list[tuple[int | None, Check]]

    @property
    def failures(self) -> list[str]:
        return [c.failure for _, c in self.checks if not c.passed]

    @property
    def verdict(self) -> bool:
        return all(c.passed for _, c in self.checks)

    @property
    def failed_step(self) -> int | None:
        return next((k for k, c in self.checks if not c.passed), None)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
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
            "failures": self.failures,
        }


def spectral_peel(
    kf: KrausFamily, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> PeelTrace:
    """Peel the spectral projections off a super-fixed positive operator.

    Requires a self-adjoint unital family.  The projections of one
    decomposition of a are peeled top eigenvalue first, down to the last
    with |lambda| above ``cfg.eq_bound(||a||)``; each must commute with the
    family and be fixed by the map, by the bounds of the theorem's
    projection stage, and each remainder must stay super-fixed.  Each
    peeled lambda is a cluster mean of a's eigenvalues, so ``aPositive``
    already bounds it below by -psd_tol.
    """
    rep = normalization_report(kf, cfg)
    if not rep.self_adjoint_family:
        raise PreconditionError("spectral peeling requires x_t = x_t* for all t")
    if not rep.is_unital:
        raise PreconditionError("spectral peeling requires a unital family")
    h = hermitize(a, cfg)
    cfg.psd_check("aPositive", h, "spectral peeling requires a >= 0").require()
    msg = "Phi(a) >= a fails: min eig of Phi(a) - a is {:.3e}"
    cfg.psd_check("superFixed", herm_part(apply_map(kf, h) - h), msg).require()

    dec = herm_eig(h, cfg)
    norm_h = dec.norm
    n = max(np.flatnonzero(np.abs(dec.eigenvalues) > cfg.eq_bound(norm_h)) + 1, default=0)
    stage = _projection_residuals(kf, dec.projections[:n], cfg)
    (fix_res, fix_bound), (comm_res, comm_bound) = stage
    steps: list[PeelStep] = []
    checks: list[tuple[int | None, Check]] = []
    total = np.zeros_like(h)
    peeled = zip(dec.eigenvalues[:n].tolist(), dec.projections, comm_res, fix_res)
    for k, (lam, p, comm, fix) in enumerate(peeled):
        steps.append(PeelStep(lam, p, comm, fix))
        msg = f"step {k}: commutator residual {comm:.3e}"
        checks.append((k, Check("commutator", comm, comm_bound, msg)))
        msg = f"step {k}: projection not fixed, residual {fix:.3e}"
        checks.append((k, Check("fixedness", fix, fix_bound, msg)))
        total += lam * p
        rest = h - total
        msg = f"step {k}: super-fixed property lost, min eig {{:.3e}}"
        gap = herm_part(apply_map(kf, rest) - rest)
        checks.append((k, cfg.psd_check("superFixed", gap, msg)))
        if not checks[-1][1].passed:
            break

    recon = opnorm(h - total)
    if all(c.passed for _, c in checks):
        msg = f"reconstruction residual {recon:.3e}"
        checks.append((None, Check("reconstruction", recon, cfg.eq_bound(norm_h), msg)))
    return PeelTrace(steps=steps, reconstruction_residual=recon, checks=checks)


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


def random_selfadjoint_family(dim: int, n_terms: int, seed) -> KrausFamily:
    """Self-adjoint unital family (so both setup conditions hold with e = 1).

    A random orthogonal partition of the identity into ``n_terms``
    projections: exactly Hermitian, exactly unital.
    """
    if dim < 1 or n_terms < 1:
        raise ValueError("dim and n_terms must be >= 1")
    if n_terms > dim:
        raise ValueError("at most dim nonzero orthogonal projections exist")
    rng = np.random.default_rng(seed)
    return KrausFamily.from_operators(_random_projective_partition(dim, n_terms, rng))


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
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
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
        xs = np.stack(kf.operators)
        for b in fixed_space_basis(kf).basis:
            *comms, norm_b = opnorm(np.concatenate([commutator(b, xs), [b]])).tolist()
            res = max(comms)
            max_res = max(max_res, res)
            if res > cfg.eq_bound(norm_b, CONCLUSION_SLACK):
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
