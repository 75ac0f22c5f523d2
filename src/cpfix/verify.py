"""Executable verification pipelines for the fixed-point results.

The main pipeline replays the commutation argument as numerical checks,
in proof order: hypotheses, the trace inequality, fixedness of a, of
f_eps(a), of the powers a^n, of every spectral projection, and finally
the commutators [a, x_t] themselves.  A companion peeling pipeline walks
the eigenprojection-by-eigenprojection argument for self-adjoint
families, and an explorer probes what happens when hypotheses are
dropped.

Phi is applied once, to a itself, for the hypotheses; the conclusion
stages run in a's eigenframe.  With a = V Lambda V* and W_t = V* x_t V,
formed once per decomposition (:func:`_eigenframe`), every f(a) =
V f(Lambda) V* has V* Phi(f(a)) V = sum_t mu_t W_t* f(Lambda) W_t.  So f_eps,
the powers, each spectral projection and each remainder of the peel go
through Phi with no map call, and the commutators [x_t, p] are blocks of
W_t.  The stage costs O(n d^3) however many distinct eigenvalues a has.

Conclusion residuals (f_eps(a), projections, off-diagonal blocks,
commutators) get ``slack=CONCLUSION_SLACK``, 100x, in ``cfg.eq_bound``:
eigenprojections of a computed matrix carry more noise than direct
arithmetic, and a claimed counterexample must sit far above rounding level.
"""

from __future__ import annotations

import math
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
    require_finite,
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
from .io import channel_to_obj
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
    "hypothesis_explorer",
]

# Slack factor on eq_tol for residuals derived through an eigensolver.
CONCLUSION_SLACK = 100.0

# The eigenframe stages stack their d x d images (f_eps and the powers, the
# projections, the peel's remainders) and gather the blocks of the
# commutators in groups of at most about this many bytes: at d = 16 all fit
# in one group, and at large d with many distinct eigenvalues the working
# memory stays bounded instead of growing with their number.
GROUP_BYTES = 1 << 20


def _group(d: int) -> int:
    """How many d x d images one group of ``GROUP_BYTES`` holds, with room for its temporaries."""
    return max(1, GROUP_BYTES // (4 * 16 * d * d))


@dataclass(frozen=True, eq=False)
class _Eigenframe:
    """The family in a's eigenframe V, the one change of frame the conclusion stages read.

    ``w`` is the (n, d, d) stack W_t = V* x_t V, ``roots`` the sqrt(mu_t),
    and ``drift`` is e = ||V*V - 1||_F, how far the computed V is from
    unitary.  For a real diagonal F = f(Lambda) the frame residual is R =
    sum_t mu_t W_t* F W_t - F, which is V* (Phi(m) - m) V for m = V F V* up
    to that drift; :meth:`bound` accounts for it.
    """

    dec: SpectralDecomposition
    w: np.ndarray
    roots: np.ndarray
    drift: float

    def bound(self, bound: float, scale: float) -> float:
        """A bound on ||R|| under which ||Phi(m) - m|| <= ``bound``, for m = V F V* and ||F|| = ``scale``.

        Let G = V*V = 1 + D, so ||D||_2 <= ||D||_F = e.  Then V* (Phi(m) -
        m) V = sum_t mu_t W_t* F W_t - G F G = R + F - G F G, and F - G F G =
        -(D F + F D + D F D) has norm at most (2e + e^2) ||F||.  Every X has
        ||X|| <= ||V* X V|| / sigma_min(V)^2, and sigma_min(V)^2 =
        lambda_min(G) >= 1 - e.  So ||Phi(m) - m|| <= (||R|| + (2e + e^2)
        ||F||) / (1 - e), which is at most ``bound`` once ||R|| <= bound (1 -
        e) - (2e + e^2) ||F||.  A pass then answers for V f(Lambda) V*
        itself; for e >= 1 the result is negative and nothing passes.
        """
        e = self.drift
        return bound * (1.0 - e) - (2.0 + e) * e * scale


def _eigenframe(kf: KrausFamily, dec: SpectralDecomposition) -> _Eigenframe:
    """W_t = V* x_t V for every family member, and the drift of V, once per decomposition."""
    v = dec.eigenvectors
    vh = v.conj().T
    w = vh @ kf.operators @ v
    gram = vh @ v
    gram.flat[:: dec.dim + 1] -= 1.0
    return _Eigenframe(dec, w, np.sqrt(kf.weights), math.sqrt(np.vdot(gram, gram).real))


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
    defect = herm_part(phi_h - h)
    hypotheses = {
        "unital": rep.is_unital,
        "subunitalDual": rep.is_subunital_dual,
        "invariance": invariance_check(kf, alg, cfg),
        "aInAlgebra": alg.contains(h, cfg),
        "aPositive": cfg.psd_check("aPositive", h).passed,
        "superFixed": cfg.psd_check("superFixed", defect).passed,
    }
    if not all(hypotheses.values()):
        return TheoremReport(hypotheses)

    dec = herm_eig(h, cfg)
    norm_h = dec.norm
    # f_eps(h) and the powers h^n are measured on h / unit, relative to
    # unit^2 and unit^n, since a^n can overflow where its residual relative
    # to ||a||^n is at rounding level.  unit is the least power of two >=
    # max(1, ||h||), at most 2^1023, so each division by it is exact: barring underflow,
    # every relative residual and bound is the absolute one times a power
    # of two, and for ||h|| <= 1 it is the absolute one
    mant, exp = math.frexp(max(1.0, norm_h))
    unit = math.ldexp(1.0, min(exp - (mant == 0.5), 1023))

    tau_a, gap = _trace_gap(alg, h, dec, phi_h, kf.row_sum, cfg)
    gap_bound = -cfg.eq_bound(abs(tau_a))
    checks = [Check("traceGap", gap, gap_bound, f"trace gap negative: {gap:.3e}", lower=True)]

    fixedness = opnorm(defect, hermitian=True)
    msg = f"fixedness residual {fixedness:.3e} exceeds tolerance"
    checks.append(Check("fixedness", fixedness, cfg.eq_bound(norm_h), msg))

    frame = _eigenframe(kf, dec)
    half = 0.5 / max(1.0, norm_h)
    # |eps| ||h|| <= 1/2 < 0.99, so f_eps_eval's pole guard could never fire;
    # f_{eps unit}(t / unit) is f_eps(t) / unit^2, with eps t formed exactly,
    # at a's clustered eigenvalues
    f_eps = np.stack([EpsFunction(e * unit)(dec.eigenvalues / unit) for e in (half, -half)])
    # the powers n = 2..powers of h / unit, at a's own eigenvalues
    power_values = np.cumprod(np.tile(dec.spectrum / unit, (powers, 1)), axis=0)[1:]
    values = np.concatenate([np.repeat(f_eps, dec.multiplicities, axis=1), power_values])
    residuals = _image_residuals(frame, values).tolist()

    # eq_bound(norm unit^2, slack) / unit^2, without the product norm
    # unit^2, which can overflow
    base = cfg.eq_bound(slack=CONCLUSION_SLACK)
    for eps, r, norm in zip((half, -half), residuals, np.abs(f_eps).max(axis=1).tolist()):
        msg = f"f_eps fixedness residual {r:.3e} (eps={eps:.3e})"
        checks.append(Check("fEps", r, frame.bound(base * max(unit**-2, norm), norm), msg))

    # eq_bound(||h||^n) / unit^n, likewise; n = 1 is the fixedness residual
    power_norms = np.abs(power_values).max(axis=1).tolist()
    for n, r in enumerate([fixedness / unit, *residuals[2:]][:powers], 1):
        msg = f"power residual at n={n}: {r:.3e}"
        bound = cfg.eq_bound() * max(unit**-n, (norm_h / unit) ** n)
        if n > 1:
            bound = frame.bound(bound, power_norms[n - 2])
        checks.append(Check("powers", r, bound, msg))

    stage = _projection_residuals(kf, frame, cfg)
    (proj_res, proj_bound), (off_res, off_bound) = stage
    for r in proj_res:
        msg = f"projection fixedness residual {r:.3e}"
        checks.append(Check("projections", r, proj_bound, msg))
    for r in off_res:
        checks.append(Check("offDiagonal", r, off_bound, f"off-diagonal block residual {r:.3e}"))

    checks += _commutator_checks(h, norm_h, kf, cfg, commutator_name, "commutator residual")
    return TheoremReport(hypotheses, checks)


def _image_residuals(frame: _Eigenframe, values: np.ndarray) -> np.ndarray:
    """||R|| = ||sum_t mu_t W_t* F W_t - F|| for F = diag(f), f each row of ``values`` in eigenframe order.

    R is V* (Phi(m) - m) V for m = V F V* (see :class:`_Eigenframe`): one
    product per family member, F applied to sqrt(mu_t) W_t* as a column
    scaling.  R is Hermitian by its form, so each norm is a largest
    |eigenvalue|, one eigenvalue call per group of ``GROUP_BYTES``.
    """
    k, d = values.shape
    group = _group(d)
    diag = np.arange(d)
    out = np.empty(k)
    for i in range(0, k, group):
        f = values[i : i + group]
        image = np.zeros((len(f), d, d), dtype=np.complex128)
        for root, w in zip(frame.roots.tolist(), frame.w):
            s = root * w
            image += (s.conj().T * f[:, None, :]) @ s
        image[:, diag, diag] -= f
        out[i : i + group] = opnorm(herm_part(image), hermitian=True)
    return out


def _projection_gaps(frame: _Eigenframe, start: int, stop: int) -> np.ndarray:
    """V* (Phi(p_k) - p_k) V = G_k - E_k for the spectral projections k = start..stop, stacked.

    With W_t[k] the r_k rows of cluster k of W_t, G_k = sum_t mu_t W_t[k]*
    W_t[k] is V* Phi(p_k) V and E_k, the diagonal indicator of those rows,
    is V* p_k V (up to the drift of :class:`_Eigenframe`): O(n r_k d^2) per
    projection, one batched Gram product per run of clusters of equal rank.
    The difference is Hermitian by its form and returned exactly so.
    """
    ranks = frame.dec.multiplicities[start:stop]
    first = int(frame.dec.multiplicities[:start].sum())
    last = first + int(ranks.sum())
    n, d = len(frame.w), frame.dec.dim
    # sqrt(mu_t) W_t[first:last], as (n, last - first, d)
    scaled = frame.w[:, first:last] * frame.roots[:, None, None]
    out = np.empty((len(ranks), d, d), dtype=np.complex128)
    cuts = np.flatnonzero(np.diff(ranks)) + 1
    lo = 0
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(ranks)]):
        r, g = int(ranks[a]), b - a
        blocks = scaled[:, lo : lo + g * r].reshape(n, g, r, d).transpose(1, 0, 2, 3).reshape(g, n * r, d)
        out[a:b] = blocks.conj().transpose(0, 2, 1) @ blocks
        lo += g * r
    rows = np.arange(first, last)
    out[np.repeat(np.arange(len(ranks)), ranks), rows, rows] -= 1.0
    return herm_part(out)


def _projection_residuals(
    kf: KrausFamily, frame: _Eigenframe, cfg: ToleranceConfig
) -> tuple[tuple[list[float], float], tuple[list[float], float]]:
    """(||Phi(p) - p||, max_t ||[x_t, p]||) for every spectral projection p of ``frame.dec``, each kind with its bound.

    ||Phi(p) - p|| = ||G_k - E_k|| (:func:`_projection_gaps`), a largest
    |eigenvalue|, one eigenvalue call per group of ``GROUP_BYTES``; the
    commutators are ``_off_diagonal_residuals``; the bounds are
    ``_stage_bounds``.
    """
    count, group = len(frame.dec.eigenvalues), _group(frame.dec.dim)
    proj_res = []
    for i in range(0, count, group):
        gaps = _projection_gaps(frame, i, min(i + group, count))
        proj_res += opnorm(gaps, hermitian=True).tolist()
    off_res = _off_diagonal_residuals(frame, count).tolist()
    fix_bound, comm_bound = _stage_bounds(kf, frame, cfg)
    return (proj_res, fix_bound), (off_res, comm_bound)


def _stage_bounds(kf: KrausFamily, frame: _Eigenframe, cfg: ToleranceConfig) -> tuple[float, float]:
    """The bounds of ||Phi(p) - p|| and of max_t ||[x_t, p]|| for a spectral projection p.

    They scale with what the residuals are made of, ||p|| = 1 and max
    ||x_t||, and not with the operator whose projections they are; the
    theorem and the peel judge their one projection stage by them alike.
    The fixedness bound gives up the frame's drift, so a pass answers for p
    = V_k V_k* itself.
    """
    op_bound = cfg.eq_bound(float(kf.operator_norms.max()), CONCLUSION_SLACK)
    return frame.bound(cfg.eq_bound(slack=CONCLUSION_SLACK), 1.0), op_bound


def _off_diagonal_residuals(frame: _Eigenframe, count: int) -> np.ndarray:
    """max_t ||[x_t, p]|| for the first ``count`` spectral projections p of ``frame.dec``.

    [x, p] = q x p - p x q with q = I - p, two blocks between orthogonal
    ranges, so ||[x, p]|| = max(||p x q||, ||q x p||).  In a's eigenframe
    V, with W_t = V* x_t V and p = V_k V_k* of rank r, these are the norms
    of the r x (d - r) block W_t[k, not k] and of the transpose of
    W_t[not k, k], both gathered from W.  The projections of one rank share
    one norm call per group of ``GROUP_BYTES`` of those blocks, and a
    projection of rank d has no such block and residual 0.
    """
    dec, w = frame.dec, frame.w
    d = dec.dim
    ranks = dec.multiplicities[:count]
    starts = np.cumsum(dec.multiplicities) - dec.multiplicities
    off_res = np.zeros(count)
    for r in sorted(set(ranks.tolist()) - {d}):
        ks = np.flatnonzero(ranks == r)
        # a projection's two gathered blocks, and their stack, per member
        group = max(1, GROUP_BYTES // (4 * w.itemsize * len(w) * r * (d - r)))
        for i in range(0, len(ks), group):
            part = ks[i : i + group]
            rows = starts[part, None] + np.arange(r)
            outside = np.ones((len(part), d), dtype=bool)
            outside[np.arange(len(part))[:, None], rows] = False
            cols = np.nonzero(outside)[1].reshape(len(part), d - r)
            rows, cols = rows[:, :, None], cols[:, None, :]
            # p_k x_t q_k and (q_k x_t p_k)^T in the eigenbasis
            blocks = np.concatenate([w[:, rows, cols], w[:, cols, rows]])
            off_res[part] = opnorm(blocks).max(axis=0)
    return off_res


def _commutator_checks(
    h: np.ndarray, norm_h: float, kf: KrausFamily, cfg: ToleranceConfig, name: str, label: str
) -> list[Check]:
    """||[h, x_t]|| <= eq_bound(||h||, CONCLUSION_SLACK) for each family member."""
    bound = cfg.eq_bound(norm_h, CONCLUSION_SLACK)
    residuals = opnorm(commutator(h, kf.operators)).tolist()
    return [Check(name, r, bound, f"{label} {r:.3e}") for r in residuals]


def _require_fixed_point(
    kf: KrausFamily, h: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, float, float]:
    """(Phi(h), ||Phi(h) - h||, ||h||), once h is known to be a fixed point."""
    phi_h = apply_map(kf, h)
    fix_res, norm_h = opnorm(np.stack([herm_part(phi_h - h), h]), hermitian=True).tolist()
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
    with np.errstate(over="ignore", invalid="ignore"):
        h2 = herm_part(require_finite("square a^2", h @ h))
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
    already bounds it below by -psd_tol.  The steps run in a's eigenframe
    (:func:`_peel_stage`): Phi is applied once, to a, and no projection is
    formed.
    """
    rep = normalization_report(kf, cfg)
    if not rep.self_adjoint_family:
        raise PreconditionError("spectral peeling requires x_t = x_t* for all t")
    if not rep.is_unital:
        raise PreconditionError("spectral peeling requires a unital family")
    h = hermitize(a, cfg)
    cfg.psd_check("aPositive", h, "spectral peeling requires a >= 0").require()
    gap = herm_part(apply_map(kf, h) - h)
    msg = "Phi(a) >= a fails: min eig of Phi(a) - a is {:.3e}"
    cfg.psd_check("superFixed", gap, msg).require()

    dec = herm_eig(h, cfg)
    norm_h = dec.norm
    n = max(np.flatnonzero(np.abs(dec.eigenvalues) > cfg.eq_bound(norm_h)) + 1, default=0)
    frame = _eigenframe(kf, dec)
    fix_bound, comm_bound = _stage_bounds(kf, frame, cfg)
    comm_res = _off_diagonal_residuals(frame, n).tolist()
    lams = dec.eigenvalues[:n].tolist()
    steps: list[PeelStep] = []
    checks: list[tuple[int | None, Check]] = []
    for k, (lam, comm, (fix, low)) in enumerate(zip(lams, comm_res, _peel_stage(frame, gap, n))):
        steps.append(PeelStep(lam, comm, fix))
        msg = f"step {k}: commutator residual {comm:.3e}"
        checks.append((k, Check("commutator", comm, comm_bound, msg)))
        msg = f"step {k}: projection not fixed, residual {fix:.3e}"
        checks.append((k, Check("fixedness", fix, fix_bound, msg)))
        msg = f"step {k}: super-fixed property lost, min eig {low:.3e}"
        checks.append((k, Check("superFixed", low, cfg.psd_bound(), msg, lower=True)))
        if not checks[-1][1].passed:
            break

    # a minus the peeled part sum_{j <= k} lambda_j p_j, one product
    peeled = dec.multiplicities[: len(steps)]
    v = dec.eigenvectors[:, : int(peeled.sum())]
    total = herm_part((v * np.repeat(lams[: len(steps)], peeled)) @ v.conj().T)
    recon = opnorm(h - total, hermitian=True)
    if all(c.passed for _, c in checks):
        msg = f"reconstruction residual {recon:.3e}"
        checks.append((None, Check("reconstruction", recon, cfg.eq_bound(norm_h), msg)))
    return PeelTrace(steps=steps, reconstruction_residual=recon, checks=checks)


def _peel_stage(frame: _Eigenframe, gap: np.ndarray, count: int):
    """(||Phi(p_k) - p_k||, min eig of Phi(rest_k) - rest_k) for k < count, one group at a time.

    rest_k = a - sum_{j <= k} lambda_j p_j, so in the eigenframe D_k = V*
    (Phi(rest_k) - rest_k) V follows D_k = D_{k-1} - lambda_k (G_k - E_k)
    from D_{-1} = V* (Phi(a) - a) V, ``gap`` being Phi(a) - a: no map call
    per step.  Up to the frame's drift in E_k, D_k is the congruence V*
    (Phi(rest_k) - rest_k) V, which keeps the signs of the eigenvalues
    (Sylvester's law of inertia) and moves them by a factor within 1 +- e.
    Each group of ``GROUP_BYTES`` takes one eigenvalue call for the norms
    and one for the minimum eigenvalues; a group is only formed when the
    caller asks for its steps, so a peel that stops early forms no more.
    """
    v = frame.dec.eigenvectors
    rest = herm_part(v.conj().T @ gap @ v)
    lams = frame.dec.eigenvalues
    group = _group(frame.dec.dim)
    for i in range(0, count, group):
        stop = min(i + group, count)
        gaps = _projection_gaps(frame, i, stop)
        rests = np.empty_like(gaps)
        for j, (lam, gap_k) in enumerate(zip(lams[i:stop].tolist(), gaps)):
            rest = rests[j] = rest - lam * gap_k
        yield from zip(opnorm(gaps, hermitian=True).tolist(), np.linalg.eigvalsh(rests)[:, 0].tolist())


# ---------------------------------------------------------------------------
# Hypothesis necessity explorer
# ---------------------------------------------------------------------------

def _random_complex(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


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
        for b in fixed_space_basis(kf).basis:
            *comms, norm_b = opnorm(np.concatenate([commutator(b, kf.operators), [b]])).tolist()
            res = max(comms)
            max_res = max(max_res, res)
            if res > cfg.eq_bound(norm_b, CONCLUSION_SLACK):
                violations.append(
                    {
                        "trial": trial,
                        "commutatorResidual": res,
                        "fixedElement": b,
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
