"""Weighted Kraus families and the completely positive map they induce.

A family is a finite list of (weight, operator) pairs; the map acts as

    Phi(a) = sum_t mu_t x_t* a x_t

and its dual as sum_t mu_t x_t a x_t*.  Weights stay explicit so both
counting-measure and quadrature-style discretizations are expressible
losslessly; internally the sqrt(mu)-scaled operators are cached.

Superoperators use the column-stacking convention

    vec(A X B) = (B^T kron A) vec(X),

so a single Kraus term contributes kron(x^T, x.conj().T).  This choice is
arbitrary but is pinned down by tests; an untested vectorization
convention is the classic bug source.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    NullspaceResult,
    ToleranceConfig,
    as_cmatrix,
    herm_part,
    nullspace_basis,
    opnorm,
    psd_min_eig,
    rel_scale,
    unvec,
    vec,
)

__all__ = [
    "DimensionMismatchError",
    "KrausFamily",
    "NormalizationReport",
    "Superoperator",
    "ChoiCheck",
    "FixedSpace",
    "apply_map",
    "dual_apply",
    "normalization_report",
    "superoperator_matrix",
    "choi_matrix",
    "choi_psd_check",
    "fixed_space_basis",
]


class DimensionMismatchError(ValueError):
    """Operator dimensions do not match the family's."""


@dataclass(frozen=True, eq=False)
class KrausFamily:
    """Finite weighted family {(mu_t, x_t)} of square complex matrices."""

    dim: int
    terms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not self.terms:
            raise ValueError("a Kraus family needs at least one term")
        checked = []
        for k, (w, x) in enumerate(self.terms):
            w = float(w)
            if not w > 0.0:
                raise ValueError(f"term {k}: weight must be strictly positive")
            m = as_cmatrix(x)
            if m.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"term {k}: operator has shape {m.shape}, expected "
                    f"({self.dim}, {self.dim})"
                )
            checked.append((w, m))
        object.__setattr__(self, "terms", tuple(checked))

    @classmethod
    def from_operators(cls, operators, weights=None) -> "KrausFamily":
        ops = [as_cmatrix(x) for x in operators]
        if not ops:
            raise ValueError("a Kraus family needs at least one term")
        if weights is None:
            weights = [1.0] * len(ops)
        return cls(dim=ops[0].shape[0], terms=tuple(zip(weights, ops)))

    @property
    def weights(self) -> list[float]:
        return [w for w, _ in self.terms]

    @property
    def operators(self) -> list[np.ndarray]:
        return [x for _, x in self.terms]

    @cached_property
    def scaled_operators(self) -> list[np.ndarray]:
        """sqrt(mu_t) x_t, so sums of scaled products realize the integrals."""
        return [np.sqrt(w) * x for w, x in self.terms]

    def __len__(self) -> int:
        return len(self.terms)


def _check_dim(kf: KrausFamily, a: np.ndarray):
    if a.shape != (kf.dim, kf.dim):
        raise DimensionMismatchError(
            f"operator of shape {a.shape} fed to a dim-{kf.dim} family"
        )


def apply_map(kf: KrausFamily, a) -> np.ndarray:
    """Phi(a) = sum mu_t x_t* a x_t.

    Hermitian input gives Hermitian output up to rounding; a caller that
    needs exact self-adjointness applies ``herm_part`` to the result.
    """
    a = as_cmatrix(a)
    _check_dim(kf, a)
    out = np.zeros_like(a)
    for s in kf.scaled_operators:
        out += s.conj().T @ a @ s
    return out


def dual_apply(kf: KrausFamily, a) -> np.ndarray:
    """The trace-dual map sum mu_t x_t a x_t*.

    Same contract as :func:`apply_map`: Hermitian output up to rounding.
    """
    a = as_cmatrix(a)
    _check_dim(kf, a)
    out = np.zeros_like(a)
    for s in kf.scaled_operators:
        out += s @ a @ s.conj().T
    return out


@dataclass(frozen=True, eq=False)
class NormalizationReport:
    """Which of the setup conditions a family satisfies.

    ``column_sum`` is sum mu x*x (unitality side); ``row_sum`` is
    sum mu x x*, the operator bounded by the identity in the setup.
    ``rigidity_holds`` records the finite-dimensional trace argument:
    unital plus sub-unital-dual forces row_sum equal to the identity.
    """

    column_sum: np.ndarray
    row_sum: np.ndarray
    is_unital: bool
    is_subunital_dual: bool
    is_trace_preserving: bool
    self_adjoint_family: bool
    rigidity_holds: bool

    def flags(self) -> dict[str, bool]:
        return {
            "isUnital": self.is_unital,
            "isSubunitalDual": self.is_subunital_dual,
            "isTracePreserving": self.is_trace_preserving,
            "selfAdjointFamily": self.self_adjoint_family,
            "rigidityHolds": self.rigidity_holds,
        }


def normalization_report(
    kf: KrausFamily, cfg: ToleranceConfig = DEFAULT_TOL
) -> NormalizationReport:
    d = kf.dim
    eye = np.eye(d)
    col = np.zeros((d, d), dtype=np.complex128)
    row = np.zeros((d, d), dtype=np.complex128)
    for s in kf.scaled_operators:
        col += s.conj().T @ s
        row += s @ s.conj().T
    col = herm_part(col)
    row = herm_part(row)
    is_unital = opnorm(col - eye) <= cfg.eq_tol * rel_scale(col)
    is_subunital = psd_min_eig(eye - row, cfg) >= -cfg.psd_tol
    is_tp = opnorm(row - eye) <= cfg.eq_tol * rel_scale(row)
    self_adjoint = all(
        opnorm(x - x.conj().T) <= cfg.eq_tol * rel_scale(x) for x in kf.operators
    )
    # Tr(row_sum) = Tr(column_sum) = d, and row_sum <= I with full trace
    # forces row_sum = I; numerically we grant a 10x slack on eq_tol.
    rigidity = (not (is_unital and is_subunital)) or (
        opnorm(row - eye) <= 10.0 * cfg.eq_tol * rel_scale(row)
    )
    return NormalizationReport(
        column_sum=col,
        row_sum=row,
        is_unital=is_unital,
        is_subunital_dual=is_subunital,
        is_trace_preserving=is_tp,
        self_adjoint_family=self_adjoint,
        rigidity_holds=rigidity,
    )


@dataclass(frozen=True, eq=False)
class Superoperator:
    """d^2 x d^2 matrix acting on column-stacked vectorizations."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (self.dim**2, self.dim**2):
            raise ValueError(
                f"superoperator matrix has shape {m.shape}, expected "
                f"({self.dim**2}, {self.dim**2})"
            )
        object.__setattr__(self, "matrix", m)


def superoperator_matrix(kf: KrausFamily) -> Superoperator:
    d = kf.dim
    s_mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for s in kf.scaled_operators:
        s_mat += np.kron(s.T, s.conj().T)
    return Superoperator(dim=d, matrix=s_mat)


def choi_matrix(sop: Superoperator) -> np.ndarray:
    """Choi matrix C = sum_ij Phi(e_ij) kron e_ij, an index reshuffle of S.

    Writing (a, b) for the flat index a*d + b, column stacking gives
    S[(q, p), (j, i)] = Phi(e_ij)[p, q] = C[(p, i), (q, j)], so C is a
    permutation of S's entries (Choi, Linear Algebra Appl. 10, 1975).
    """
    d = sop.dim
    return sop.matrix.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


@dataclass(frozen=True)
class ChoiCheck:
    is_cp: bool
    min_eig: float


def choi_psd_check(sop: Superoperator, cfg: ToleranceConfig = DEFAULT_TOL) -> ChoiCheck:
    """Complete positivity certificate via the Choi matrix's bottom eigenvalue."""
    m = psd_min_eig(herm_part(choi_matrix(sop)), cfg)
    return ChoiCheck(is_cp=m >= -cfg.psd_tol, min_eig=m)


@dataclass(frozen=True, eq=False)
class FixedSpace:
    """Hermitian HS-orthonormal basis of {a : Phi(a) = a}."""

    dimension: int
    herm_basis: list[np.ndarray]
    rank_warning: bool
    unital: bool


def _hermitian_reorthonormalize(
    candidates: list[np.ndarray], dim: int, cfg: ToleranceConfig
) -> list[np.ndarray]:
    """De-duplicate and orthonormalize a real span of Hermitian matrices.

    Hermitian matrices form a real vector space on which the HS inner
    product equals the real dot product of the (re, im) embedding, so a
    real SVD recovers an orthonormal Hermitian basis.
    """
    if not candidates:
        return []
    cols = np.stack(
        [np.concatenate([vec(h).real, vec(h).imag]) for h in candidates], axis=1
    )
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    keep = s > cfg.null_tol * max(s[0], 1e-300)
    basis = []
    for col in u[:, keep].T:
        m = unvec(col[: dim * dim] + 1j * col[dim * dim :], dim)
        basis.append(herm_part(m))
    return basis


def fixed_space_basis(
    kf: KrausFamily, cfg: ToleranceConfig = DEFAULT_TOL
) -> FixedSpace:
    """Kernel of (S - I), converted to a Hermitian basis.

    Phi commutes with the adjoint, so the kernel is *-closed and splitting
    each complex basis element into Hermitian and anti-Hermitian parts
    stays inside the fixed space.  Non-unital families are accepted (the
    kernel is still well defined) but flagged.
    """
    rep = normalization_report(kf, cfg)
    sop = superoperator_matrix(kf)
    ns: NullspaceResult = nullspace_basis(
        sop.matrix - np.eye(kf.dim**2), kf.dim, cfg
    )
    candidates = []
    for b in ns.basis:
        candidates.append(herm_part(b))
        candidates.append((b - b.conj().T) / 2.0j)
    basis = _hermitian_reorthonormalize(candidates, kf.dim, cfg)
    return FixedSpace(
        dimension=len(basis),
        herm_basis=basis,
        rank_warning=ns.rank_warning,
        unital=rep.is_unital,
    )
