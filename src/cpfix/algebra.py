"""Commutants and block von Neumann algebras with weighted traces.

In finite dimensions every von Neumann algebra is, up to unitary
conjugation, a direct sum of full matrix blocks; :class:`BlockAlgebra`
fixes that basis so membership checks stay linear.  The weighted block
trace is the finite model of a separating family of normal semi-finite
traces: every element is finite here, but the trace computations are
still performed with genuine weights rather than assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_cmatrix,
    matrix_units,
    nullspace_basis,
    opnorm,
    rel_scale,
)
from .channel import KrausFamily

__all__ = [
    "MembershipError",
    "BlockAlgebra",
    "OperatorBasis",
    "commutant_basis",
    "trace_tau",
    "invariance_check",
]


class MembershipError(ValueError):
    """An operator is not (numerically) an element of the block algebra."""


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of full matrix blocks with positive trace weights."""

    block_dims: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "block_dims", tuple(int(d) for d in self.block_dims))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.block_dims:
            raise ValueError("need at least one block")
        if any(d < 1 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")
        if len(self.weights) != len(self.block_dims):
            raise ValueError("one trace weight per block required")
        if any(not w > 0.0 for w in self.weights):
            raise ValueError("trace weights must be strictly positive")

    @classmethod
    def full(cls, dim: int, weight: float = 1.0) -> "BlockAlgebra":
        """The whole matrix algebra with a single (weighted) trace."""
        return cls(block_dims=(dim,), weights=(weight,))

    @property
    def dim(self) -> int:
        return sum(self.block_dims)

    @cached_property
    def slices(self) -> list[slice]:
        out, start = [], 0
        for d in self.block_dims:
            out.append(slice(start, start + d))
            start += d
        return out

    @cached_property
    def block_mask(self) -> np.ndarray:
        mask = np.zeros((self.dim, self.dim), dtype=bool)
        for s in self.slices:
            mask[s, s] = True
        return mask

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Central element W with trace_tau(a) = Tr(W a) for a in the algebra."""
        w = np.zeros(self.dim)
        for s, wt in zip(self.slices, self.weights):
            w[s] = wt
        return np.diag(w).astype(np.complex128)

    def off_block_mass(self, a: np.ndarray) -> float:
        return opnorm(np.where(self.block_mask, 0.0, a))

    def contains(self, a: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        return self.off_block_mass(a) <= cfg.eq_tol * rel_scale(a)


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """HS-orthonormal list of matrices spanning some operator subspace."""

    dimension: int
    elements: list[np.ndarray]
    rank_warning: bool = False


def commutant_basis(
    family: list[np.ndarray],
    cfg: ToleranceConfig = DEFAULT_TOL,
    dim: int | None = None,
) -> OperatorBasis:
    """Orthonormal basis of {a : a x = x a for every x in the family}.

    Solves the stacked linear system (x a - a x)_x = 0 on vectorized
    matrices; an empty family yields the full matrix space (``dim`` must
    then be supplied).
    """
    family = [as_cmatrix(x) for x in family]
    if not family:
        if dim is None:
            raise ValueError("commutant of an empty family needs an explicit dimension")
        return full_matrix_basis(dim)
    d = family[0].shape[0]
    for x in family:
        if x.shape != (d, d):
            raise ValueError("family members must share one dimension")
    eye = np.eye(d)
    rows = [np.kron(eye, x) - np.kron(x.T, eye) for x in family]
    ns = nullspace_basis(np.vstack(rows), d, cfg)
    return OperatorBasis(
        dimension=len(ns.basis), elements=ns.basis, rank_warning=ns.rank_warning
    )


def full_matrix_basis(dim: int) -> OperatorBasis:
    return OperatorBasis(dimension=dim * dim, elements=matrix_units(dim))


def trace_tau(
    alg: BlockAlgebra, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Weighted block trace sum_i w_i Tr(a_i).

    Rejects operators with off-block mass beyond tolerance.  The value is
    real for self-adjoint arguments; the real part is returned.
    """
    a = as_cmatrix(a)
    if a.shape != (alg.dim, alg.dim):
        raise ValueError(f"operator of shape {a.shape} fed to a dim-{alg.dim} algebra")
    mass = alg.off_block_mass(a)
    if mass > cfg.eq_tol * rel_scale(a):
        raise MembershipError(
            f"off-block mass {mass:.3e} exceeds tolerance; operator is not in the algebra"
        )
    total = 0.0
    for s, w in zip(alg.slices, alg.weights):
        total += w * np.trace(a[s, s]).real
    return float(total)


def invariance_check(
    kf: KrausFamily, alg: BlockAlgebra, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Whether the map sends the block algebra into itself.

    Each block matrix unit e_ij passes :meth:`BlockAlgebra.contains`'s test:
    off-block norm of Phi(e_ij) <= eq_tol * max(1, ||Phi(e_ij)||).  A one-block
    algebra passes at once.  No map is applied: Phi(e_ij) = sum_t conj(s_t[i])^T
    s_t[j] from rows of the scaled operators, for all j of a k-block at once
    (k * d^2 entries per batch).
    """
    if alg.dim != kf.dim:
        raise ValueError("algebra and family dimensions differ")
    if len(alg.block_dims) == 1:
        return True
    ops = np.stack(kf.scaled_operators)
    for s in alg.slices:
        for i in range(s.start, s.stop):
            images = np.einsum("tp,tjq->jpq", ops[:, i, :].conj(), ops[:, s, :])
            off = np.linalg.norm(np.where(alg.block_mask, 0.0, images), 2, axis=(1, 2))
            scale = np.maximum(1.0, np.linalg.norm(images, 2, axis=(1, 2)))
            if np.any(off > cfg.eq_tol * scale):
                return False
    return True
