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
    NullspaceResult,
    ToleranceConfig,
    as_cmatrix,
    nullspace_basis,
    opnorm,
)
from .channel import KrausFamily

__all__ = [
    "MembershipError",
    "BlockAlgebra",
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
        if any(not 0.0 < w < np.inf for w in self.weights):
            raise ValueError("trace weights must be finite and strictly positive")

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

    def off_block_mass(self, a: np.ndarray) -> float | np.ndarray:
        """Spectral norm of the off-block part of a matrix, or of each matrix of a stack.

        A (k, d, d) stack gives an array of k norms.  An off-block part that is
        exactly zero, as every part is for one block, costs no SVD.
        """
        off = np.where(self.block_mask, 0.0, a)
        leaks = off.any(axis=(-2, -1))
        mass = np.zeros(leaks.shape)
        mass[leaks] = opnorm(off[leaks])
        return float(mass) if off.ndim == 2 else mass

    def contains(self, a: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Whether ``a``, or every matrix m of a (k, d, d) stack, is in the algebra.

        The one membership rule: off-block norm of m <= ``cfg.eq_bound(||m||)``.
        Only a matrix with a nonzero off-block part pays for ||m||.
        """
        stack = np.asarray(a)
        stack = stack.reshape(-1, *stack.shape[-2:])
        mass = self.off_block_mass(stack)
        leaks = mass != 0.0
        norms = opnorm(stack[leaks]).tolist()
        return all(m <= cfg.eq_bound(n) for m, n in zip(mass[leaks].tolist(), norms))

    def trace(self, a: np.ndarray) -> float:
        """sum_i w_i Re Tr(a_i) over the diagonal blocks, with no membership test."""
        total = 0.0
        for s, w in zip(self.slices, self.weights):
            total += w * np.trace(a[s, s]).real
        return float(total)


def commutant_basis(
    family: list[np.ndarray], cfg: ToleranceConfig = DEFAULT_TOL
) -> NullspaceResult:
    """Orthonormal basis of {a : a x = x a for every x in the family}.

    Solves the stacked linear system (x a - a x)_x = 0 on vectorized
    matrices, with rank cut relative to at least max ||x||.  The family must
    be non-empty, with members of one shape.  Block t of the system is
    kron(I, x_t) - kron(x_t^T, I), written entry by entry: as a (d, d, d, d)
    array indexed [i, k, j, l] it is x_t[k, l] on i = j minus x_t[j, i] on
    k = l.
    """
    if not family:
        raise ValueError("the commutant needs at least one family member")
    xs = np.stack([as_cmatrix(x) for x in family])
    n, d = xs.shape[:2]
    system = np.zeros((n, d, d, d, d), dtype=np.complex128)
    r = np.arange(d)
    system[:, r, :, r, :] = xs
    system[:, :, r, :, r] -= xs.transpose(0, 2, 1)
    return nullspace_basis(system.reshape(-1, d * d), d, cfg, float(opnorm(xs).max()))


def trace_tau(
    alg: BlockAlgebra, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Weighted block trace sum_i w_i Tr(a_i).

    Rejects operators that :meth:`BlockAlgebra.contains` rejects.  The value
    is real for self-adjoint arguments; the real part is returned.
    """
    a = as_cmatrix(a)
    if a.shape != (alg.dim, alg.dim):
        raise ValueError(f"operator of shape {a.shape} fed to a dim-{alg.dim} algebra")
    if not alg.contains(a, cfg):
        raise MembershipError(
            f"off-block mass {alg.off_block_mass(a):.3e} exceeds tolerance; "
            "operator is not in the algebra"
        )
    return alg.trace(a)


def invariance_check(
    kf: KrausFamily, alg: BlockAlgebra, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Whether the map sends the block algebra into itself.

    Each block matrix unit e_ij passes :meth:`BlockAlgebra.contains`.  A
    one-block algebra passes at once.  No map is applied: Phi(e_ij) =
    sum_t conj(s_t[i])^T s_t[j] from rows of the scaled operators, for all j of
    a k-block at once (k * d^2 entries per batch).
    """
    if alg.dim != kf.dim:
        raise ValueError("algebra and family dimensions differ")
    if len(alg.block_dims) == 1:
        return True
    ops = np.stack(kf.scaled_operators)
    for s in alg.slices:
        for i in range(s.start, s.stop):
            images = np.einsum("tp,tjq->jpq", ops[:, i, :].conj(), ops[:, s, :])
            if not alg.contains(images, cfg):
                return False
    return True
