"""Weighted Kraus families and the completely positive map they induce.

A family is a stack of operators x_t with weights mu_t; the map acts as

    Phi(a) = sum_t mu_t x_t* a x_t

and its dual as sum_t mu_t x_t a x_t*.  Weights stay explicit so both
counting-measure and quadrature-style discretizations are expressible
losslessly; the stack of sqrt(mu)-scaled operators is cached.  The map
is completely positive by its form: its Choi matrix is the Gram matrix
sum_t vec(s_t) vec(s_t)* of s_t = sqrt(mu_t) x_t, so only a superoperator
given directly needs :func:`choi_psd_check`.

Superoperators use the column-stacking convention

    vec(A X B) = (B^T kron A) vec(X),

so a single Kraus term contributes kron(x^T, x.conj().T).  This choice is
arbitrary but is pinned down by tests; an untested vectorization
convention is the classic bug source.

Phi commutes with a -> a*, so it is a real map on Hermitian matrices.  The
fixed space is solved in the HS-orthonormal Hermitian basis H_k, k = i + j*d:

    e_ii,  (e_ij + e_ji)/sqrt(2) for i < j,  i(e_ij - e_ji)/sqrt(2) for i > j.

With U the unitary whose columns are vec(H_k), U*(S - I)U is a real
d^2 x d^2 matrix with the singular values of S - I, and a real coordinate
matrix c (c[i, j] on H_k) is the Hermitian matrix

    diag(c) + (triu(c, 1) + triu(c, 1)^T + i(tril(c, -1) - tril(c, -1)^T))/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    Check,
    NullspaceResult,
    ToleranceConfig,
    as_cmatrix,
    herm_part,
    nullspace_basis,
    opnorm,
    require_finite,
)

__all__ = [
    "DimensionMismatchError",
    "KrausFamily",
    "NormalizationReport",
    "Superoperator",
    "apply_map",
    "dual_apply",
    "is_unital",
    "normalization_report",
    "superoperator_matrix",
    "choi_matrix",
    "choi_psd_check",
    "fixed_space_basis",
]


class DimensionMismatchError(ValueError):
    """Operator dimensions do not match the family's."""


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, read-only: a cached array is shared by every caller."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class KrausFamily:
    """Finite weighted family {(mu_t, x_t)} of square complex matrices.

    Built from ``dim`` and the (weight, operator) pairs ``terms``, and held
    as two read-only stacks in term order: the (n,) ``weights`` and the
    (n, d, d) ``operators``.
    """

    weights: np.ndarray
    operators: np.ndarray

    def __init__(self, dim: int, terms):
        terms = list(terms)
        if dim < 1:
            raise ValueError("dim must be positive")
        if not terms:
            raise ValueError("a Kraus family needs at least one term")
        weights, ops = [], []
        for k, (w, x) in enumerate(terms):
            weights.append(float(w))
            if not 0.0 < weights[-1] < math.inf:
                raise ValueError(f"term {k}: weight must be finite and strictly positive")
            ops.append(as_cmatrix(x))
            if ops[-1].shape != (dim, dim):
                raise DimensionMismatchError(
                    f"term {k}: operator has shape {ops[-1].shape}, expected ({dim}, {dim})"
                )
        object.__setattr__(self, "weights", _frozen(np.array(weights)))
        object.__setattr__(self, "operators", _frozen(np.stack(ops)))

    @classmethod
    def from_operators(cls, operators, weights=None) -> "KrausFamily":
        """The family of ``operators``, each of weight 1 unless ``weights`` are given."""
        ops = [as_cmatrix(x) for x in operators]
        weights = [1.0] * len(ops) if weights is None else weights
        return cls(ops[0].shape[0] if ops else 1, zip(weights, ops, strict=True))

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    @cached_property
    def scaled_operators(self) -> np.ndarray:
        """The stack of sqrt(mu_t) x_t, so sums of scaled products realize the integrals."""
        return _frozen(np.sqrt(self.weights)[:, None, None] * self.operators)

    @cached_property
    def operator_norms(self) -> np.ndarray:
        """||x_t|| for every term, in one stacked norm call."""
        return _frozen(opnorm(self.operators))

    @cached_property
    def column_sum(self) -> np.ndarray:
        """sum mu x*x, symmetrized: the unitality side.

        Raises ValueError when the sum overflows, as does ``row_sum``.
        """
        return require_finite("column sum (sum mu x*x)", self._gram(lambda s: s.conj().T @ s))

    @cached_property
    def row_sum(self) -> np.ndarray:
        """sum mu x x*, symmetrized: the operator the setup bounds by I."""
        return require_finite("row sum (sum mu x x*)", self._gram(lambda s: s @ s.conj().T))

    def _gram(self, product) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for s in self.scaled_operators:
                out += product(s)
            return _frozen(herm_part(out))


def _operand(kf: KrausFamily, a) -> np.ndarray:
    """``a`` as a finite complex (d, d) matrix or (k, d, d) stack of them."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 3:
        m = as_cmatrix(m)
    elif not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    if m.shape[-2:] != (kf.dim, kf.dim):
        raise DimensionMismatchError(
            f"operator of shape {m.shape} fed to a dim-{kf.dim} family"
        )
    return m


def apply_map(kf: KrausFamily, a) -> np.ndarray:
    """Phi(a) = sum mu_t x_t* a x_t, of a matrix or of each matrix of a (k, d, d) stack.

    A stack runs the same loop over Kraus terms with broadcast products, so
    each image equals the image of its matrix alone bit for bit.
    Hermitian input gives Hermitian output up to rounding; a caller that
    needs exact self-adjointness applies ``herm_part`` to the result.
    """
    a = _operand(kf, a)
    out = np.zeros_like(a)
    for s in kf.scaled_operators:
        out += s.conj().T @ a @ s
    return out


def dual_apply(kf: KrausFamily, a) -> np.ndarray:
    """The trace-dual map sum mu_t x_t a x_t*.

    Same contract as :func:`apply_map`: Hermitian output up to rounding.
    """
    a = _operand(kf, a)
    out = np.zeros_like(a)
    for s in kf.scaled_operators:
        out += s @ a @ s.conj().T
    return out


@dataclass(frozen=True, eq=False)
class NormalizationReport:
    """Which of the setup conditions a family satisfies.

    The sums the flags are read from are the family's cached
    ``column_sum`` and ``row_sum``.  ``rigidity_holds`` records the
    finite-dimensional trace argument: unital plus sub-unital-dual forces
    row_sum equal to the identity.
    """

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


def is_unital(kf: KrausFamily, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """``normalization_report(kf, cfg).is_unital``, from the cached column sum alone.

    The same rule: ||col - I|| <= ``cfg.eq_bound(||col||)``, by ``cfg.norm_within``.
    """
    return cfg.norm_within(kf.column_sum - np.eye(kf.dim), kf.column_sum)


def normalization_report(
    kf: KrausFamily, cfg: ToleranceConfig = DEFAULT_TOL
) -> NormalizationReport:
    """Every flag from the family's cached sums.

    Each "= I" and self-adjointness flag is a rule ||dev|| <=
    ``cfg.eq_bound(||m||)`` on a deviation of m, all decided in one
    ``cfg.norm_within`` call, from Frobenius norms with an SVD only near a
    bound; ``is_unital`` is the rule of :func:`is_unital`.
    """
    eye = np.eye(kf.dim)
    col, row = kf.column_sum, kf.row_sum
    xs = kf.operators
    devs = np.concatenate([[col - eye, row - eye], xs - xs.conj().transpose(0, 2, 1)])
    unital, is_tp, *self_adjoint = cfg.norm_within(devs, np.concatenate([[col, row], xs])).tolist()
    is_subunital = cfg.psd_check("subunitalDual", eye - row).passed
    # Tr(row_sum) = Tr(column_sum) = d, and row_sum <= I with full trace
    # forces row_sum = I; numerically we grant a 10x slack on eq_tol, which
    # is_tp already grants with slack 1.
    rigidity = not (unital and is_subunital) or is_tp or cfg.norm_within(row - eye, row, slack=10.0)
    return NormalizationReport(
        is_unital=unital,
        is_subunital_dual=is_subunital,
        is_trace_preserving=is_tp,
        self_adjoint_family=all(self_adjoint),
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


# the temporaries of the dense passes over S are cut into blocks of about
# this size: below d = 9 a pass takes one block, as one vectorized call
BLOCK_BYTES = 1 << 16


def superoperator_matrix(kf: KrausFamily) -> Superoperator:
    """S = sum_t kron(s_t^T, s_t*), summed in term order into one buffer.

    Each term is the broadcast product that ``np.kron`` forms, written in
    blocks of leading slices into a reused buffer of at most
    ``BLOCK_BYTES`` (one (d, d, d) slice when that is larger) and added to
    S, so S is bit for bit the kron sum.  Working set, in units of 16 d^4
    bytes: 1 plus that block, which is 1/d from d = 16 on.
    """
    d = kf.dim
    s_mat = np.zeros((d, d, d, d), dtype=np.complex128)
    rows = max(1, BLOCK_BYTES // s_mat[0].nbytes)
    term = np.empty((min(rows, d), d, d, d), dtype=np.complex128)
    for s in kf.scaled_operators:
        left = np.ascontiguousarray(s.T)[:, None, :, None]
        right = np.ascontiguousarray(s.conj().T)[None, :, None, :]
        for lo in range(0, d, rows):
            out = s_mat[lo : lo + rows]
            out += np.multiply(left[lo : lo + rows], right, out=term[: len(out)])
    return Superoperator(dim=d, matrix=s_mat.reshape(d * d, d * d))


def choi_matrix(sop: Superoperator) -> np.ndarray:
    """Choi matrix C = sum_ij Phi(e_ij) kron e_ij, an index reshuffle of S.

    Writing (a, b) for the flat index a*d + b, column stacking gives
    S[(q, p), (j, i)] = Phi(e_ij)[p, q] = C[(p, i), (q, j)], so C is a
    permutation of S's entries (Choi, Linear Algebra Appl. 10, 1975).
    C is a new array, never a view of S, even at d = 1.
    """
    d = sop.dim
    return sop.matrix.reshape(d, d, d, d).transpose(1, 3, 0, 2).copy().reshape(d * d, d * d)


def choi_psd_check(sop: Superoperator, cfg: ToleranceConfig = DEFAULT_TOL) -> Check:
    """CP certificate: the Choi min eig must be >= ``cfg.psd_bound(||C||)``.

    The value is that of ``eigvalsh(herm_part(choi_matrix(sop)))`` bit for
    bit.  Once ``choi_matrix`` has copied C out of S, the reference to
    ``sop`` is dropped, so a superoperator built for this call alone, as in
    ``choi_psd_check(superoperator_matrix(kf))``, is freed (from Python
    3.11, whose calls hand their arguments to the callee's frame); C is
    then symmetrized in place with ``herm_part``'s add and halving.
    Working set, in units of 16 d^4 bytes: 2, C and either C* or the copy
    ``eigvalsh`` hands to LAPACK, plus S while a caller holds it.
    """
    c = choi_matrix(sop)
    del sop
    np.add(c, c.conj().T, out=c)
    c /= 2.0
    w = np.linalg.eigvalsh(c)
    m = float(w[0])
    bound = cfg.psd_bound(float(np.abs(w).max()))
    return Check("choiMinEig", m, bound, f"Choi min eigenvalue {m:.3e}", lower=True)


_SQRT_HALF = math.sqrt(0.5)


def _pair_rows(m: np.ndarray, phase: complex) -> None:
    """Overwrite ``m`` with U^T m for ``phase`` 1j, with U* m for -1j, in O(d^2) work per column.

    Row i + j*d of ``m`` belongs to the entry (i, j).  For i < j, row (i, j)
    becomes the sum of rows (i, j) and (j, i), and row (j, i) becomes
    ``phase`` times (row (j, i) - row (i, j)), both over sqrt(2).  Diagonal
    rows stay.  The pairs are rewritten in blocks through a (d, d, -1) view
    of ``m``, so the temporaries hold a few ``BLOCK_BYTES`` (two rows when
    that is larger).
    """
    d = math.isqrt(m.shape[0])
    # a view for m and for m.T alike: g[j, i] is the row of the entry (i, j)
    g = m.reshape(d, d, -1)
    i, j = np.triu_indices(d, 1)
    step = max(1, BLOCK_BYTES // g[0, 0].nbytes)
    for lo in range(0, len(i), step):
        bi, bj = i[lo : lo + step], j[lo : lo + step]
        upper, lower = g[bj, bi], g[bi, bj]
        g[bj, bi] = (upper + lower) * _SQRT_HALF
        g[bi, bj] = phase * (lower - upper) * _SQRT_HALF


def _hermitian(c: np.ndarray) -> np.ndarray:
    """The exactly Hermitian matrix with real coordinates c in the basis H_k."""
    lo, up = np.tril(c, -1), np.triu(c, 1)
    return np.diag(np.diag(c)) + (up + up.T + 1j * (lo - lo.T)) * _SQRT_HALF


def fixed_space_basis(kf: KrausFamily) -> NullspaceResult:
    """HS-orthonormal Hermitian basis of {a : Phi(a) = a}.

    One rank decision: the kernel of the real matrix U*(S - I)U (module
    docstring), whose singular values are those of S - I, cut relative to
    at least the scale 1 of its identity part.  Non-unital families are
    accepted; the kernel is still well defined.

    S is turned into U*(S - I)U in its own buffer and dropped once its real
    part is copied out, so the working set before the SVD is, in units of
    16 d^4 bytes, 1.5: S and that real system.
    """
    d = kf.dim
    a = superoperator_matrix(kf).matrix
    a.reshape(-1)[:: d * d + 1] -= 1.0
    _pair_rows(a.T, 1j)
    _pair_rows(a, -1j)
    system = a.real.copy()
    del a
    ns = nullspace_basis(system, d, scale=1.0)
    return replace(ns, basis=[_hermitian(c) for c in ns.basis])
