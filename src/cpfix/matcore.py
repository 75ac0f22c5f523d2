"""Dense complex matrix primitives shared by every other module.

All matrices are plain ``numpy.ndarray`` with complex128 entries and are
treated as immutable.  The Hermitian boundary is two functions:

* :func:`herm_part` is the one symmetrizer, m/2 + m*/2.  Values that are
  Hermitian by construction (Phi(a) - a, sum mu x*x, eigenprojections) go
  through it unchecked: their rounding grows with their scale.  Its
  output is exactly Hermitian.
* :func:`hermitize` is the one Hermiticity check.  It rejects a deviation
  from self-adjointness above ``cfg.eq_tol`` and then symmetrizes, and it
  tests the deviation only when ``a`` is not exactly Hermitian, so
  ``herm_part`` output (and its difference with a real diagonal matrix)
  passes through ``herm_eig``, ``mat_func`` and ``psd_min_eig`` for free.

Downstream code assumes exact self-adjointness after that.  Every norm a
rule compares is a spectral norm.  A norm that is printed, or feeds a
printed number, is measured by :func:`opnorm`; a "within tolerance"
decision whose norms are never printed is made by
:meth:`ToleranceConfig.norm_within`, from Frobenius norms, with an SVD only
for a pair too close to its bound to tell.  Every "= 0" and ">= 0"
threshold is a :class:`ToleranceConfig` bound; the two cuts no option sets
are the constants ``CLUSTER_GAP`` (:func:`eigen_clusters`) and ``NULL_TOL``
(:func:`nullspace_basis`), and :func:`near_cut` is the one rule that calls a
decision ambiguous.

:func:`opnorm` takes one matrix or a (..., m, n) stack of them.  A stack
costs one LAPACK call, and each of its norms is bit for bit the norm of
that matrix alone, so a pipeline stage measures all of its residuals at
once without changing a single reported digit.  The norm of an exactly
Hermitian matrix is its largest |eigenvalue| (``hermitian=True``), one
eigenvalue call in place of the singular values; non-Hermitian blocks and
commutators keep the SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "HermiticityError",
    "PreconditionError",
    "CLUSTER_GAP",
    "NULL_TOL",
    "AMBIGUITY",
    "ToleranceConfig",
    "Check",
    "SpectralDecomposition",
    "NullspaceResult",
    "as_cmatrix",
    "require_finite",
    "herm_part",
    "hermitize",
    "opnorm",
    "vec",
    "commutator",
    "near_cut",
    "eigen_clusters",
    "herm_eig",
    "mat_func",
    "psd_min_eig",
    "nullspace_basis",
]


class DomainError(ValueError):
    """A spectral function was evaluated outside its declared domain."""


class HermiticityError(ValueError):
    """Input matrix is too far from self-adjoint to symmetrize silently."""


class PreconditionError(ValueError):
    """A named hypothesis of a verification pipeline is violated."""


# Neighbouring eigenvalues more than CLUSTER_GAP * max(1, max |lambda|) apart
# belong to different spectral projections (:func:`eigen_clusters`).
CLUSTER_GAP = 1e-8
# The rank cut of :func:`nullspace_basis`, relative to max(s_max, scale).
NULL_TOL = 1e-10
# A value within this factor of its cut is ambiguous (:func:`near_cut`).
AMBIGUITY = 10.0
# The widening of the Frobenius norms that ToleranceConfig.norm_within decides
# from, relative and absolute: the rounding of the two norms it brackets.
_FROBENIUS_MARGIN = 1e-6
_UNDERFLOW = 2.0**-500


@dataclass(frozen=True)
class ToleranceConfig:
    """The two tolerances the CLI sets, ``--tol`` and ``--psd-tol``.

    Both are dimensionless and relative to ``max(1, scale)``; only the
    bound methods below read ``eq_tol`` and ``psd_tol``.
    """

    eq_tol: float = 1e-9
    psd_tol: float = 1e-8

    def __post_init__(self):
        for name in ("eq_tol", "psd_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")

    def eq_bound(self, scale: float = 0.0, slack: float = 1.0) -> float:
        """Upper bound slack * eq_tol * max(1, scale) on an equality residual."""
        return slack * self.eq_tol * max(1.0, scale)

    def psd_bound(self, scale: float = 0.0) -> float:
        """Lower bound -psd_tol * max(1, scale) on a smallest eigenvalue."""
        return -self.psd_tol * max(1.0, scale)

    def norm_within(self, dev, scale, slack: float = 1.0) -> bool | np.ndarray:
        """``opnorm(dev) <= self.eq_bound(opnorm(scale), slack)``, with an SVD only near the bound.

        ``dev`` and ``scale`` are matrices of one shape (m, n), or (..., m,
        n) stacks of them; a stack gives a bool array of shape (...).  With
        r = min(m, n), ||M||_F / sqrt(r) <= ||M||_2 <= ||M||_F, and
        ``eq_bound`` grows with its scale, so a pair is decided from its two
        Frobenius norms when the whole band agrees: within when ||dev||_F
        <= eq_bound(||scale||_F / sqrt(r)), beyond when ||dev||_F / sqrt(r)
        > eq_bound(||scale||_F).  Only the pairs between, and every pair
        with a non-finite Frobenius norm, go to one stacked :func:`opnorm`
        call and the rule itself, so NaN and inf entries give the rule's
        result, or its SVD's exception.

        The decision is the one that rule makes on the computed SVD values.
        Each Frobenius norm is widened by the relative margin
        ``_FROBENIUS_MARGIN`` = 1e-6 and the absolute ``_UNDERFLOW`` =
        2^-500.  The computed ||M||_F is within gamma_{mn+2} of the exact one
        (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
        ch. 3), plus sqrt(mn) 2^-537 from squares that underflow; LAPACK's
        sigma_max is within p(m, n) u ||M||_2 of the exact one, p a modest
        function of the dimensions (LAPACK Users' Guide, 3rd ed., 4.9).
        The margin is 1e10 units of roundoff u, so it covers both for every
        matrix with p(m, n) + mn below 1e9.
        """
        shape = np.shape(dev)
        # pairs[k] = (dev_k, scale_k)
        pairs = np.stack([dev, scale], axis=-3).reshape(math.prod(shape[:-2]), 2, *shape[-2:])
        with np.errstate(over="ignore", invalid="ignore"):
            frob = np.linalg.norm(pairs, axis=(-2, -1))
        high = frob * (1.0 + _FROBENIUS_MARGIN) + _UNDERFLOW
        low = (frob / (1.0 + _FROBENIUS_MARGIN) - _UNDERFLOW) / math.sqrt(max(1, min(shape[-2:])))
        bound = slack * self.eq_tol
        finite = np.isfinite(frob[:, 0] + frob[:, 1])
        within = finite & (high[:, 0] <= bound * np.maximum(1.0, low[:, 1]))
        band = ~within & ~(finite & (low[:, 0] > bound * np.maximum(1.0, high[:, 1])))
        if band.any():
            norms = opnorm(pairs[band])
            within[band] = [d <= self.eq_bound(s, slack) for d, s in norms.tolist()]
        return bool(within[0]) if len(shape) == 2 else within.reshape(shape[:-2])

    def psd_check(self, name: str, m, failure: str = "") -> Check:
        """``m >= 0`` as a Check, ``m`` the matrix or its held least eigenvalue; ``failure``'s ``{:.3e}`` field gets it."""
        value = float(m) if np.ndim(m) == 0 else psd_min_eig(m, self)
        return Check(name, value, self.psd_bound(), failure.format(value), lower=True)


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class Check:
    """One asserted inequality: a residual ``value`` against its ``bound``.

    An upper bound passes when value <= bound, a ``lower`` one when
    value >= bound.  ``margin`` is the signed distance on the passing side,
    so a NaN residual fails.  ``failure`` is the message shown when it fails.
    """

    name: str
    value: float
    bound: float
    failure: str = ""
    lower: bool = False

    @property
    def margin(self) -> float:
        return self.value - self.bound if self.lower else self.bound - self.value

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0

    def require(self) -> None:
        """Raise :class:`PreconditionError` with ``failure`` unless the check passed."""
        if not self.passed:
            raise PreconditionError(self.failure)


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def require_finite(name: str, a: np.ndarray) -> np.ndarray:
    """``a``, or a ValueError naming it when an entry overflowed to inf or NaN."""
    if not np.all(np.isfinite(a)):
        raise ValueError(f"the {name} overflows double precision")
    return a


def opnorm(a: np.ndarray, hermitian: bool = False) -> float | np.ndarray:
    """Spectral norm (largest singular value) of a matrix or of each matrix of a stack.

    A 2-D ``a`` gives a float; a (..., m, n) stack gives an array of shape
    (...).  Both run the singular-value routine of ``np.linalg.norm(., 2)``,
    so a stacked norm equals the norm of its matrix alone bit for bit.  An
    empty matrix has norm 0.  ``hermitian=True`` is for exactly Hermitian
    matrices, such as :func:`herm_part` output: the norm is then the largest
    |eigenvalue|, from the eigenvalue routine of ``np.linalg.eigvalsh``,
    which reads only the lower triangle and is cheaper than the SVD; a
    stacked norm again equals the single one bit for bit.
    """
    a = np.asarray(a)
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    elif hermitian:
        w = np.linalg.eigvalsh(a)
        norms = np.maximum(-w[..., 0], w[..., -1])
    else:
        norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(norms) if a.ndim == 2 else norms


def herm_part(m: np.ndarray) -> np.ndarray:
    """m/2 + m*/2 of a matrix or of each matrix of a stack, for values Hermitian by construction.

    Halving first is exact but for subnormals, and overflows on no finite m, as m + m* can.
    """
    half = m * 0.5
    half += np.swapaxes(half.conj(), -1, -2)
    return half


def hermitize(a, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Symmetrize ``a``, rejecting a deviation above ``cfg.eq_tol``.

    The deviation is only tested when ``a`` is not exactly Hermitian, by
    :meth:`ToleranceConfig.norm_within`, and only measured for the message
    of a rejection.
    """
    m = as_cmatrix(a)
    if not np.array_equal(m, m.conj().T):
        with np.errstate(over="ignore"):
            dev = m - m.conj().T
        if not np.all(np.isfinite(dev)):
            raise HermiticityError("the deviation from self-adjointness (a - a*) overflows double precision")
        if not cfg.norm_within(dev, m):
            dev, scale = opnorm(np.stack([dev, m])).tolist()
            raise HermiticityError(
                f"matrix deviates from self-adjointness by {dev:.3e} (tolerance {cfg.eq_bound(scale):.3e})"
            )
    return herm_part(m)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(AXB) = (B^T kron A) vec(X)."""
    return np.ravel(x, order="F")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def near_cut(values: np.ndarray, cut: float) -> bool:
    """Whether any of ``values`` lies within a factor ``AMBIGUITY`` of ``cut``."""
    return bool(np.any((values > cut / AMBIGUITY) & (values < cut * AMBIGUITY)))


def eigen_clusters(w: np.ndarray) -> tuple[np.ndarray, bool]:
    """The first index of each eigenvalue cluster of ascending ``w``, and whether the cut is ambiguous.

    A gap between neighbours above the cut ``CLUSTER_GAP * max(1, max |w|)``
    starts a new cluster, so distinct clusters are more than the cut apart:
    the gap a spectral projection needs to be stable (the Davis-Kahan sin
    theta theorem).  The cut is ambiguous when a gap is :func:`near_cut`.
    """
    cut = CLUSTER_GAP * max(1.0, abs(w[0]), abs(w[-1]))
    gaps = np.diff(w)
    return np.concatenate([[0], np.flatnonzero(gaps > cut) + 1]), near_cut(gaps, cut)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Clustered eigendecomposition a = sum_n lambda_n p_n, held as a's eigenframe.

    Eigenvalues are strictly decreasing after clustering.  ``eigenvectors``
    is a's orthonormal eigenframe V, clusters in order: projection n is
    p_n = V_n V_n*, V_n the next ``multiplicities[n]`` columns, so the
    family is Hermitian, idempotent, mutually orthogonal and sums to the
    identity; no projection is stored.  ``spectrum`` holds the
    eigensolver's eigenvalues before clustering, descending, one per column
    of V, so a = V diag(spectrum) V* up to the eigensolver's rounding.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    spectrum: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def norm(self) -> float:
        """The spectral norm of a, max |lambda| over ``spectrum``: exactly the number the clustering cut scales with."""
        return float(max(abs(self.spectrum[0]), abs(self.spectrum[-1])))

    def apply(self, f, domain: tuple[float, float] | None = None) -> np.ndarray:
        """Spectral evaluation sum f(lambda_n) p_n = V f(Lambda) V* of a scalar function.

        ``domain``, if given, is an open interval every clustered eigenvalue
        must lie in; a violation raises :class:`DomainError` naming the
        first offending eigenvalue, before ``f`` is evaluated.  One
        decomposition serves any number of functions of the same matrix.
        """
        if domain is not None:
            outside = [lam for lam in self.eigenvalues if not domain[0] < lam < domain[1]]
            if outside:
                raise DomainError(
                    f"eigenvalue {outside[0]} outside open domain ({domain[0]}, {domain[1]})"
                )
        values = np.repeat([float(f(lam)) for lam in self.eigenvalues], self.multiplicities)
        v = self.eigenvectors
        return herm_part((v * values) @ v.conj().T)


def herm_eig(a, cfg: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with eigenvalue clustering.

    Each cluster of :func:`eigen_clusters` spans one spectral projection;
    the argument downstream quantifies over spectral projections, which are
    unstable under degeneracy splitting.  An ambiguous cut still answers.
    """
    w, v = np.linalg.eigh(hermitize(a, cfg))
    # descending order; -w ascends, with the same gaps
    w = w[::-1]
    bounds = np.append(eigen_clusters(-w)[0], w.size)
    means = [float(np.mean(w[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return SpectralDecomposition(
        eigenvalues=np.array(means),
        multiplicities=np.diff(bounds),
        spectrum=w,
        eigenvectors=v[:, ::-1],
    )


def mat_func(
    f,
    a,
    cfg: ToleranceConfig = DEFAULT_TOL,
    domain: tuple[float, float] | None = None,
) -> np.ndarray:
    """Spectral evaluation of ``f`` on ``a``; see :meth:`SpectralDecomposition.apply`."""
    return herm_eig(a, cfg).apply(f, domain)


def psd_min_eig(a, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Realizes every ">= 0" assertion as a number; ``cfg.psd_check`` compares
    it against ``cfg.psd_bound()``.  ``a`` is checked by :func:`hermitize`.
    """
    return float(np.linalg.eigvalsh(hermitize(a, cfg))[0])


@dataclass(frozen=True, eq=False)
class NullspaceResult:
    """Kernel basis of a linear map on matrices, plus rank diagnostics.

    Also the record of ``fixed_space_basis`` and ``commutant_basis``, and of
    ``AlgebraStructure.commutant``, the basis of the structure path
    (``structure_fixed_space``, ``structure_commutant``), which the CLI
    asks first for ``fix`` and ``commutant``.  That path solves no linear
    system: its ``singular_values`` is empty, and its ``rank_warning`` is
    False because it answers only when it has bounded every singular value
    of the dense system away from the rank threshold by more than a factor
    ``AMBIGUITY``; otherwise the CLI runs the dense kernel.
    """

    basis: list[np.ndarray]
    rank_warning: bool
    singular_values: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.basis)


def nullspace_basis(system: np.ndarray, dim: int, scale: float = 0.0) -> NullspaceResult:
    """HS-orthonormal basis of {m : system @ vec(m) = 0}.

    ``system`` has shape (rows, dim*dim) and acts on column-stacked
    vectorizations.  The rank threshold is ``NULL_TOL * max(s_max, scale)``:
    the caller's ``scale`` is the size of the map the system represents, so
    a system that is all rounding noise (s_max itself tiny) has full
    nullity.  A real system stays real: its SVD runs in float64 and
    its basis is real.  An empty system returns the full matrix space, as
    the units e_ij in column-stacked order.  A singular value
    :func:`near_cut` the rank threshold sets ``rank_warning``.

    A tall system A is first replaced by the square R factor of its
    Householder QR: A*A = R*R, so the singular values and right singular
    vectors are those of A, and the left factor of A, which no caller
    reads, is never formed.  Householder QR is backward stable, so the
    rank decision still sees the condition number of A; the Gram matrix
    A*A would square it and push ``NULL_TOL`` below rounding.
    """
    system = np.asarray(system)
    system = system.astype(np.result_type(system, np.float64), copy=False)
    if system.shape[1] != dim * dim:
        raise ValueError(
            f"system has {system.shape[1]} columns, expected {dim * dim}"
        )
    if system.shape[0] > system.shape[1]:
        system = np.linalg.qr(system, mode="r")
    _, s, vh = np.linalg.svd(system)
    threshold = NULL_TOL * max(s[0] if s.size else 0.0, scale)
    rank = int(np.sum(s > threshold))
    kernel = vh[rank:].conj()
    basis = [row.reshape((dim, dim), order="F") for row in kernel]
    return NullspaceResult(basis=basis, rank_warning=near_cut(s, threshold), singular_values=s)
