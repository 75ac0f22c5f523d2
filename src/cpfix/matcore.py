"""Dense complex matrix primitives shared by every other module.

All matrices are plain ``numpy.ndarray`` with complex128 entries and are
treated as immutable.  Hermitian matrices are symmetrized once, at the
boundary, by one of two functions defined here:

* outside input (user operators, arguments of public entry points) goes
  through :func:`hermitize`, which rejects a deviation from
  self-adjointness above ``cfg.eq_tol`` and then symmetrizes;
* values that are Hermitian by construction (Phi(a) - a, sum mu x*x,
  eigenprojections) go through :func:`herm_part`, which symmetrizes
  without a check: their rounding grows with their scale.

Downstream code assumes exact self-adjointness after that.  Norms are
spectral norms throughout, and every equality tolerance is relative to
``max(1, norm)`` of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "HermiticityError",
    "EigenConvergenceError",
    "ToleranceConfig",
    "SpectralDecomposition",
    "NullspaceResult",
    "as_cmatrix",
    "herm_part",
    "hermitize",
    "opnorm",
    "rel_scale",
    "vec",
    "unvec",
    "commutator",
    "matrix_units",
    "herm_eig",
    "mat_func",
    "psd_min_eig",
    "nullspace_basis",
]


class DomainError(ValueError):
    """A spectral function was evaluated outside its declared domain."""


class HermiticityError(ValueError):
    """Input matrix is too far from self-adjoint to symmetrize silently."""


class EigenConvergenceError(RuntimeError):
    """The eigensolver did not converge within its iteration budget."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used by every check in the package.

    All values are dimensionless and are applied relative to
    ``max(1, norm)`` of whatever they are compared against.
    """

    eq_tol: float = 1e-9
    psd_tol: float = 1e-8
    cluster_gap: float = 1e-8
    null_tol: float = 1e-10

    def __post_init__(self):
        for name in ("eq_tol", "psd_tol", "cluster_gap", "null_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.cluster_gap >= 1.0:
            raise ValueError("cluster_gap must be < 1")


DEFAULT_TOL = ToleranceConfig()


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def opnorm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def rel_scale(a: np.ndarray) -> float:
    """max(1, ||a||), the scale all relative tolerances refer to."""
    return max(1.0, opnorm(a))


def herm_part(m: np.ndarray) -> np.ndarray:
    """(m + m*)/2, for a value that is Hermitian by construction."""
    return (m + m.conj().T) / 2.0


def hermitize(a, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Symmetrize outside input, rejecting a deviation above ``cfg.eq_tol``."""
    m = as_cmatrix(a)
    dev = opnorm(m - m.conj().T)
    tol = cfg.eq_tol * rel_scale(m)
    if dev > tol:
        raise HermiticityError(
            f"matrix deviates from self-adjointness by {dev:.3e} "
            f"(tolerance {tol:.3e})"
        )
    return herm_part(m)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(AXB) = (B^T kron A) vec(X)."""
    return np.ravel(x, order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v).ravel()
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValueError(f"vector of length {v.size} is not a square matrix")
    return v.reshape((dim, dim), order="F")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def matrix_units(dim: int) -> list[np.ndarray]:
    """The e_ij basis of the full matrix algebra, HS-orthonormal."""
    units = []
    for j in range(dim):
        for i in range(dim):
            m = np.zeros((dim, dim), dtype=np.complex128)
            m[i, j] = 1.0
            units.append(m)
    return units


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Clustered eigendecomposition a = sum_n lambda_n p_n.

    Eigenvalues are strictly decreasing after clustering; each projection
    is Hermitian, idempotent, and the family is mutually orthogonal with
    sum equal to the identity.
    """

    eigenvalues: np.ndarray
    projections: list[np.ndarray]
    multiplicities: np.ndarray

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    def apply(self, f, domain: tuple[float, float] | None = None) -> np.ndarray:
        """Spectral evaluation sum f(lambda_n) p_n of a scalar function.

        ``domain``, if given, is an open interval every clustered eigenvalue
        must lie in; a violation raises :class:`DomainError` naming the
        offending eigenvalue.  One decomposition serves any number of
        functions of the same matrix.
        """
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for lam, p in zip(self.eigenvalues, self.projections):
            if domain is not None and not (domain[0] < lam < domain[1]):
                raise DomainError(
                    f"eigenvalue {lam} outside open domain ({domain[0]}, {domain[1]})"
                )
            out += float(f(lam)) * p
        return herm_part(out)

    def reconstruct(self) -> np.ndarray:
        return self.apply(float)


def herm_eig(a, cfg: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with eigenvalue clustering.

    Eigenvalues within ``cfg.cluster_gap * max(1, ||a||)`` of each other
    are merged into a single spectral projection; the argument downstream
    quantifies over spectral projections, which are unstable under
    degeneracy splitting.
    """
    h = hermitize(a, cfg)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigh failed to converge: {exc}") from exc
    # descending order
    w = w[::-1]
    v = v[:, ::-1]
    gap = cfg.cluster_gap * rel_scale(h)
    eigenvalues = []
    projections = []
    multiplicities = []
    start = 0
    n = w.size
    for i in range(1, n + 1):
        if i == n or w[start] - w[i] > gap:
            block = v[:, start:i]
            p = block @ block.conj().T
            projections.append(herm_part(p))
            eigenvalues.append(float(np.mean(w[start:i])))
            multiplicities.append(i - start)
            start = i
    return SpectralDecomposition(
        eigenvalues=np.array(eigenvalues),
        projections=projections,
        multiplicities=np.array(multiplicities, dtype=int),
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

    Realizes every ">= 0" assertion as a number the caller compares
    against ``-psd_tol``.  ``a`` is checked like :func:`hermitize` input.
    """
    h = hermitize(a, cfg)
    return float(np.linalg.eigvalsh(h)[0])


@dataclass(frozen=True, eq=False)
class NullspaceResult:
    """Kernel basis of a linear map on matrices, plus rank diagnostics."""

    basis: list[np.ndarray]
    rank_warning: bool
    singular_values: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.basis)


def nullspace_basis(
    system: np.ndarray, dim: int, cfg: ToleranceConfig = DEFAULT_TOL
) -> NullspaceResult:
    """HS-orthonormal basis of {m : system @ vec(m) = 0}.

    ``system`` has shape (rows, dim*dim) and acts on column-stacked
    vectorizations.  An empty system returns the full matrix space.  A
    singular value within a factor 10 of the rank threshold sets
    ``rank_warning``.
    """
    system = np.asarray(system, dtype=np.complex128)
    if system.size == 0:
        return NullspaceResult(
            basis=matrix_units(dim), rank_warning=False, singular_values=np.array([])
        )
    if system.shape[1] != dim * dim:
        raise ValueError(
            f"system has {system.shape[1]} columns, expected {dim * dim}"
        )
    _, s, vh = np.linalg.svd(system)
    smax = s[0] if s.size else 0.0
    threshold = cfg.null_tol * max(smax, 1e-300)
    rank = int(np.sum(s > threshold))
    warning = bool(np.any((s > threshold / 10.0) & (s < threshold * 10.0)))
    kernel = vh[rank:].conj()
    basis = [unvec(row, dim) for row in kernel]
    return NullspaceResult(basis=basis, rank_warning=warning, singular_values=s)
