import numpy as np
import pytest

from cpfix import KrausFamily
from cpfix.matcore import herm_part

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_hermitian(dim, rng, scale=1.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (z + z.conj().T) / 2.0


def random_complex(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def same_bits(got, want):
    """Whether two float64 or complex128 arrays agree in shape and in every bit."""
    return got.shape == want.shape and np.array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
    )


def projections(dec):
    """The (k, d, d) stack of the spectral projections p_n = V_n V_n* of a ``SpectralDecomposition``.

    V_n is the next ``multiplicities[n]`` columns of ``dec.eigenvectors``.
    """
    bounds = np.append(0, np.cumsum(dec.multiplicities))
    out = np.empty((len(dec.multiplicities), dec.dim, dec.dim), dtype=np.complex128)
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        v = dec.eigenvectors[:, lo:hi]
        out[k] = herm_part(v @ v.conj().T)
    return out


def random_contractive_family(dim, n_terms, rng):
    """Random family rescaled so sum x*x <= I (top eigenvalue exactly 1)."""
    ops = [random_complex(dim, rng) for _ in range(n_terms)]
    col = sum(x.conj().T @ x for x in ops)
    top = float(np.linalg.eigvalsh((col + col.conj().T) / 2.0)[-1])
    return KrausFamily.from_operators([x / np.sqrt(top) for x in ops])


def random_unital_family(dim, n_terms, rng):
    """Random family column-normalized so sum x*x = I exactly."""
    ops = [random_complex(dim, rng) for _ in range(n_terms)]
    col = sum(x.conj().T @ x for x in ops)
    w, v = np.linalg.eigh((col + col.conj().T) / 2.0)
    inv_root = (v * w**-0.5) @ v.conj().T
    return KrausFamily.from_operators([x @ inv_root for x in ops])


def random_subunital_dual_family(dim, n_terms, rng):
    """Random family row-scaled so sum x x* <= I."""
    ops = [random_complex(dim, rng) for _ in range(n_terms)]
    row = sum(x @ x.conj().T for x in ops)
    top = float(np.linalg.eigvalsh((row + row.conj().T) / 2.0)[-1])
    return KrausFamily.from_operators([x / np.sqrt(top) for x in ops])


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


def su2_tensor_family(k, n_terms=3, seed=5):
    """x_t = U_t^{(x)k} on (C^2)^{(x)k}, U_t Haar in SU(2), mu_t = 1/n: Schur-Weyl duality.

    The generated algebra is (+)_j M_{2j+1} (x) 1_{m_j}, m_j = C(k, k/2 - j) -
    C(k, k/2 - j - 1), and its commutant, the fixed space, is spanned by the
    permutations of the k factors: of dimension the Catalan number C_k.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_terms):
        u = haar_unitary(2, rng)
        u /= np.sqrt(np.linalg.det(u))
        x = np.ones((1, 1), dtype=complex)
        for _ in range(k):
            x = np.kron(x, u)
        ops.append(x)
    return KrausFamily.from_operators(ops, [1.0 / n_terms] * n_terms)


def transposition_family(k):
    """The swaps of adjacent factors of (C^2)^{(x)k}, mu_t = 1/(k - 1).

    The commutant is the algebra the U^{(x)k} generate, of dimension
    sum_j (2j + 1)^2 over the spins j of k qubits.
    """
    eye = np.eye(2**k, dtype=complex).reshape([2] * k + [2**k])
    ops = []
    for i in range(k - 1):
        axes = list(range(k + 1))
        axes[i], axes[i + 1] = i + 1, i
        ops.append(eye.transpose(axes).reshape(2**k, 2**k))
    return KrausFamily.from_operators(ops, [1.0 / (k - 1)] * (k - 1))


def spin_family(d, n_terms=3, seed=0):
    """x_t = exp(-i theta_t n_t . J) / sqrt(n) on the spin-j irrep C^d, d = 2j + 1.

    J comes from the closed-form ladder J+ |m> = sqrt(j(j + 1) - m(m + 1)) |m + 1>;
    theta_t and the unit axes n_t are random.  Generic rotations generate all
    of M_d, so the fixed space and the commutant are C 1, of dimension 1.
    """
    rng = np.random.default_rng(seed)
    j = (d - 1) / 2.0
    m = j - np.arange(d)
    raise_ = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    spin = np.stack([(raise_ + raise_.T) / 2.0, (raise_ - raise_.T) / 2.0j, np.diag(m).astype(complex)])
    ops = []
    for _ in range(n_terms):
        axis = rng.standard_normal(3)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        w, v = np.linalg.eigh(np.tensordot(axis / np.linalg.norm(axis), spin, axes=1))
        ops.append((v * np.exp(-1j * theta * w)) @ v.conj().T / np.sqrt(n_terms))
    return KrausFamily.from_operators(ops)


@pytest.fixture
def lueders():
    return KrausFamily.from_operators([E11, E22])


@pytest.fixture
def identity_channel():
    return KrausFamily.from_operators([np.eye(2, dtype=complex)])


@pytest.fixture
def mixture():
    """Bistochastic self-adjoint pair {I/sqrt2, sigma_x/sqrt2}."""
    return KrausFamily.from_operators(
        [np.eye(2, dtype=complex) / np.sqrt(2), SIGMA_X / np.sqrt(2)]
    )
