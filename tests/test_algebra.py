import numpy as np
import pytest

from cpfix.algebra import (
    BlockAlgebra,
    MembershipError,
    commutant_basis,
    invariance_check,
    trace_tau,
)
from cpfix.channel import KrausFamily, apply_map
from cpfix.matcore import ToleranceConfig, herm_eig, opnorm, vec
from cpfix.verify import haar_unitary

from conftest import HADAMARD, SIGMA_X, SIGMA_Z, random_complex, random_hermitian

CFG = ToleranceConfig()


class TestBlockAlgebra:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockAlgebra(block_dims=(2, 0), weights=(1.0, 1.0))
        with pytest.raises(ValueError):
            BlockAlgebra(block_dims=(2,), weights=(-1.0,))
        with pytest.raises(ValueError):
            BlockAlgebra(block_dims=(2, 1), weights=(1.0,))

    def test_full(self):
        alg = BlockAlgebra.full(3)
        assert alg.dim == 3
        assert alg.contains(np.ones((3, 3)), CFG)

    def test_membership(self):
        alg = BlockAlgebra(block_dims=(2, 1), weights=(1.0, 2.0))
        assert alg.contains(np.diag([1.0, 2.0, 3.0]), CFG)
        off = np.zeros((3, 3))
        off[0, 2] = 1.0
        assert not alg.contains(off, CFG)


class TestCommutant:
    def test_identity_family(self):
        basis = commutant_basis([np.eye(2, dtype=complex)], CFG)
        assert basis.dimension == 4

    def test_empty_family_full_space(self):
        assert commutant_basis([], CFG, dim=2).dimension == 4

    def test_sigma_x(self):
        basis = commutant_basis([SIGMA_X], CFG)
        assert basis.dimension == 2
        for target in (np.eye(2, dtype=complex), SIGMA_X):
            proj = sum(np.vdot(vec(b), vec(target)) * b for b in basis.elements)
            assert opnorm(proj - target) <= 1e-10

    def test_pauli_pair_gives_scalars(self):
        basis = commutant_basis([SIGMA_X, SIGMA_Z], CFG)
        assert basis.dimension == 1
        b = basis.elements[0]
        assert opnorm(b - b[0, 0] * np.eye(2)) <= 1e-10

    def test_elements_commute(self):
        rng = np.random.default_rng(21)
        x = random_hermitian(4, rng)
        basis = commutant_basis([x], CFG)
        for b in basis.elements:
            assert opnorm(b @ x - x @ b) <= CFG.eq_tol

    def test_closed_under_adjoint(self):
        rng = np.random.default_rng(22)
        x = random_hermitian(3, rng)
        basis = commutant_basis([x], CFG)
        for b in basis.elements:
            adj = b.conj().T
            proj = sum(np.vdot(vec(c), vec(adj)) * c for c in basis.elements)
            assert opnorm(proj - adj) <= 1e-9

    def test_closed_under_products(self):
        rng = np.random.default_rng(23)
        x = random_hermitian(4, rng)
        basis = commutant_basis([x], CFG)
        for b in basis.elements[:3]:
            for c in basis.elements[:3]:
                prod = b @ c
                proj = sum(np.vdot(vec(e), vec(prod)) * e for e in basis.elements)
                assert opnorm(proj - prod) <= 1e-8


class TestTraceTau:
    def test_weighted_blocks(self):
        alg = BlockAlgebra(block_dims=(2, 1), weights=(1.0, 2.0))
        assert trace_tau(alg, np.diag([1.0, 1.0, 3.0]), CFG) == pytest.approx(8.0)

    def test_identity(self):
        alg = BlockAlgebra(block_dims=(2, 3), weights=(0.5, 2.0))
        assert trace_tau(alg, np.eye(5), CFG) == pytest.approx(0.5 * 2 + 2.0 * 3)

    def test_rejects_off_block(self):
        alg = BlockAlgebra(block_dims=(1, 1), weights=(1.0, 1.0))
        with pytest.raises(MembershipError):
            trace_tau(alg, SIGMA_X, CFG)

    def test_tracial_property(self):
        # tau(ab) = tau(ba) for block elements
        rng = np.random.default_rng(24)
        alg = BlockAlgebra(block_dims=(2, 3), weights=(1.0, 3.0))
        for _ in range(20):
            a = np.zeros((5, 5), dtype=complex)
            b = np.zeros((5, 5), dtype=complex)
            for s in alg.slices:
                d = s.stop - s.start
                a[s, s] = random_hermitian(d, rng)
                b[s, s] = random_hermitian(d, rng)
            assert abs(trace_tau(alg, a @ b, CFG) - trace_tau(alg, b @ a, CFG)) <= 1e-10


INSTANCE_KINDS = ("block-haar", "leak", "full-haar", "gaussian")


def _invariance_oracle(kf, alg, cfg):
    """Apply the map to every block matrix unit and test membership."""
    for s in alg.slices:
        idx = range(s.start, s.stop)
        for i in idx:
            for j in idx:
                b = np.zeros((alg.dim, alg.dim), dtype=np.complex128)
                b[i, j] = 1.0
                if not alg.contains(apply_map(kf, b), cfg):
                    return False
    return True


def _random_instance(kind, rng):
    dims = tuple(int(k) for k in rng.integers(1, 5, size=int(rng.integers(1, 4))))
    alg = BlockAlgebra(block_dims=dims, weights=tuple(rng.uniform(0.2, 3.0, len(dims))))
    d, n = alg.dim, int(rng.integers(1, 4))
    ops = []
    for _ in range(n):
        if kind in ("block-haar", "leak"):
            x = np.zeros((d, d), dtype=np.complex128)
            for s in alg.slices:
                x[s, s] = haar_unitary(s.stop - s.start, rng)
            if kind == "leak":
                x = x + 10.0 ** rng.uniform(-11, -8) * random_complex(d, rng)
        elif kind == "full-haar":
            x = haar_unitary(d, rng)
        else:
            x = 10.0 ** rng.choice([-3.0, 3.0]) * random_complex(d, rng)
        ops.append(x)
    return KrausFamily.from_operators(ops, rng.uniform(0.2, 3.0, n)), alg


class TestInvariance:
    def test_full_algebra_always_invariant(self, mixture):
        assert invariance_check(mixture, BlockAlgebra.full(2), CFG)

    def test_lueders_preserves_diagonal(self, lueders):
        alg = BlockAlgebra(block_dims=(1, 1), weights=(1.0, 1.0))
        assert invariance_check(lueders, alg, CFG)

    def test_hadamard_mixes_blocks(self):
        kf = KrausFamily.from_operators([HADAMARD])
        alg = BlockAlgebra(block_dims=(1, 1), weights=(1.0, 1.0))
        assert not invariance_check(kf, alg, CFG)

    def test_matches_map_application_oracle(self):
        rng = np.random.default_rng(26)
        verdicts = {kind: set() for kind in INSTANCE_KINDS}
        for _ in range(400):
            kind = INSTANCE_KINDS[int(rng.integers(len(INSTANCE_KINDS)))]
            kf, alg = _random_instance(kind, rng)
            want = _invariance_oracle(kf, alg, CFG)
            assert invariance_check(kf, alg, CFG) == want
            verdicts[kind].add(want)
        # the leak straddles eq_tol, so both verdicts must occur there
        assert verdicts["leak"] == {True, False}
        assert verdicts["block-haar"] == {True}


class TestSpectralProjections:
    """Clustered projections, the objects the fixed-point argument quantifies over."""

    def test_multiplicities(self):
        dec = herm_eig(np.diag([3.0, 3.0, 1.0]).astype(complex), CFG)
        assert list(dec.multiplicities) == [2, 1]

    def test_identity_single_projection(self):
        dec = herm_eig(np.eye(4), CFG)
        assert len(dec.projections) == 1
        np.testing.assert_allclose(dec.projections[0], np.eye(4), atol=1e-12)

    def test_planted_double_eigenvalue_clusters(self):
        rng = np.random.default_rng(25)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(z)
        a = u @ np.diag([2.0, 2.0, 5.0]) @ u.conj().T
        dec = herm_eig(a, CFG)
        assert list(dec.multiplicities) == [1, 2]
        assert int(round(np.trace(dec.projections[1]).real)) == 2
