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

from conftest import HADAMARD, SIGMA_X, SIGMA_Z, haar_unitary, random_complex, random_hermitian

CFG = ToleranceConfig()


class TestBlockAlgebra:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockAlgebra(block_dims=(2, 0), weights=(1.0, 1.0))
        with pytest.raises(ValueError):
            BlockAlgebra(block_dims=(2,), weights=(-1.0,))
        with pytest.raises(ValueError):
            BlockAlgebra(block_dims=(2, 1), weights=(1.0,))

    @pytest.mark.parametrize("w", [float("inf"), float("nan")])
    def test_rejects_nonfinite_weight(self, w):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            BlockAlgebra(block_dims=(1, 1), weights=(1.0, w))
        with pytest.raises(ValueError, match="finite and strictly positive"):
            BlockAlgebra.full(2, w)

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
        comm = commutant_basis([np.eye(2, dtype=complex)])
        assert comm.dimension == 4

    def test_rejects_empty_or_mixed_family(self):
        with pytest.raises(ValueError, match="at least one family member"):
            commutant_basis([])
        with pytest.raises(ValueError):
            commutant_basis([np.eye(2), np.eye(3)])

    def test_sigma_x(self):
        comm = commutant_basis([SIGMA_X])
        assert comm.dimension == 2
        for target in (np.eye(2, dtype=complex), SIGMA_X):
            proj = sum(np.vdot(vec(b), vec(target)) * b for b in comm.basis)
            assert opnorm(proj - target) <= 1e-10

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e9])
    def test_rank_cut_follows_family_scale(self, c):
        # a floor of 1 in place of max ||x|| would make 1e-12 sigma_x commute with everything
        assert commutant_basis([c * SIGMA_X]).dimension == 2

    @pytest.mark.parametrize("d, n", [(1, 1), (2, 3), (3, 2), (5, 4), (7, 1)])
    def test_system_equals_kron_blocks(self, monkeypatch, d, n):
        import cpfix.algebra as algebra_mod

        systems = []
        real_nullspace = algebra_mod.nullspace_basis

        def recording_nullspace(system, *args, **kwargs):
            systems.append(system)
            return real_nullspace(system, *args, **kwargs)

        monkeypatch.setattr(algebra_mod, "nullspace_basis", recording_nullspace)
        rng = np.random.default_rng(40 + d)
        family = [random_complex(d, rng) for _ in range(n)]
        family[0][0, :] = -0.0
        commutant_basis(family)
        eye = np.eye(d)
        want = np.concatenate([np.kron(eye, x) - np.kron(x.T, eye) for x in family])
        (got,) = systems
        assert got.shape == want.shape == (n * d * d, d * d)
        assert np.array_equal(got, want)

    def test_pauli_pair_gives_scalars(self):
        comm = commutant_basis([SIGMA_X, SIGMA_Z])
        assert comm.dimension == 1
        b = comm.basis[0]
        assert opnorm(b - b[0, 0] * np.eye(2)) <= 1e-10

    def test_elements_commute(self):
        rng = np.random.default_rng(21)
        x = random_hermitian(4, rng)
        comm = commutant_basis([x])
        for b in comm.basis:
            assert opnorm(b @ x - x @ b) <= CFG.eq_tol

    def test_closed_under_adjoint(self):
        rng = np.random.default_rng(22)
        x = random_hermitian(3, rng)
        comm = commutant_basis([x])
        for b in comm.basis:
            adj = b.conj().T
            proj = sum(np.vdot(vec(c), vec(adj)) * c for c in comm.basis)
            assert opnorm(proj - adj) <= 1e-9

    def test_closed_under_products(self):
        rng = np.random.default_rng(23)
        x = random_hermitian(4, rng)
        comm = commutant_basis([x])
        for b in comm.basis[:3]:
            for c in comm.basis[:3]:
                prod = b @ c
                proj = sum(np.vdot(vec(e), vec(prod)) * e for e in comm.basis)
                assert opnorm(proj - prod) <= 1e-8

    def test_no_tall_svd(self, monkeypatch):
        # the 108 x 36 system reaches the kernel solve (the one SVD with
        # singular vectors; opnorm's take none) as its 36 x 36 R factor
        shapes = []
        real_svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            if kwargs.get("compute_uv", True):
                shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        rng = np.random.default_rng(61)
        comm = commutant_basis([random_complex(6, rng) for _ in range(3)])
        assert comm.dimension == 1
        assert shapes == [(36, 36)]


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


def _unit_images(kf, alg):
    """Phi(e_ij) for every block matrix unit e_ij, by map application."""
    units = []
    for s in alg.slices:
        for i in range(s.start, s.stop):
            for j in range(s.start, s.stop):
                b = np.zeros((alg.dim, alg.dim), dtype=np.complex128)
                b[i, j] = 1.0
                units.append(b)
    return apply_map(kf, np.stack(units))


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
            images = _unit_images(kf, alg)
            want = all(alg.contains(m, CFG) for m in images)
            assert invariance_check(kf, alg, CFG) == want
            assert alg.contains(images, CFG) == want
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
        assert len(dec.projections()) == 1
        np.testing.assert_allclose(dec.projections()[0], np.eye(4), atol=1e-12)

    def test_planted_double_eigenvalue_clusters(self):
        rng = np.random.default_rng(25)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(z)
        a = u @ np.diag([2.0, 2.0, 5.0]) @ u.conj().T
        dec = herm_eig(a, CFG)
        assert list(dec.multiplicities) == [1, 2]
        assert int(round(np.trace(dec.projections()[1]).real)) == 2
