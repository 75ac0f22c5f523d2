import numpy as np
import pytest

from cpfix.matcore import (
    DomainError,
    HermiticityError,
    ToleranceConfig,
    herm_eig,
    hermitize,
    mat_func,
    matrix_units,
    nullspace_basis,
    opnorm,
    psd_min_eig,
    unvec,
    vec,
)

from conftest import SIGMA_X, random_hermitian

CFG = ToleranceConfig()


class TestHermitize:
    def test_symmetrizes(self):
        a = np.array([[1.0, 1 + 1e-12j], [1 - 1e-12j, 2.0]])
        h = hermitize(a)
        assert opnorm(h - h.conj().T) == 0.0

    def test_rejects_far_from_hermitian(self):
        with pytest.raises(HermiticityError):
            hermitize(np.array([[0, 1], [0, 0]], dtype=complex))


class TestHermEig:
    def test_diagonal(self):
        dec = herm_eig(np.diag([3.0, 1.0]).astype(complex), CFG)
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(dec.projections[0], np.diag([1.0, 0.0]))
        np.testing.assert_allclose(dec.projections[1], np.diag([0.0, 1.0]))

    def test_sigma_x(self):
        dec = herm_eig(SIGMA_X, CFG)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0])
        eye = np.eye(2)
        np.testing.assert_allclose(dec.projections[0], (eye + SIGMA_X) / 2, atol=1e-14)
        np.testing.assert_allclose(dec.projections[1], (eye - SIGMA_X) / 2, atol=1e-14)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(5, rng)
        dec = herm_eig(a, CFG)
        assert opnorm(dec.reconstruct() - a) <= 1e-10

    def test_invariants_random(self):
        # reconstruction, idempotency, mutual orthogonality, resolution of identity
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            a = random_hermitian(d, rng, scale=float(rng.uniform(0.1, 10)))
            dec = herm_eig(a, CFG)
            scale = max(1.0, opnorm(a))
            assert opnorm(dec.reconstruct() - a) <= 1e-10 * scale
            total = np.zeros((d, d), dtype=complex)
            for i, p in enumerate(dec.projections):
                assert opnorm(p @ p - p) <= 1e-10
                total += p
                for q in dec.projections[i + 1 :]:
                    assert opnorm(p @ q) <= 1e-10
            assert opnorm(total - np.eye(d)) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) < 0)

    def test_clustering_merges_planted_degeneracy(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(z)
        a = u @ np.diag([2.0, 2.0 + 1e-12, 5.0]) @ u.conj().T
        dec = herm_eig(a, CFG)
        assert list(dec.multiplicities) == [1, 2]
        assert dec.eigenvalues[0] == pytest.approx(5.0)


class TestMatFunc:
    def test_square_diagonal(self):
        out = mat_func(lambda t: t * t, np.diag([2.0, -1.0]).astype(complex), CFG)
        np.testing.assert_allclose(out, np.diag([4.0, 1.0]), atol=1e-12)

    def test_square_sigma_x(self):
        out = mat_func(lambda t: t * t, SIGMA_X, CFG)
        np.testing.assert_allclose(out, np.eye(2), atol=1e-12)

    def test_f_eps_one_by_one(self):
        out = mat_func(lambda t: t * t / (1 - 0.5 * t), np.array([[1.0]], dtype=complex), CFG)
        np.testing.assert_allclose(out, [[2.0]], atol=1e-14)

    def test_identity_and_constant(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(4, rng)
        np.testing.assert_allclose(mat_func(lambda t: t, a, CFG), a, atol=1e-12)
        np.testing.assert_allclose(mat_func(lambda t: 1.0, a, CFG), np.eye(4), atol=1e-12)

    def test_polynomial_composition(self):
        rng = np.random.default_rng(8)
        a = random_hermitian(6, rng)
        np.testing.assert_allclose(
            mat_func(lambda t: t * t, a, CFG), a @ a, atol=1e-10
        )

    def test_one_decomposition_serves_many_functions(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(5, rng)
        dec = herm_eig(a, CFG)
        for f in (np.exp, lambda t: t * t):
            assert np.array_equal(dec.apply(f), mat_func(f, a, CFG))
        assert dec.eigenvalues[-1] < 0.0
        with pytest.raises(DomainError):
            dec.apply(np.sqrt, domain=(0.0, np.inf))

    def test_domain_error_names_eigenvalue(self):
        with pytest.raises(DomainError, match="3"):
            mat_func(np.sqrt, np.diag([3.0, 1.0]).astype(complex), CFG, domain=(0.0, 2.0))


class TestPsdMinEig:
    def test_identity(self):
        assert psd_min_eig(np.eye(3)) == pytest.approx(1.0)

    def test_slightly_negative(self):
        assert psd_min_eig(np.diag([1.0, -0.001])) == pytest.approx(-0.001)

    def test_projection(self):
        assert psd_min_eig((np.eye(2) + SIGMA_X) / 2) == pytest.approx(0.0, abs=1e-14)


class TestNullspace:
    def test_empty_system_is_full_space(self):
        res = nullspace_basis(np.zeros((0, 4)), 2, CFG)
        assert res.dimension == 4
        assert not res.rank_warning

    def test_commutant_of_identity(self):
        eye = np.eye(2)
        system = np.kron(eye, eye) - np.kron(eye, eye)
        res = nullspace_basis(system, 2, CFG)
        assert res.dimension == 4

    def test_commutant_of_sigma_x(self):
        # brute-force oracle: [a, sigma_x] = 0 forces span{I, sigma_x}
        eye = np.eye(2)
        system = np.kron(eye, SIGMA_X) - np.kron(SIGMA_X.T, eye)
        res = nullspace_basis(system, 2, CFG)
        assert res.dimension == 2
        for target in (np.eye(2, dtype=complex), SIGMA_X):
            proj = sum(
                np.vdot(vec(b), vec(target)) * b for b in res.basis
            )
            assert opnorm(proj - target) <= 1e-10

    def test_identity_superoperator_kernel(self):
        res = nullspace_basis(np.eye(9) - np.eye(9), 3, CFG)
        assert res.dimension == 9

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(13)
        x = random_hermitian(3, rng)
        eye = np.eye(3)
        system = np.kron(eye, x) - np.kron(x.T, eye)
        res = nullspace_basis(system, 3, CFG)
        for i, b in enumerate(res.basis):
            assert abs(np.vdot(vec(b), vec(b)) - 1.0) <= 1e-10
            for c in res.basis[i + 1 :]:
                assert abs(np.vdot(vec(b), vec(c))) <= 1e-10

    def test_kernel_membership_residual(self):
        rng = np.random.default_rng(14)
        x = random_hermitian(4, rng)
        eye = np.eye(4)
        system = np.kron(eye, x) - np.kron(x.T, eye)
        res = nullspace_basis(system, 4, CFG)
        smax = res.singular_values[0]
        for b in res.basis:
            assert np.linalg.norm(system @ vec(b)) <= CFG.null_tol * smax


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_array_equal(unvec(vec(a), 3), a)
    # column stacking: first d entries are the first column
    np.testing.assert_array_equal(vec(a)[:3], a[:, 0])


def test_matrix_units_orthonormal():
    units = matrix_units(3)
    assert len(units) == 9
    gram = np.array([[np.vdot(vec(u), vec(v)) for v in units] for u in units])
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-15)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eq_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(cluster_gap=1.5)
