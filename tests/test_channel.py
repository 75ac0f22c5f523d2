import numpy as np
import pytest

from cpfix.channel import (
    DimensionMismatchError,
    KrausFamily,
    Superoperator,
    apply_map,
    choi_matrix,
    choi_psd_check,
    dual_apply,
    fixed_space_basis,
    normalization_report,
    superoperator_matrix,
)
from cpfix.algebra import commutant_basis
from cpfix.matcore import ToleranceConfig, opnorm, vec
from cpfix.verify import random_bistochastic

from conftest import (
    E11,
    E12,
    E22,
    SIGMA_X,
    random_complex,
    random_unital_family,
)

CFG = ToleranceConfig()


class TestKrausFamily:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            KrausFamily(dim=2, terms=((0.0, np.eye(2)),))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            KrausFamily(dim=2, terms=((1.0, np.eye(3)),))

    def test_scaled_operators_absorb_weights(self):
        kf = KrausFamily(dim=2, terms=((4.0, np.eye(2)),))
        np.testing.assert_allclose(kf.scaled_operators[0], 2.0 * np.eye(2))


class TestApplyMap:
    def test_identity_channel(self, identity_channel):
        rng = np.random.default_rng(0)
        a = random_complex(2, rng)
        np.testing.assert_allclose(apply_map(identity_channel, a), a, atol=1e-14)

    def test_lueders_kills_off_diagonal(self, lueders):
        a = np.array([[1, 2], [2, 3]], dtype=complex)
        np.testing.assert_allclose(apply_map(lueders, a), np.diag([1.0, 3.0]), atol=1e-14)

    def test_e12_shift(self):
        kf = KrausFamily.from_operators([E12])
        np.testing.assert_allclose(apply_map(kf, E11), E22, atol=1e-14)

    def test_dimension_mismatch(self, lueders):
        with pytest.raises(DimensionMismatchError):
            apply_map(lueders, np.eye(3))

    def test_adjoint_covariance(self, mixture):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_complex(2, rng)
            lhs = apply_map(mixture, a.conj().T)
            rhs = apply_map(mixture, a).conj().T
            assert opnorm(lhs - rhs) <= 1e-12


class TestDualApply:
    def test_identity_channel(self, identity_channel):
        rng = np.random.default_rng(1)
        a = random_complex(2, rng)
        np.testing.assert_allclose(dual_apply(identity_channel, a), a, atol=1e-14)

    def test_e12_on_identity(self):
        kf = KrausFamily.from_operators([E12])
        np.testing.assert_allclose(dual_apply(kf, np.eye(2)), E11, atol=1e-14)

    def test_dual_of_identity_is_row_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            ops = [random_complex(d, rng) for _ in range(int(rng.integers(1, 4)))]
            weights = rng.uniform(0.1, 2.0, size=len(ops))
            kf = KrausFamily.from_operators(ops, weights)
            rep = normalization_report(kf, CFG)
            assert opnorm(dual_apply(kf, np.eye(d)) - rep.row_sum) <= 1e-10

    def test_trace_duality(self, mixture):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_complex(2, rng)
            b = random_complex(2, rng)
            lhs = np.trace(apply_map(mixture, a) @ b)
            rhs = np.trace(a @ dual_apply(mixture, b))
            assert abs(lhs - rhs) <= 1e-10


class TestNormalizationReport:
    def test_lueders_all_true(self, lueders):
        rep = normalization_report(lueders, CFG)
        assert all(rep.flags().values())

    def test_subnormalized_identity(self):
        kf = KrausFamily.from_operators([np.eye(2, dtype=complex) / np.sqrt(2)])
        rep = normalization_report(kf, CFG)
        np.testing.assert_allclose(rep.column_sum, np.eye(2) / 2, atol=1e-14)
        assert not rep.is_unital

    def test_unital_but_not_subunital(self):
        # e = e12 e21 + e11 e11 = 2 e11, which exceeds the identity
        kf = KrausFamily.from_operators([E12, E11])
        rep = normalization_report(kf, CFG)
        assert rep.is_unital
        np.testing.assert_allclose(rep.row_sum, 2 * E11, atol=1e-14)
        assert not rep.is_subunital_dual

    def test_rigidity_on_unital_subunital(self):
        # unital and e <= 1 together force e = 1 (finite-dimensional trace argument)
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            kf = random_unital_family(d, 3, rng)
            rep = normalization_report(kf, CFG)
            assert rep.rigidity_holds
            if rep.is_unital and rep.is_subunital_dual:
                assert opnorm(rep.row_sum - np.eye(d)) <= 10 * CFG.eq_tol


class TestSuperoperator:
    def test_identity_channel(self, identity_channel):
        s = superoperator_matrix(identity_channel)
        np.testing.assert_allclose(s.matrix, np.eye(4), atol=1e-14)

    def test_lueders_matrix(self, lueders):
        s = superoperator_matrix(lueders)
        np.testing.assert_allclose(s.matrix, np.diag([1.0, 0, 0, 1.0]), atol=1e-14)

    def test_agrees_with_apply_map(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            ops = [random_complex(d, rng) for _ in range(2)]
            kf = KrausFamily.from_operators(ops, rng.uniform(0.1, 2.0, size=2))
            s = superoperator_matrix(kf)
            a = random_complex(d, rng)
            assert (
                np.linalg.norm(vec(apply_map(kf, a)) - s.matrix @ vec(a)) <= 1e-10
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Superoperator(dim=2, matrix=np.eye(3))


# Superoperator of the transpose map on M_2; its Choi matrix is the swap
# operator, with eigenvalue -1
SWAP = np.eye(4)[[0, 2, 1, 3]]


def _choi_oracle(kf: KrausFamily) -> np.ndarray:
    """The defining sum C = sum_ij Phi(e_ij) kron e_ij."""
    d = kf.dim
    c = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            e_ij = np.zeros((d, d), dtype=np.complex128)
            e_ij[i, j] = 1.0
            c += np.kron(apply_map(kf, e_ij), e_ij)
    return c


class TestChoi:
    def test_reshuffle_matches_defining_sum(self):
        rng = np.random.default_rng(14)
        for d in range(1, 6):
            for n in (1, 3):
                ops = [random_complex(d, rng) for _ in range(n)]
                kf = KrausFamily.from_operators(ops, rng.uniform(0.1, 2.0, size=n))
                c = choi_matrix(superoperator_matrix(kf))
                assert opnorm(c - _choi_oracle(kf)) <= 1e-12

    def test_kraus_families_are_cp(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            ops = [random_complex(d, rng) for _ in range(2)]
            check = choi_psd_check(
                superoperator_matrix(KrausFamily.from_operators(ops)), CFG
            )
            assert check.is_cp
            assert check.min_eig >= -1e-10

    def test_transpose_map_not_cp(self):
        check = choi_psd_check(Superoperator(dim=2, matrix=SWAP), CFG)
        assert not check.is_cp
        assert check.min_eig == pytest.approx(-1.0)

    def test_tolerance_relative_to_choi_norm(self):
        # CP by construction at every scale; the Choi matrix grows as c^2
        kf = random_bistochastic(6, 3, 1)
        for c in (1.0, 1e2, 1e4, 1e5):
            scaled = KrausFamily.from_operators([c * x for x in kf.operators])
            assert choi_psd_check(superoperator_matrix(scaled), CFG).is_cp
        for c in (1.0, 1e4):
            assert not choi_psd_check(Superoperator(dim=2, matrix=c * SWAP), CFG).is_cp

    def test_identity_choi_rank_one(self, identity_channel):
        c = choi_matrix(superoperator_matrix(identity_channel))
        eigs = np.linalg.eigvalsh(c)
        assert eigs[-1] == pytest.approx(2.0)
        np.testing.assert_allclose(eigs[:-1], 0.0, atol=1e-12)


class TestFixedSpace:
    def test_identity_channel_full_space(self, identity_channel):
        assert fixed_space_basis(identity_channel, CFG).dimension == 4

    def test_lueders_diagonal(self, lueders):
        fs = fixed_space_basis(lueders, CFG)
        assert fs.dimension == 2
        for target in (E11, E22):
            proj = sum(np.vdot(vec(b), vec(target)) * b for b in fs.herm_basis)
            assert opnorm(proj - target) <= 1e-10

    def test_mixture_span(self, mixture):
        fs = fixed_space_basis(mixture, CFG)
        assert fs.dimension == 2
        for target in (np.eye(2, dtype=complex), SIGMA_X):
            proj = sum(np.vdot(vec(b), vec(target)) * b for b in fs.herm_basis)
            assert opnorm(proj - target) <= 1e-10

    def test_basis_is_hermitian_and_fixed(self, mixture):
        fs = fixed_space_basis(mixture, CFG)
        for b in fs.herm_basis:
            assert opnorm(b - b.conj().T) <= 1e-12
            assert opnorm(apply_map(mixture, b) - b) <= CFG.eq_tol

    def test_commutant_inside_fixed_space(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            kf = random_unital_family(d, 2, rng)
            for b in commutant_basis(kf.operators, CFG).elements:
                assert opnorm(apply_map(kf, b) - b) <= 1e-9
