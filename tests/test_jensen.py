import numpy as np
import pytest

from cpfix.jensen import (
    EpsFunction,
    f_eps_eval,
    jensen_residual,
    kadison_schwarz_residual,
    lambda_domination_check,
    midpoint_convexity_residual,
    series_truncation_check,
)
from cpfix.channel import KrausFamily
from cpfix.matcore import DomainError, PreconditionError, ToleranceConfig, opnorm

from conftest import random_contractive_family, random_hermitian, random_unital_family

CFG = ToleranceConfig()


class TestFEpsEval:
    def test_eps_zero_is_square(self):
        out = f_eps_eval(EpsFunction(0.0), np.diag([3.0, -2.0]).astype(complex), CFG)
        np.testing.assert_allclose(out, np.diag([9.0, 4.0]), atol=1e-12)

    def test_scalar_values(self):
        one = np.array([[1.0]], dtype=complex)
        np.testing.assert_allclose(f_eps_eval(EpsFunction(0.5), one, CFG), [[2.0]], atol=1e-14)
        np.testing.assert_allclose(f_eps_eval(EpsFunction(-1.0), one, CFG), [[0.5]], atol=1e-14)

    def test_square_for_random_hermitian(self):
        rng = np.random.default_rng(31)
        a = random_hermitian(5, rng)
        assert opnorm(f_eps_eval(EpsFunction(0.0), a, CFG) - a @ a) <= 1e-12

    def test_scalar_consistency_on_diagonal(self):
        f = EpsFunction(0.3)
        diag = np.array([0.5, -1.2, 2.0])
        out = f_eps_eval(f, np.diag(diag).astype(complex), CFG)
        np.testing.assert_allclose(np.diagonal(out).real, [f(t) for t in diag], atol=1e-12)

    def test_pole_margin_refused(self):
        with pytest.raises(DomainError):
            f_eps_eval(EpsFunction(1.0), np.diag([0.995, 0.0]).astype(complex), CFG)


class TestSeriesTruncation:
    def test_eps_zero_exact(self):
        rng = np.random.default_rng(32)
        a = random_hermitian(4, rng)
        assert series_truncation_check(EpsFunction(0.0), a, 0, CFG) <= 1e-12

    def test_scalar_tail_bound(self):
        res = series_truncation_check(EpsFunction(0.5), np.array([[1.0]], dtype=complex), 10, CFG)
        assert res <= 2.0**-10 * 2.0

    def test_random_tail_bound(self):
        rng = np.random.default_rng(33)
        a = random_hermitian(4, rng)
        a = a / opnorm(a)
        eps, n = 0.25, 20
        res = series_truncation_check(EpsFunction(eps), a, n, CFG)
        assert res <= (eps ** (n + 1)) / (1 - eps) + 1e-12

    def test_weakly_monotone_in_depth(self):
        rng = np.random.default_rng(34)
        a = random_hermitian(3, rng)
        a = a / opnorm(a)
        f = EpsFunction(0.4)
        residuals = [series_truncation_check(f, a, n, CFG) for n in range(12)]
        for lo, hi in zip(residuals[1:], residuals[:-1]):
            assert lo <= hi + 1e-12


class TestJensenResidual:
    def test_unitary_equality(self):
        rng = np.random.default_rng(35)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(z)
        kf = KrausFamily.from_operators([u])
        a = random_hermitian(3, rng)
        res = jensen_residual(kf, EpsFunction(0.2 / opnorm(a)), a, CFG)
        assert abs(res.min_eig) <= 1e-10
        assert res.verdict

    def test_hand_arithmetic(self):
        # family {I/sqrt2}, eps 0, a = diag(2,-2): lhs = (a/2)^2 = I, rhs = a^2/2 = 2I
        kf = KrausFamily.from_operators([np.eye(2, dtype=complex) / np.sqrt(2)])
        res = jensen_residual(kf, EpsFunction(0.0), np.diag([2.0, -2.0]).astype(complex), CFG)
        assert res.min_eig == pytest.approx(1.0, abs=1e-12)

    def test_random_property(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            kf = random_contractive_family(d, int(rng.integers(1, 4)), rng)
            a = random_hermitian(d, rng)
            eps = float(rng.uniform(-0.5, 0.5)) / opnorm(a)
            res = jensen_residual(kf, EpsFunction(eps), a, CFG)
            assert res.min_eig >= -1e-8

    def test_rejects_noncontractive(self):
        kf = KrausFamily.from_operators([2.0 * np.eye(2, dtype=complex)])
        with pytest.raises(ValueError):
            jensen_residual(kf, EpsFunction(0.0), np.eye(2), CFG)

    def test_noncontractive_is_a_precondition_failure(self):
        kf = KrausFamily.from_operators([2.0 * np.eye(2, dtype=complex)])
        msg = r"family is not contractive: min eig of \(I - sum mu x\*x\) = -3\.000e\+00"
        with pytest.raises(PreconditionError, match=msg):
            jensen_residual(kf, EpsFunction(0.0), np.eye(2), CFG)


class TestMidpointConvexity:
    def test_equal_arguments(self):
        rng = np.random.default_rng(37)
        a = random_hermitian(3, rng)
        res = midpoint_convexity_residual(EpsFunction(0.1 / opnorm(a)), a, a, CFG)
        assert abs(res.min_eig) <= 1e-12

    def test_hand_arithmetic(self):
        a = np.diag([2.0, 0.0]).astype(complex)
        b = np.diag([0.0, 2.0]).astype(complex)
        res = midpoint_convexity_residual(EpsFunction(0.0), a, b, CFG)
        assert res.min_eig == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [-0.5, 0.0, 0.5])
    def test_random_property(self, eps):
        rng = np.random.default_rng(38)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            a = random_hermitian(d, rng)
            b = random_hermitian(d, rng)
            # scale both into the domain of f_eps
            bound = max(opnorm(a), opnorm(b), 1.0)
            a, b = a / bound, b / bound
            res = midpoint_convexity_residual(EpsFunction(eps), a, b, CFG)
            assert res.min_eig >= -1e-8


class TestKadisonSchwarz:
    def test_identity_channel(self, identity_channel):
        rng = np.random.default_rng(39)
        a = random_hermitian(2, rng)
        res = kadison_schwarz_residual(identity_channel, a, CFG)
        assert abs(res.min_eig) <= 1e-12

    def test_lueders_hand_arithmetic(self, lueders):
        a = np.array([[1, 2], [2, 3]], dtype=complex)
        res = kadison_schwarz_residual(lueders, a, CFG)
        assert res.min_eig == pytest.approx(4.0, abs=1e-12)

    def test_random_property(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            kf = random_unital_family(d, int(rng.integers(1, 4)), rng)
            res = kadison_schwarz_residual(kf, random_hermitian(d, rng), CFG)
            assert res.min_eig >= -1e-8

    def test_rejects_nonunital(self):
        kf = KrausFamily.from_operators([np.eye(2, dtype=complex) / 2.0])
        with pytest.raises(ValueError):
            kadison_schwarz_residual(kf, np.eye(2), CFG)


class TestLambdaDomination:
    def test_boundary_eps_zero(self):
        res = lambda_domination_check(EpsFunction(0.0), np.diag([1.0]).astype(complex), CFG)
        assert abs(res.min_eig) <= 1e-12

    def test_scalar_lambda_formula(self):
        # lambda = 1/(1-0.5) = 2, f(1) = 2, so the bound is tight
        res = lambda_domination_check(EpsFunction(0.5), np.diag([1.0]).astype(complex), CFG)
        assert abs(res.min_eig) <= 1e-12

    def test_random_psd_property(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            h = random_hermitian(d, rng)
            a = h @ h.conj().T
            eps = float(rng.uniform(-0.9, 0.9)) / opnorm(a)
            res = lambda_domination_check(EpsFunction(eps), a, CFG)
            assert res.min_eig >= -1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            lambda_domination_check(EpsFunction(0.0), np.diag([1.0, -1.0]).astype(complex), CFG)

    def test_indefinite_is_a_precondition_failure(self):
        with pytest.raises(PreconditionError, match="positive semidefinite"):
            lambda_domination_check(EpsFunction(0.0), np.diag([1.0, -1.0]).astype(complex), CFG)
