import numpy as np
import pytest

from cpfix.jensen import (
    EpsFunction,
    f_eps_eval,
    jensen_residual,
    kadison_schwarz_residual,
)
from cpfix.algebra import BlockAlgebra
from cpfix.channel import KrausFamily
from cpfix.matcore import DomainError, PreconditionError, ToleranceConfig, opnorm
from cpfix.verify import corollary_verify

from conftest import HADAMARD, random_contractive_family, random_hermitian, random_unital_family

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

    @pytest.mark.parametrize("eps", [-0.4, 0.4])
    def test_random_hermitian_closed_form(self, eps):
        # f_eps(a) = a^2 (I - eps a)^{-1}, off the diagonal too
        rng = np.random.default_rng(33)
        a = random_hermitian(4, rng)
        a = a / opnorm(a)
        want = a @ a @ np.linalg.inv(np.eye(4) - eps * a)
        assert opnorm(f_eps_eval(EpsFunction(eps), a, CFG) - want) <= 1e-12

    def test_pole_margin_refused(self):
        with pytest.raises(DomainError):
            f_eps_eval(EpsFunction(1.0), np.diag([0.995, 0.0]).astype(complex), CFG)


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

    def test_overflowing_square_is_named(self, lueders):
        # warnings are errors here: the products must overflow silently and be named
        a = np.diag([1.7e308, 1.0])
        msg = r"the square a\^2 overflows double precision"
        with pytest.raises(ValueError, match=msg):
            kadison_schwarz_residual(lueders, a, CFG)
        with pytest.raises(ValueError, match=msg):
            corollary_verify(lueders, BlockAlgebra.full(2), a, CFG)

    def test_overflowing_image_square_is_named(self):
        # a = c [[1, 1], [1, 1]] squares to 2c^2 [[1, 1], [1, 1]], finite, while the
        # Hadamard conjugate Phi(a) = diag(2c, 0) squares to 4c^2 > 1.8e308
        a = 0.8e154 * np.ones((2, 2))
        kf = KrausFamily.from_operators([HADAMARD])
        with pytest.raises(ValueError, match=r"the square Phi\(a\)\^2 overflows double precision"):
            kadison_schwarz_residual(kf, a, CFG)
