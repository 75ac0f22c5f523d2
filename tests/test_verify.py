import numpy as np
import pytest

from cpfix.algebra import BlockAlgebra, commutant_basis
from cpfix.channel import KrausFamily, apply_map, fixed_space_basis, normalization_report
from cpfix.matcore import ToleranceConfig, commutator, herm_eig, opnorm, psd_min_eig, vec
from cpfix.verify import (
    PreconditionError,
    TrialConfig,
    corollary_verify,
    haar_unitary,
    hypothesis_explorer,
    power_fixed_check,
    random_bistochastic,
    random_selfadjoint_family,
    spectral_peel,
    theorem_verify,
    trace_chain_residual,
    trace_inequality_check,
)

from conftest import E11, E12, E22, SIGMA_X, random_hermitian, random_subunital_dual_family

CFG = ToleranceConfig()
FULL2 = BlockAlgebra.full(2)


class TestTraceInequality:
    def test_identity_channel_gap_zero(self, identity_channel):
        rng = np.random.default_rng(50)
        h = random_hermitian(2, rng)
        a = h @ h.conj().T
        assert abs(trace_inequality_check(identity_channel, FULL2, a, CFG)) <= 1e-10

    def test_shift_family_hand_arithmetic(self):
        # x = e12 gives e = e11 <= I; Phi(diag(2,1)) = 2 e22, so the gap is 1
        kf = KrausFamily.from_operators([E12])
        gap = trace_inequality_check(kf, FULL2, np.diag([2.0, 1.0]).astype(complex), CFG)
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_random_subunital_property(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            kf = random_subunital_dual_family(d, int(rng.integers(1, 4)), rng)
            h = random_hermitian(d, rng)
            a = h @ h.conj().T
            alg = BlockAlgebra.full(d)
            assert trace_inequality_check(kf, alg, a, CFG) >= -1e-8
            assert trace_chain_residual(kf, alg, a, CFG) <= 1e-9

    def test_rejects_indefinite(self, identity_channel):
        with pytest.raises(PreconditionError):
            trace_inequality_check(identity_channel, FULL2, SIGMA_X, CFG)

    def test_rejects_superunital_dual(self):
        kf = KrausFamily.from_operators([E12, E11])
        with pytest.raises(PreconditionError):
            trace_inequality_check(kf, FULL2, np.eye(2), CFG)


class TestTheoremVerify:
    def test_identity_channel(self, identity_channel):
        rng = np.random.default_rng(52)
        h = random_hermitian(2, rng)
        report = theorem_verify(identity_channel, FULL2, h @ h.conj().T, CFG)
        assert report.verdict
        assert report.fixedness_residual <= 1e-12
        assert max(report.commutator_residuals) <= 1e-12

    def test_mixture_fixed_point(self, mixture):
        report = theorem_verify(mixture, FULL2, np.array([[2, 1], [1, 2]], dtype=complex), CFG)
        assert report.verdict
        assert max(report.commutator_residuals) <= 1e-12

    def test_mixture_non_super_fixed(self, mixture):
        report = theorem_verify(mixture, FULL2, np.diag([2.0, 1.0]).astype(complex), CFG)
        assert not report.verdict
        assert not report.hypotheses["superFixed"]
        # conclusion residuals are not asserted on hypothesis failure
        assert report.fixedness_residual is None
        assert report.power_residuals == []

    def test_report_dict_schema(self, mixture):
        d = theorem_verify(mixture, FULL2, np.eye(2), CFG).to_dict()
        assert set(d) == {"verdict", "hypotheses", "residuals", "failures"}
        assert set(d["hypotheses"]) == {
            "unital",
            "subunitalDual",
            "invariance",
            "aPositive",
            "superFixed",
        }

    def test_report_and_image_computed_once(self, mixture, monkeypatch):
        # the trace gap and trace chain reuse the pipeline's report and Phi(a)
        import cpfix.verify as verify_mod

        a = np.array([[2, 1], [1, 2]], dtype=complex)
        calls = {"report": 0, "image": 0}
        real_report, real_apply = verify_mod.normalization_report, verify_mod.apply_map

        def counting_report(*args, **kwargs):
            calls["report"] += 1
            return real_report(*args, **kwargs)

        def counting_apply(kf, b):
            calls["image"] += int(np.array_equal(b, a))
            return real_apply(kf, b)

        monkeypatch.setattr(verify_mod, "normalization_report", counting_report)
        monkeypatch.setattr(verify_mod, "apply_map", counting_apply)
        report = theorem_verify(mixture, FULL2, a, CFG)
        assert report.verdict and report.trace_gap is not None
        assert calls == {"report": 1, "image": 1}

    def test_one_decomposition_and_no_invariance_map_calls(self, monkeypatch):
        # the full algebra is invariant without applying the map, and sqrt(a),
        # both f_eps(a) and the spectral projections share one herm_eig(a):
        # 1 Phi(a) + 2 f_eps + 7 powers + 1 projection = 11 map applications
        import sys

        calls = {"apply_map": 0, "herm_eig": 0}
        for real in (apply_map, herm_eig):

            def counting(*args, _real=real, **kwargs):
                calls[_real.__name__] += 1
                return _real(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("cpfix") and getattr(mod, real.__name__, None) is real:
                    monkeypatch.setattr(mod, real.__name__, counting)
        kf = random_bistochastic(6, 3, 0)
        report = theorem_verify(kf, BlockAlgebra.full(6), 2.0 * np.eye(6), CFG)
        assert report.verdict
        assert calls == {"apply_map": 11, "herm_eig": 1}


class TestCorollaryVerify:
    def test_identity_channel(self, identity_channel):
        rng = np.random.default_rng(53)
        h = random_hermitian(2, rng)
        report = corollary_verify(identity_channel, FULL2, h @ h.conj().T, CFG)
        assert report.verdict

    def test_mixture(self, mixture):
        report = corollary_verify(mixture, FULL2, np.array([[2, 1], [1, 2]], dtype=complex), CFG)
        assert report.verdict
        assert max(report.commutator_residuals) <= 1e-12

    def test_lueders_diagonal(self, lueders):
        report = corollary_verify(lueders, FULL2, np.diag([1.0, 3.0]).astype(complex), CFG)
        assert report.verdict

    def test_rejects_non_fixed_point(self, lueders):
        with pytest.raises(PreconditionError):
            corollary_verify(lueders, FULL2, np.array([[1, 1], [1, 1]], dtype=complex), CFG)


class TestPowerFixedCheck:
    def test_identity_channel(self, identity_channel):
        rng = np.random.default_rng(54)
        h = random_hermitian(2, rng)
        assert max(power_fixed_check(identity_channel, h, 5, CFG)) <= 1e-10

    def test_mixture(self, mixture):
        a = 2 * np.eye(2, dtype=complex) + SIGMA_X
        assert max(power_fixed_check(mixture, a, 5, CFG)) <= 1e-10

    def test_lueders(self, lueders):
        residuals = power_fixed_check(lueders, np.diag([1.0, 3.0]).astype(complex), 5, CFG)
        assert max(residuals) <= 1e-12

    def test_rejects_non_fixed(self, lueders):
        with pytest.raises(PreconditionError):
            power_fixed_check(lueders, SIGMA_X + np.eye(2), 3, CFG)


class TestSpectralPeel:
    def test_identity_operator_single_step(self, lueders):
        trace = spectral_peel(lueders, np.eye(2), CFG)
        assert trace.verdict
        assert len(trace.steps) == 1
        assert trace.steps[0].eigenvalue == pytest.approx(1.0)
        assert trace.steps[0].commutator_residual <= 1e-12

    def test_lueders_two_steps(self, lueders):
        trace = spectral_peel(lueders, np.diag([3.0, 1.0]).astype(complex), CFG)
        assert trace.verdict
        assert [s.eigenvalue for s in trace.steps] == pytest.approx([3.0, 1.0])
        np.testing.assert_allclose(trace.steps[0].projection, E11, atol=1e-12)
        np.testing.assert_allclose(trace.steps[1].projection, E22, atol=1e-12)

    def test_mixture_not_super_fixed(self, mixture):
        with pytest.raises(PreconditionError, match="Phi\\(a\\) >= a"):
            spectral_peel(mixture, np.diag([3.0, 1.0]).astype(complex), CFG)

    def test_rejects_non_selfadjoint_family(self):
        kf = KrausFamily.from_operators([E12, E12.conj().T])
        with pytest.raises(PreconditionError, match="x_t"):
            spectral_peel(kf, np.eye(2), CFG)

    def test_peel_commutant_agreement(self):
        # verdict true implies the full commutator claim reassembles
        rng = np.random.default_rng(55)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, d + 1))
            kf = random_selfadjoint_family(d, n, rng.integers(0, 2**32))
            a = _commutant_positive_element(kf, rng)
            trace = spectral_peel(kf, a, CFG)
            assert trace.verdict
            for x in kf.operators:
                assert opnorm(commutator(a, x)) <= 10 * CFG.eq_tol * max(1.0, opnorm(a))


def _commutant_positive_element(kf, rng):
    basis = commutant_basis(kf.operators, CFG).elements
    herm = []
    for b in basis:
        herm.append((b + b.conj().T) / 2.0)
        herm.append((b - b.conj().T) / 2.0j)
    raw = sum(float(c) * h for c, h in zip(rng.standard_normal(len(herm)), herm))
    return raw + (opnorm(raw) + 0.1) * np.eye(kf.dim)


class TestGenerators:
    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(56)
        u = haar_unitary(4, rng)
        assert opnorm(u @ u.conj().T - np.eye(4)) <= 1e-12

    def test_bistochastic_single_term(self):
        kf = random_bistochastic(3, 1, 0)
        rep = normalization_report(kf, CFG)
        assert rep.is_unital and rep.is_trace_preserving

    def test_bistochastic_flags(self):
        rep = normalization_report(random_bistochastic(3, 4, 123), CFG)
        assert rep.is_unital and rep.is_subunital_dual and rep.is_trace_preserving

    def test_bistochastic_deterministic(self):
        a = random_bistochastic(3, 2, 99)
        b = random_bistochastic(3, 2, 99)
        for (wa, xa), (wb, xb) in zip(a.terms, b.terms):
            assert wa == wb
            np.testing.assert_array_equal(xa, xb)

    def test_selfadjoint_single_term_is_symmetry(self):
        kf = random_selfadjoint_family(3, 1, 5)
        x = kf.operators[0]
        assert opnorm(x - x.conj().T) <= 1e-12
        assert opnorm(x @ x - np.eye(3)) <= 1e-12

    def test_selfadjoint_flags(self):
        rep = normalization_report(random_selfadjoint_family(4, 3, 6), CFG)
        assert rep.self_adjoint_family and rep.is_unital

    def test_selfadjoint_perturbed_strategy(self):
        kf = random_selfadjoint_family(4, 3, 7, strategy="perturbed")
        rep = normalization_report(kf, CFG)
        assert rep.self_adjoint_family
        assert opnorm(rep.column_sum - np.eye(4)) <= 1e-10

    def test_too_many_projections_rejected(self):
        with pytest.raises(ValueError):
            random_selfadjoint_family(2, 3, 0)


class TestFixCommutantCoincidence:
    def test_bistochastic_dimensions_match(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            kf = random_bistochastic(d, int(rng.integers(2, 4)), rng.integers(0, 2**32))
            fs = fixed_space_basis(kf, CFG)
            cb = commutant_basis(kf.operators, CFG)
            assert fs.dimension == cb.dimension
            for b in fs.herm_basis:
                proj = sum(np.vdot(vec(c), vec(b)) * c for c in cb.elements)
                assert opnorm(proj - b) <= 1e-8

    def test_super_fixed_collapse(self):
        # e = I and Phi(a) >= a with a >= 0 forces Phi(a) = a
        rng = np.random.default_rng(58)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            kf = random_bistochastic(d, 2, rng.integers(0, 2**32))
            fs = fixed_space_basis(kf, CFG)
            for b in fs.herm_basis:
                a = b + opnorm(b) * np.eye(d)
                assert psd_min_eig(apply_map(kf, a) - a) >= -CFG.psd_tol
                assert opnorm(apply_map(kf, a) - a) <= CFG.eq_tol * max(1.0, opnorm(a))


class TestExplorer:
    def test_unital_only_bistochastic_clean(self):
        report = hypothesis_explorer(TrialConfig(dim=3, trials=10, seed=1, mode="unital-only"), CFG)
        assert report.clean

    def test_deterministic(self):
        cfg = TrialConfig(dim=2, trials=5, seed=7, mode="subunital-only")
        a = hypothesis_explorer(cfg, CFG).to_dict()
        b = hypothesis_explorer(cfg, CFG).to_dict()
        assert a == b

    def test_report_schema(self):
        d = hypothesis_explorer(TrialConfig(dim=2, trials=2, seed=0, mode="unital-only"), CFG).to_dict()
        assert set(d) == {
            "verdict",
            "config",
            "violationCount",
            "violations",
            "maxCommutatorResidual",
        }

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(dim=2, trials=1, seed=0, mode="nonsense")
