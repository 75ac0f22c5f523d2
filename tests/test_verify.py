import numpy as np
import pytest

from cpfix.algebra import BlockAlgebra, commutant_basis
from cpfix.channel import KrausFamily, apply_map, fixed_space_basis, normalization_report
from cpfix.jensen import EpsFunction, jensen_residual, kadison_schwarz_residual
from cpfix.matcore import ToleranceConfig, commutator, herm_eig, hermitize, opnorm, psd_min_eig, vec
from cpfix.verify import (
    PreconditionError,
    TrialConfig,
    corollary_verify,
    haar_unitary,
    hypothesis_explorer,
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


@pytest.mark.parametrize(
    "pipeline",
    [
        lambda kf, a: corollary_verify(kf, FULL2, a, CFG),
        lambda kf, a: kadison_schwarz_residual(kf, a, CFG),
        lambda kf, a: spectral_peel(kf, a, CFG),
    ],
    ids=["corollary", "kadison-schwarz", "peel"],
)
def test_unital_requirement_is_a_precondition_error(pipeline):
    # {2 I} is self-adjoint and not unital; a = 0 is a positive fixed point,
    # so the unitality requirement is the first one to fail
    kf = KrausFamily.from_operators([2.0 * np.eye(2)])
    with pytest.raises(PreconditionError, match="requires a unital family"):
        pipeline(kf, np.zeros((2, 2)))


def test_trace_chain_and_jensen_build_no_report(monkeypatch):
    # both read the family's cached row and column sums
    import sys

    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return normalization_report(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("cpfix") and getattr(mod, "normalization_report", None) is normalization_report:
            monkeypatch.setattr(mod, "normalization_report", counting)
    kf = random_bistochastic(4, 3, 2)
    a = 2.0 * np.eye(4)
    assert trace_chain_residual(kf, BlockAlgebra.full(4), a, CFG) <= 1e-12
    assert jensen_residual(kf, EpsFunction(0.1), a, CFG).verdict
    assert calls == [0]


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
        with pytest.raises(PreconditionError, match=r"family violates sum mu x x\* <= 1"):
            trace_inequality_check(kf, FULL2, np.eye(2), CFG)

    def test_rejects_operator_outside_algebra(self, identity_channel):
        a = np.array([[2, 1], [1, 2]], dtype=complex)
        with pytest.raises(PreconditionError, match="a is not in the algebra"):
            trace_inequality_check(identity_channel, BlockAlgebra((1, 1), (1.0, 1.0)), a, CFG)


class TestTheoremVerify:
    def test_identity_channel(self, identity_channel):
        rng = np.random.default_rng(52)
        h = random_hermitian(2, rng)
        report = theorem_verify(identity_channel, FULL2, h @ h.conj().T, CFG)
        assert report.verdict
        assert report.residuals("fixedness")[0] <= 1e-12
        assert max(report.residuals("commutators")) <= 1e-12

    def test_mixture_fixed_point(self, mixture):
        report = theorem_verify(mixture, FULL2, np.array([[2, 1], [1, 2]], dtype=complex), CFG)
        assert report.verdict
        assert max(report.residuals("commutators")) <= 1e-12

    def test_mixture_non_super_fixed(self, mixture):
        report = theorem_verify(mixture, FULL2, np.diag([2.0, 1.0]).astype(complex), CFG)
        assert not report.verdict
        assert not report.hypotheses["superFixed"]
        # conclusion residuals are not asserted on hypothesis failure
        assert report.residuals("fixedness") == []
        assert report.residuals("powers") == []

    def test_report_dict_schema(self, mixture):
        d = theorem_verify(mixture, FULL2, np.eye(2), CFG).to_dict()
        assert set(d) == {"verdict", "hypotheses", "residuals", "failures"}
        assert set(d["hypotheses"]) == {
            "unital",
            "subunitalDual",
            "invariance",
            "aInAlgebra",
            "aPositive",
            "superFixed",
        }

    def test_operator_outside_algebra_is_a_hypothesis_failure(self, identity_channel):
        # the docstring promises hypothesis failures are reported, never raised
        a = np.array([[2, 1], [1, 2]], dtype=complex)
        report = theorem_verify(identity_channel, BlockAlgebra((1, 1), (1.0, 1.0)), a, CFG)
        assert not report.verdict
        assert report.hypotheses["invariance"] and not report.hypotheses["aInAlgebra"]
        assert report.failures == ["hypothesis failed: aInAlgebra"]
        assert report.residuals("traceGap") == [] and report.residuals("commutators") == []

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
        assert report.verdict and report.residuals("traceGap")
        assert calls == {"report": 1, "image": 1}

    def test_one_decomposition_and_no_invariance_map_calls(self, monkeypatch):
        # the full algebra is invariant without applying the map, and sqrt(a),
        # both f_eps(a) and the spectral projections share one herm_eig(a):
        # 1 Phi(a) + 2 f_eps + 7 powers + 1 projection = 11 matrices through
        # the map, in 4 calls (one per stage)
        import sys

        calls = {"apply_map": 0, "herm_eig": 0, "map calls": 0}
        for real in (apply_map, herm_eig):

            def counting(*args, _real=real, **kwargs):
                if _real is apply_map:
                    calls["map calls"] += 1
                    calls["apply_map"] += int(np.prod(np.shape(args[1])[:-2]))
                else:
                    calls["herm_eig"] += 1
                return _real(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("cpfix") and getattr(mod, real.__name__, None) is real:
                    monkeypatch.setattr(mod, real.__name__, counting)
        kf = random_bistochastic(6, 3, 0)
        report = theorem_verify(kf, BlockAlgebra.full(6), 2.0 * np.eye(6), CFG)
        assert report.verdict
        assert calls == {"apply_map": 11, "herm_eig": 1, "map calls": 4}

    def test_membership_asked_once(self, monkeypatch):
        # on one block, aInAlgebra and tau(Phi(a)) take no SVD, and tau(a)
        # reuses aInAlgebra's answer; herm_eig reads ||a|| off its eigenvalues:
        # 32 spectral norms (report 7, cached ||x_t|| 3, fixedness 1, f_eps 4,
        # powers 7, projection 1, off-diagonal blocks 6, commutators 3) in 8
        # singular-value calls
        svds = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svds.append(int(np.prod(np.shape(a)[:-2])))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        kf = random_bistochastic(6, 3, 0)
        assert theorem_verify(kf, BlockAlgebra.full(6), 2.0 * np.eye(6), CFG).verdict
        assert (sum(svds), len(svds)) == (32, 8)

    def test_hermiticity_checked_on_input_only(self, monkeypatch):
        # the deviation test (two spectral norms: deviation and scale) runs
        # once per not exactly Hermitian input; herm_eig, psd_min_eig, the
        # internal ">= 0" tests (I - row sum, a, Phi(a) - a) and the
        # corollary's a^2 run none
        import sys

        svds, depth = [0], [0]
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if depth[0] > 0:
                svds[0] += int(np.prod(np.shape(a)[:-2]))
            return real_svd(a, *args, **kwargs)

        def counting_hermitize(*args, **kwargs):
            depth[0] += 1
            try:
                return hermitize(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("cpfix") and getattr(mod, "hermitize", None) is hermitize:
                monkeypatch.setattr(mod, "hermitize", counting_hermitize)
        kf = random_bistochastic(6, 3, 0)
        normalization_report(kf, CFG)
        assert svds == [0]
        skew = np.triu(np.full((6, 6), 1e-14j), 1)
        a = 2.0 * np.eye(6) + skew + skew.T
        assert not np.array_equal(a, a.conj().T)
        assert theorem_verify(kf, BlockAlgebra.full(6), a, CFG).verdict
        assert svds == [2]
        assert corollary_verify(kf, BlockAlgebra.full(6), a, CFG).verdict
        assert svds == [4]

    def test_failures_follow_stage_order(self):
        # a fixed point with a 2-block spectral gap of 5e-8, plus a 3e-9
        # Hermitian perturbation: every hypothesis holds, but fixedness, the
        # powers, and the eigenprojections (rotated across the small gap) fail
        rng = np.random.default_rng(3)
        ops = []
        for _ in range(3):
            u = np.zeros((4, 4), dtype=complex)
            u[:2, :2], u[2:, 2:] = haar_unitary(2, rng), haar_unitary(2, rng)
            ops.append(u / np.sqrt(3))
        kf = KrausFamily.from_operators(ops)
        z = random_hermitian(4, rng)
        a = np.diag([1.0, 1.0, 1 + 5e-8, 1 + 5e-8]) + 3e-9 * z / opnorm(z)
        report = theorem_verify(kf, BlockAlgebra.full(4), a, CFG)
        assert all(report.hypotheses.values())
        stages = ["traceGap", "fixedness", "fEps", "powers", "projections", "offDiagonal", "commutators"]
        names = [c.name for c in report.checks]
        assert names == sorted(names, key=stages.index)
        failed = [c for c in report.checks if not c.passed]
        expected = ["fixedness"] + ["powers"] * 8 + ["projections"] * 2 + ["offDiagonal"] * 2
        assert [c.name for c in failed] == expected
        assert report.failures == [c.failure for c in failed]
        assert report.verdict == all(c.passed for c in report.checks) is False
        assert report.to_dict()["failures"] == report.failures

    def test_projection_stages_memory_bounded(self, monkeypatch):
        # a of simple spectrum at d = 32 with k = 4 diagonal unitaries: all
        # 2nk off-diagonal blocks at once would take 2k = 8 times the n = 32
        # projections' d x d complex entries; groups of projections (7 per
        # group here) keep the traced peak below that, and one projection
        # per group changes no reported residual
        import tracemalloc

        import cpfix.verify as verify_mod

        d, k = 32, 4
        rng = np.random.default_rng(0)
        kf = KrausFamily.from_operators(
            [np.diag(np.exp(2j * np.pi * rng.uniform(size=d))) / 2 for _ in range(k)]
        )
        a = np.diag(np.arange(1.0, d + 1))
        tracemalloc.start()
        try:
            report = theorem_verify(kf, BlockAlgebra.full(d), a, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict
        assert len(report.residuals("offDiagonal")) == d
        assert peak < 2 * k * d * d * d * 16
        monkeypatch.setattr(verify_mod, "GROUP_BYTES", 1)
        assert theorem_verify(kf, BlockAlgebra.full(d), a, CFG).to_dict() == report.to_dict()


class TestCorollaryVerify:
    def test_identity_channel(self, identity_channel):
        rng = np.random.default_rng(53)
        h = random_hermitian(2, rng)
        report = corollary_verify(identity_channel, FULL2, h @ h.conj().T, CFG)
        assert report.verdict

    def test_mixture(self, mixture):
        report = corollary_verify(mixture, FULL2, np.array([[2, 1], [1, 2]], dtype=complex), CFG)
        assert report.verdict
        assert max(report.residuals("commutators")) <= 1e-12

    def test_square_commutators_count_but_report_a(self):
        # x = 200 U with weight 1/(2 200^2) leaves Phi unchanged and scales the
        # commutators by 200: a = I + 2e-9 sigma_z is fixed to 8e-11, its
        # commutators (8e-8) pass, and those of a^2 (twice as large) fail
        sigma_z = np.diag([1.0, -1.0]).astype(complex)
        u = np.cos(0.1) * np.eye(2) + 1j * np.sin(0.1) * SIGMA_X
        kf = KrausFamily.from_operators([200 * u, 200 * u.conj().T], weights=[0.5 / 200**2] * 2)
        a = np.eye(2) + 2e-9 * sigma_z
        report = corollary_verify(kf, FULL2, a, CFG)
        comms = [opnorm(commutator(a, x)) for x in kf.operators]
        assert report.residuals("commutators") == comms
        assert report.to_dict()["residuals"]["commutators"] == comms
        assert max(comms) < 1e-7
        assert not report.verdict
        assert [c.name for c in report.checks if not c.passed] == ["squareCommutators"] * 2
        assert all(f.startswith("commutator residual ") for f in report.failures)

    def test_lueders_diagonal(self, lueders):
        report = corollary_verify(lueders, FULL2, np.diag([1.0, 3.0]).astype(complex), CFG)
        assert report.verdict

    def test_rejects_non_fixed_point(self, lueders):
        with pytest.raises(PreconditionError):
            corollary_verify(lueders, FULL2, np.array([[1, 1], [1, 1]], dtype=complex), CFG)

    def test_rejects_non_unital_family(self):
        # a fixed point of a non-unital map: Kadison-Schwarz needs unitality
        kf = KrausFamily.from_operators([E11])
        with pytest.raises(ValueError, match="Kadison-Schwarz check requires a unital family"):
            corollary_verify(kf, FULL2, E11, CFG)

    def test_report_and_images_computed_once(self, monkeypatch):
        # one report, Phi(a) and Phi(a^2) shared with the main pipeline:
        # Phi(a) + Phi(a^2) + 2 f_eps + 7 powers + 1 projection = 12 matrices
        # through the map, in 5 calls
        import sys

        calls = {"apply_map": 0, "normalization_report": 0, "map calls": 0}
        for real in (apply_map, normalization_report):

            def counting(*args, _real=real, **kwargs):
                if _real is apply_map:
                    calls["map calls"] += 1
                    calls["apply_map"] += int(np.prod(np.shape(args[1])[:-2]))
                else:
                    calls["normalization_report"] += 1
                return _real(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("cpfix") and getattr(mod, real.__name__, None) is real:
                    monkeypatch.setattr(mod, real.__name__, counting)
        kf = random_bistochastic(6, 3, 0)
        report = corollary_verify(kf, BlockAlgebra.full(6), 2.0 * np.eye(6), CFG)
        assert report.verdict
        assert calls == {"apply_map": 12, "normalization_report": 1, "map calls": 5}


def _power_oracle(kf, a, n_max):
    """||Phi(h^n) - h^n|| for n = 1..n_max, one map application per power."""
    h = hermitize(a, CFG)
    power, out = h, []
    for _ in range(n_max):
        out.append(opnorm(apply_map(kf, power) - power))
        power = power @ h
    return out


class TestPowerFixedCheck:
    """The theorem's powers stage, against a loop of single map applications."""

    def _powers(self, kf, a, n_max):
        report = theorem_verify(kf, BlockAlgebra.full(kf.dim), a, CFG, powers=n_max)
        assert report.verdict
        return report.residuals("powers")

    def test_matches_theorem_powers_stage(self):
        kf = random_bistochastic(4, 3, 7)
        a = 2.5 * np.eye(4, dtype=complex)
        assert self._powers(kf, a, 6) == _power_oracle(kf, a, 6)

    def test_identity_channel(self, identity_channel):
        rng = np.random.default_rng(54)
        h = random_hermitian(2, rng)
        a = h @ h
        residuals = self._powers(identity_channel, a, 5)
        assert residuals == _power_oracle(identity_channel, a, 5)
        assert max(residuals) <= 1e-10

    def test_mixture(self, mixture):
        a = 2 * np.eye(2, dtype=complex) + SIGMA_X
        residuals = self._powers(mixture, a, 5)
        assert residuals == _power_oracle(mixture, a, 5)
        assert max(residuals) <= 1e-10

    def test_lueders(self, lueders):
        a = np.diag([1.0, 3.0]).astype(complex)
        residuals = self._powers(lueders, a, 5)
        assert residuals == _power_oracle(lueders, a, 5)
        assert max(residuals) <= 1e-12


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

    def test_one_decomposition_per_peel(self, lueders, monkeypatch):
        # the steps peel the projections of one decomposition of a; no
        # remainder is decomposed again
        import cpfix.verify as verify_mod

        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return herm_eig(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "herm_eig", counting)
        for a in (np.eye(2), np.diag([3.0, 1.0])):
            calls[0] = 0
            trace = spectral_peel(lueders, a, CFG)
            assert trace.verdict
            assert calls[0] == 1

    def test_mixture_not_super_fixed(self, mixture):
        with pytest.raises(PreconditionError, match="Phi\\(a\\) >= a"):
            spectral_peel(mixture, np.diag([3.0, 1.0]).astype(complex), CFG)

    def test_failed_step_is_first_failing_step(self):
        # exactly unital projections; an eq_tol below rounding fails the
        # commutator checks of every step, and failedStep names the first
        # failing step, not the last one
        x1 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        x2 = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        kf = KrausFamily.from_operators([x1, x2])
        trace = spectral_peel(kf, 3 * x1 + x2, ToleranceConfig(eq_tol=1e-30))
        assert not trace.verdict
        assert trace.failed_step < len(trace.steps)
        assert trace.failures[0].startswith(f"step {trace.failed_step}: ")
        assert trace.to_dict()["failedStep"] == trace.failed_step

    def test_projection_stage_has_the_theorems_bounds(self, lueders):
        # both pipelines measure 1e-6 for each projection's fixedness and
        # commutator; a bound scaled by ||a|| = 2e4 would pass them in the
        # peel while the theorem fails them
        cfg = ToleranceConfig(psd_tol=0.1)
        a = 1e4 * (np.diag([2.0, 1.0]) + 1e-6 * SIGMA_X)
        trace = spectral_peel(lueders, a, cfg)
        report = theorem_verify(lueders, BlockAlgebra.full(2), a, cfg)
        assert all(report.hypotheses.values())
        assert [c.passed for c in report.checks if c.name in ("projections", "offDiagonal")] == [False] * 4
        assert [c.passed for _, c in trace.checks if c.name in ("fixedness", "commutator")] == [False] * 4
        assert not trace.verdict and trace.failed_step == 0
        assert all(s.fixedness_residual == pytest.approx(1e-6, rel=1e-3) for s in trace.steps)

    def test_rejects_non_selfadjoint_family(self):
        kf = KrausFamily.from_operators([E12, E12.conj().T])
        with pytest.raises(PreconditionError, match="x_t"):
            spectral_peel(kf, np.eye(2), CFG)

    @pytest.mark.parametrize("tail", [-5e-9, -2e-9])
    def test_small_negative_eigenvalue_is_peeled_last(self, lueders, tail):
        # a passes aPositive and superFixed; its two spectral projections are
        # peeled in order, and no step peels I, which is not one of them
        trace = spectral_peel(lueders, np.diag([1.0, tail]), CFG)
        assert trace.verdict
        assert [s.eigenvalue for s in trace.steps] == [1.0, tail]
        np.testing.assert_array_equal(trace.steps[0].projection, E11)
        np.testing.assert_array_equal(trace.steps[1].projection, E22)

    @pytest.mark.parametrize("perturbation", [0.0, 1e-5])
    def test_steps_are_the_projections_of_a(self, perturbation):
        # each step peels the matching projection of herm_eig(a), and its
        # residuals are ||[x_t, p]|| and ||Phi(p) - p|| measured directly; a
        # perturbed a fails the commutator checks, which end no peel
        cfg = ToleranceConfig(psd_tol=1e-3)
        rng = np.random.default_rng(57)
        for _ in range(12):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(2, d + 1))
            kf = random_selfadjoint_family(d, n, rng.integers(0, 2**32))
            a = _commutant_positive_element(kf, rng)
            a = a + perturbation * random_hermitian(d, rng)
            trace = spectral_peel(kf, a, cfg)
            dec = herm_eig(a, cfg)
            assert len(trace.steps) == len(dec.projections)
            xs = np.stack(kf.operators)
            for step, lam, p in zip(trace.steps, dec.eigenvalues, dec.projections):
                assert step.eigenvalue == lam
                np.testing.assert_array_equal(step.projection, p)
                comm = max(opnorm(commutator(xs, p)))
                assert abs(step.commutator_residual - comm) <= 1e-13
                assert step.fixedness_residual == opnorm(apply_map(kf, p) - p)
            assert trace.verdict == (perturbation == 0.0)

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
    basis = commutant_basis(kf.operators).basis
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

    def test_too_many_projections_rejected(self):
        with pytest.raises(ValueError):
            random_selfadjoint_family(2, 3, 0)


class TestFixCommutantCoincidence:
    def test_bistochastic_dimensions_match(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            kf = random_bistochastic(d, int(rng.integers(2, 4)), rng.integers(0, 2**32))
            fs = fixed_space_basis(kf)
            cb = commutant_basis(kf.operators)
            assert fs.dimension == cb.dimension
            for b in fs.basis:
                proj = sum(np.vdot(vec(c), vec(b)) * c for c in cb.basis)
                assert opnorm(proj - b) <= 1e-8

    def test_super_fixed_collapse(self):
        # e = I and Phi(a) >= a with a >= 0 forces Phi(a) = a
        rng = np.random.default_rng(58)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            kf = random_bistochastic(d, 2, rng.integers(0, 2**32))
            fs = fixed_space_basis(kf)
            for b in fs.basis:
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

    @pytest.mark.parametrize("field", ["dim", "trials", "n_terms"])
    def test_nonpositive_count_rejected(self, field):
        config = {"dim": 2, "trials": 1, "seed": 0, "mode": "unital-only", "n_terms": 3}
        with pytest.raises(ValueError, match="must be >= 1"):
            TrialConfig(**{**config, field: 0})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            TrialConfig(dim=2, trials=1, seed=-1, mode="unital-only")
