import ast
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cpfix import cli, io, verify
from cpfix.algebra import BlockAlgebra, commutant_basis
from cpfix.channel import KrausFamily, apply_map, fixed_space_basis, normalization_report
from cpfix.jensen import EpsFunction, jensen_residual, kadison_schwarz_residual
from cpfix.matcore import ToleranceConfig, commutator, herm_eig, herm_part, hermitize, opnorm, psd_min_eig, vec
from cpfix.verify import (
    CONCLUSION_SLACK,
    PreconditionError,
    TrialConfig,
    corollary_verify,
    hypothesis_explorer,
    spectral_peel,
    theorem_verify,
    trace_inequality_check,
)

from conftest import (
    E11,
    E12,
    E22,
    SIGMA_X,
    haar_unitary,
    projections,
    random_bistochastic,
    random_hermitian,
    random_selfadjoint_family,
    random_subunital_dual_family,
    su2_tensor_family,
    transposition_family,
)

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


FLAGS = ("is_unital", "is_subunital_dual", "is_trace_preserving", "self_adjoint_family", "rigidity_holds")


def _recorded(monkeypatch) -> list:
    """The list that every report built from now on is appended to."""
    import sys

    reports = []

    def recording(*args, **kwargs):
        reports.append(normalization_report(*args, **kwargs))
        return reports[-1]

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("cpfix") and getattr(mod, "normalization_report", None) is normalization_report:
            monkeypatch.setattr(mod, "normalization_report", recording)
    return reports


def _decided(reports) -> list:
    """Per report: the flags decided on it, and whether its family's row sum was read."""
    return [({f for f in FLAGS if f in vars(rep)}, "row_sum" in vars(rep.family)) for rep in reports]


def test_jensen_builds_no_report(monkeypatch):
    # it reads the family's cached column sum
    reports = _recorded(monkeypatch)
    assert jensen_residual(random_bistochastic(4, 3, 2), EpsFunction(0.1), 2.0 * np.eye(4), CFG).verdict
    assert reports == []


@pytest.mark.parametrize(
    "command, flags, row_sum",
    [
        ("check", set(FLAGS), True),
        # the structure path reads the row sum, the report does not
        ("fix", {"is_unital"}, True),
        ("verify", {"is_unital", "is_subunital_dual"}, True),
        ("corollary", {"is_unital", "is_subunital_dual"}, True),
        ("peel", {"is_unital", "self_adjoint_family"}, False),
    ],
    ids=["check", "fix", "verify", "corollary", "peel"],
)
def test_command_decides_only_the_flags_it_reads(tmp_path, monkeypatch, command, flags, row_sum):
    # the Lueders family and its fixed point diag(2, 1), on which each command passes
    io.write_channel(tmp_path / "lueders.json", KrausFamily.from_operators([E11, E22]))
    io.write_matrix(tmp_path / "a.json", np.diag([2.0, 1.0]).astype(complex))
    argv = [command, str(tmp_path / "lueders.json")]
    if command in ("verify", "corollary", "peel"):
        argv.append(str(tmp_path / "a.json"))
    reports = _recorded(monkeypatch)
    assert cli.run(argv) == 0
    assert _decided(reports) == [(flags, row_sum)]


@pytest.mark.parametrize(
    "pipeline, flags, row_sum",
    [
        (lambda kf, a: trace_inequality_check(kf, BlockAlgebra.full(4), a, CFG) >= 0.0, {"is_subunital_dual"}, True),
        (lambda kf, a: kadison_schwarz_residual(kf, a, CFG).verdict, {"is_unital"}, False),
    ],
    ids=["trace-inequality", "kadison-schwarz"],
)
def test_pipeline_decides_only_the_flags_it_reads(monkeypatch, pipeline, flags, row_sum):
    # the two pipelines no command runs; a self-adjoint partition of the
    # identity, and a fixed point that both accept
    reports = _recorded(monkeypatch)
    kf = random_selfadjoint_family(4, 3, 2)
    assert pipeline(kf, sum((k + 1.0) * p for k, p in enumerate(kf.operators)))
    assert _decided(reports) == [(flags, row_sum)]


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
            # the check raises unless tau(Phi(a)) = tau(sqrt(a) e sqrt(a)) within eq_bound(|tau(a)|)
            assert trace_inequality_check(kf, alg, a, CFG) >= -1e-8

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
        # both f_eps(a), the powers and the spectral projections share one
        # herm_eig(a); the conclusion stages go through the map in a's
        # eigenframe, so Phi(a) is the one matrix through apply_map
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
        assert calls == {"apply_map": 1, "herm_eig": 1, "map calls": 1}

    def test_membership_asked_once(self, monkeypatch):
        # on one block, aInAlgebra and tau(Phi(a)) take no SVD, and tau(a)
        # reuses aInAlgebra's answer; herm_eig reads ||a|| off its eigenvalues;
        # the report's flags are decided from Frobenius norms, and a = 2 I has
        # one cluster, so no off-diagonal block.  The Hermitian norms are
        # largest |eigenvalues| and the f_eps norms are read off f(lambda):
        # singular values only for the cached ||x_t|| and the commutators, 3
        # each; eigenvalues for the ">= 0" test of I - row sum, then one call
        # for Phi(a) - a, its ">= 0" test and fixedness alike, then f_eps 2
        # and powers 7 in one call, and the projection 1.  a's positivity is
        # read off its one decomposition (eigh, not counted here)
        calls = []
        for name in ("svd", "eigvalsh"):

            def counting(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, int(np.prod(np.shape(a)[:-2]))))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        kf = random_bistochastic(6, 3, 0)
        report = theorem_verify(kf, BlockAlgebra.full(6), 2.0 * np.eye(6), CFG)
        assert report.verdict and report.residuals("offDiagonal") == [0.0]
        assert calls == [("eigvalsh", 1)] * 2 + [("eigvalsh", 9), ("svd", 3), ("eigvalsh", 1), ("svd", 3)]

    def test_off_diagonal_norms_are_eigenframe_blocks(self, monkeypatch):
        # a rotated block fixed point with clusters of ranks 3, 2 and 1: the
        # off-diagonal stage takes one norm call per rank, of the 2n blocks
        # r x (d - r) of V* x_t V per projection; no SVD has the hermitize
        # test or a report flag behind it, and every Hermitian norm is an
        # eigenvalue call
        svds = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svds.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        rng = np.random.default_rng(4)
        v = haar_unitary(6, rng)
        ops = []
        for _ in range(3):
            u = np.zeros((6, 6), dtype=complex)
            u[:3, :3], u[3:5, 3:5], u[5:, 5:] = haar_unitary(3, rng), haar_unitary(2, rng), 1.0
            ops.append(v @ u @ v.conj().T / np.sqrt(3))
        kf = KrausFamily.from_operators(ops)
        a = v @ np.diag([3.0, 3.0, 3.0, 2.0, 2.0, 1.0]) @ v.conj().T
        assert not np.array_equal(a, a.conj().T)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert theorem_verify(kf, BlockAlgebra.full(6), a, CFG).verdict
        # the cached ||x_t|| of the off-diagonal bound, the off-diagonal
        # blocks by rank, commutators
        assert svds == [(3, 6, 6), (6, 1, 1, 5), (6, 1, 2, 4), (6, 1, 3, 3), (3, 6, 6)]

    def test_hermiticity_checked_on_input_only(self, monkeypatch):
        # the deviation test runs once per not exactly Hermitian input, and
        # a deviation far below its bound is decided from Frobenius norms,
        # with no SVD; herm_eig, psd_min_eig, the internal ">= 0" tests
        # (I - row sum, a, Phi(a) - a) and the corollary's a^2 run none
        import sys

        from cpfix.matcore import ToleranceConfig as Tolerances

        svds, tests, depth = [0], [0], [0]
        real_svd, real_within = np.linalg.svd, Tolerances.norm_within

        def counting_svd(a, *args, **kwargs):
            if depth[0] > 0:
                svds[0] += int(np.prod(np.shape(a)[:-2]))
            return real_svd(a, *args, **kwargs)

        def counting_within(*args, **kwargs):
            tests[0] += depth[0] > 0
            return real_within(*args, **kwargs)

        def counting_hermitize(*args, **kwargs):
            depth[0] += 1
            try:
                return hermitize(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(Tolerances, "norm_within", counting_within)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("cpfix") and getattr(mod, "hermitize", None) is hermitize:
                monkeypatch.setattr(mod, "hermitize", counting_hermitize)
        kf = random_bistochastic(6, 3, 0)
        normalization_report(kf, CFG).flags()
        assert (tests, svds) == ([0], [0])
        skew = np.triu(np.full((6, 6), 1e-14j), 1)
        a = 2.0 * np.eye(6) + skew + skew.T
        assert not np.array_equal(a, a.conj().T)
        assert theorem_verify(kf, BlockAlgebra.full(6), a, CFG).verdict
        assert (tests, svds) == ([1], [0])
        assert corollary_verify(kf, BlockAlgebra.full(6), a, CFG).verdict
        assert (tests, svds) == ([2], [0])

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

    @pytest.mark.parametrize("d, groups", [(16, 1), (256, 13)])
    def test_off_diagonal_stage_memory_bounded(self, monkeypatch, d, groups):
        # three diagonal sign unitaries over sqrt3 and a = diag(1, ..., d): d
        # rank-one projections, whose 2n blocks 1 x (d - 1) are gathered from
        # W_t = V* x_t V in groups of GROUP_BYTES with no transposed copy of
        # W (all of them at once, with W's transpose, take 17 MiB at d =
        # 256); the traced peak includes forming W.  One group changes no
        # norm: a stacked opnorm equals the single one bit for bit
        import tracemalloc

        signs = [[(-1.0) ** (k >> t & 1) for k in range(d)] for t in range(3)]
        kf = KrausFamily.from_operators([np.diag(s) / np.sqrt(3) for s in signs])
        dec = herm_eig(np.diag(np.arange(1.0, d + 1)), CFG)
        calls = []
        monkeypatch.setattr(verify, "opnorm", lambda a: calls.append(len(a)) or opnorm(a))
        tracemalloc.start()
        try:
            frame = verify._eigenframe(kf, dec)
            grouped = verify._off_diagonal_residuals(frame, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == groups and set(calls) == {6}
        assert peak < 8 * 2**20
        monkeypatch.setattr(verify, "GROUP_BYTES", 1 << 40)
        assert np.array_equal(verify._off_diagonal_residuals(frame, d), grouped)


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
        # one report, Phi(a) and Phi(a^2) shared with the main pipeline, whose
        # conclusion stages run in the eigenframe of a^2: Phi(a) and Phi(a^2)
        # are the only matrices through apply_map
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
        assert calls == {"apply_map": 2, "normalization_report": 1, "map calls": 2}


def _assert_close(got, want, scale=1.0):
    """An eigenframe residual against its apply_map form: within 1e-13 max(1, scale)."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, scale))


def _unit(h):
    """The least power of two >= max(1, ||h||), at most 2^1023, by which the stages divide."""
    return 2.0 ** min(math.ceil(math.log2(max(1.0, herm_eig(h, CFG).norm))), 1023)


def _power_oracle(kf, a, n_max):
    """||Phi(g^n) - g^n|| for n = 1..n_max, one map application per power.

    g = h / unit with unit = ``_unit(h)``: the stage reports the residual
    of h^n relative to unit^n.  At n = 1 it is the fixedness residual
    ||Phi(h) - h||, over unit.
    """
    h = hermitize(a, CFG)
    unit = _unit(h)
    g = h / unit
    out, power = [opnorm(apply_map(kf, h) - h) / unit], g @ g
    for _ in range(1, n_max):
        out.append(opnorm(apply_map(kf, power) - power))
        power = power @ g
    return out


class TestPowerFixedCheck:
    """The theorem's powers stage, against a loop of single map applications, to within 1e-13."""

    def _powers(self, kf, a, n_max):
        report = theorem_verify(kf, BlockAlgebra.full(kf.dim), a, CFG, powers=n_max)
        assert report.verdict
        return report.residuals("powers")

    def test_matches_theorem_powers_stage(self):
        kf = random_bistochastic(4, 3, 7)
        a = 2.5 * np.eye(4, dtype=complex)
        _assert_close(self._powers(kf, a, 6), _power_oracle(kf, a, 6))

    def test_identity_channel(self, identity_channel):
        rng = np.random.default_rng(54)
        h = random_hermitian(2, rng)
        a = h @ h
        residuals = self._powers(identity_channel, a, 5)
        _assert_close(residuals, _power_oracle(identity_channel, a, 5))
        assert max(residuals) <= 1e-10

    def test_mixture(self, mixture):
        a = 2 * np.eye(2, dtype=complex) + SIGMA_X
        residuals = self._powers(mixture, a, 5)
        _assert_close(residuals, _power_oracle(mixture, a, 5))
        assert max(residuals) <= 1e-10

    def test_lueders(self, lueders):
        a = np.diag([1.0, 3.0]).astype(complex)
        residuals = self._powers(lueders, a, 5)
        _assert_close(residuals, _power_oracle(lueders, a, 5))
        assert max(residuals) <= 1e-12

    def test_unit_norm_residuals_are_absolute(self, mixture):
        # unit = 1, so each residual is ||Phi(h^n) - h^n|| itself
        a = (np.eye(2) + SIGMA_X) / 2.5
        h = hermitize(a, CFG)
        powers = [np.linalg.matrix_power(h, n) for n in range(1, 6)]
        _assert_close(self._powers(mixture, a, 5), [opnorm(apply_map(mixture, p) - p) for p in powers])

    @pytest.mark.parametrize("command", [theorem_verify, corollary_verify])
    def test_no_overflow_at_any_scale(self, lueders, command):
        # (c a)^8 overflows from c = 1e39, corollary's (c a)^16 from c = 1e19
        # and its f_eps(c^2 a^2) from c = 1e77; relative to powers of unit,
        # none does
        a = np.diag([2.0, 1.0]).astype(complex)
        for c in (1.0, 1e20, 1e40, 1e100):
            with np.errstate(all="raise"):
                report = command(lueders, BlockAlgebra.full(2), c * a, CFG)
            assert report.verdict
            assert report.residuals("powers") == [0.0] * 8

    def test_norm_above_the_largest_power_of_two(self, identity_channel):
        # ||a|| = 1.2e308 > 2^1023, so unit stops at 2^1023
        with np.errstate(all="raise"):
            report = theorem_verify(identity_channel, BlockAlgebra.full(2), 6e307 * np.ones((2, 2)), CFG)
        assert report.verdict


class TestScaledStages:
    """f_eps and the powers, measured on h / unit, are the absolute stages times 2^-k."""

    N = 6

    def _absolute(self, kf, h):
        """(residual, bound) of the f_eps and power stages, in the same eigenframe without rescaling."""
        dec = herm_eig(h, CFG)
        frame = verify._eigenframe(kf, dec)
        half = 0.5 / max(1.0, dec.norm)
        f = np.stack([EpsFunction(eps)(dec.eigenvalues) for eps in (half, -half)])
        residuals = verify._image_residuals(frame, np.repeat(f, dec.multiplicities, axis=1))
        norms = np.abs(f).max(axis=1)
        f_eps = [(r, frame.bound(CFG.eq_bound(n, CONCLUSION_SLACK), n)) for r, n in zip(residuals, norms)]
        values = np.cumprod(np.tile(dec.spectrum, (self.N, 1)), axis=0)[1:]
        residuals = verify._image_residuals(frame, values)
        powers = [(opnorm(herm_part(apply_map(kf, h) - h), hermitian=True), CFG.eq_bound(dec.norm))]
        for n, r, norm in zip(range(2, self.N + 1), residuals, np.abs(values).max(axis=1)):
            powers.append((r, frame.bound(CFG.eq_bound(dec.norm**n), norm)))
        return f_eps, powers

    @pytest.mark.parametrize(
        "family, a",
        [
            ("bistochastic", 2.9 * np.eye(4)),
            ("mixture", 2.3 * np.eye(2) + 0.6 * SIGMA_X),
            ("mixture", 0.7 * np.eye(2) + 0.2 * SIGMA_X),
        ],
    )
    def test_scaled_by_a_power_of_two(self, mixture, family, a):
        kf = random_bistochastic(4, 3, 7) if family == "bistochastic" else mixture
        h = hermitize(a.astype(complex), CFG)
        report = theorem_verify(kf, BlockAlgebra.full(kf.dim), a, CFG, powers=self.N)
        assert report.verdict
        unit = _unit(h)
        f_eps, powers = self._absolute(kf, h)
        got = [c for c in report.checks if c.name == "fEps"]
        assert [(c.value * unit**2, c.bound * unit**2) for c in got] == f_eps
        got = [c for c in report.checks if c.name == "powers"]
        assert [(c.value * unit**n, c.bound * unit**n) for n, c in enumerate(got, 1)] == powers
        assert any(r > 0.0 for r, _ in f_eps + powers)


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

    def test_peel_holds_one_projection_at_a_time(self):
        # three diagonal sign unitaries over sqrt3 and a = diag(1, ..., d):
        # 128 rank-one peel steps, whose projections stacked at once take
        # 32 MiB at d = 128; one at a time, the traced peak stays below half
        import tracemalloc

        d = 128
        signs = [[(-1.0) ** (k >> t & 1) for k in range(d)] for t in range(3)]
        kf = KrausFamily.from_operators([np.diag(s) / np.sqrt(3) for s in signs])
        a = np.diag(np.arange(1.0, d + 1))
        tracemalloc.start()
        try:
            trace = spectral_peel(kf, a, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.verdict and len(trace.steps) == d
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("d", [16, 128])
    def test_one_map_call_whatever_the_steps(self, d, monkeypatch):
        # Phi(a) for the superFixed hypothesis is the one matrix through
        # apply_map: the d projections and remainders of the peel go through
        # the map in a's eigenframe
        import sys

        calls = []

        def counting(kf, b):
            calls.append(np.shape(b))
            return apply_map(kf, b)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("cpfix") and getattr(mod, "apply_map", None) is apply_map:
                monkeypatch.setattr(mod, "apply_map", counting)
        signs = [[(-1.0) ** (k >> t & 1) for k in range(d)] for t in range(3)]
        kf = KrausFamily.from_operators([np.diag(s) / np.sqrt(3) for s in signs])
        trace = spectral_peel(kf, np.diag(np.arange(1.0, d + 1)), CFG)
        assert trace.verdict and len(trace.steps) == d
        assert calls == [(d, d)]

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
            assert len(trace.steps) == len(projections(dec))
            xs = np.stack(kf.operators)
            for step, lam, p in zip(trace.steps, dec.eigenvalues, projections(dec)):
                assert step.eigenvalue == lam
                comm = max(opnorm(commutator(xs, p)))
                assert abs(step.commutator_residual - comm) <= 1e-13
                assert abs(step.fixedness_residual - opnorm(apply_map(kf, p) - p)) <= 1e-13
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


def _dense_off_diagonal(kf, projections):
    """max_t max(||p x_t q||, ||q x_t p||), q = 1 - p, with d x d products for each projection."""
    eye = np.eye(kf.dim)
    return [max(max(opnorm(p @ x @ (eye - p)), opnorm((eye - p) @ x @ p)) for x in kf.operators) for p in projections]


def _clustered_instance(sizes, seed, projective):
    """A family of blocks of ``sizes`` in a Haar frame, and a = (+)_i c_i 1 + 1e-9 H there.

    ``projective`` gives the block projections (self-adjoint and unital, for
    the peel); otherwise x_t = u sqrt(w_t), u a block unitary and w_t >= 0
    diagonal with sum_t w_t = 1, so sum x_t* x_t = sum x_t x_t* = 1 while
    each x_t is far from normal and ||p x_t q|| != ||q x_t p||.  The perturbation
    keeps every hypothesis and moves each spectral projection by about
    1e-9, so the off-diagonal residuals are well above rounding.
    """
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    v = haar_unitary(d, rng)
    bounds = np.cumsum((0, *sizes))
    if projective:
        ops = [np.diag(((bounds[i] <= np.arange(d)) & (np.arange(d) < bounds[i + 1])).astype(complex)) for i in range(len(sizes))]
    else:
        u = np.zeros((d, d), dtype=complex)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            u[lo:hi, lo:hi] = haar_unitary(hi - lo, rng)
        ops = [u * np.sqrt(w) for w in rng.dirichlet(np.ones(3), size=d).T]
    kf = KrausFamily.from_operators([v @ x @ v.conj().T for x in ops])
    a = v @ np.diag(np.repeat(1.0 + np.arange(len(sizes)), sizes)) @ v.conj().T
    h = random_hermitian(d, rng)
    return kf, a + 1e-9 * h / opnorm(h)


def _theorem_oracle(kf, a, powers):
    """The f_eps, power, projection and off-diagonal residuals of the theorem, from d x d matrices through apply_map."""
    h = hermitize(a, CFG)
    dec = herm_eig(h, CFG)
    unit = _unit(h)
    half = 0.5 / max(1.0, dec.norm)
    fas = [dec.apply(lambda t, f=EpsFunction(e * unit): f(t / unit)) for e in (half, -half)]
    return {
        "fEps": [opnorm(apply_map(kf, m) - m) for m in fas],
        "powers": _power_oracle(kf, a, powers),
        "projections": [opnorm(apply_map(kf, p) - p) for p in projections(dec)],
        "offDiagonal": _dense_off_diagonal(kf, projections(dec)),
    }


def _peel_oracle(kf, a):
    """Per peel step: ||Phi(p) - p||, the dense off-diagonal residual, and min eig of Phi(rest) - rest."""
    h = hermitize(a, CFG)
    dec = herm_eig(h, CFG)
    rest, out = h, []
    for lam, p in zip(dec.eigenvalues, projections(dec)):
        rest = rest - lam * p
        low = psd_min_eig(herm_part(apply_map(kf, rest) - rest), CFG)
        out.append((opnorm(apply_map(kf, p) - p), _dense_off_diagonal(kf, [p])[0], low))
    return out


def _rotated_diagonal(d, seed, selfadjoint):
    """Three Haar-rotated diagonal unitaries over sqrt3 (signs when ``selfadjoint``), and a = V diag(1..d) V*."""
    rng = np.random.default_rng(seed)
    v = haar_unitary(d, rng)
    if selfadjoint:
        diagonals = [[(-1.0) ** (k >> t & 1) for k in range(d)] for t in range(3)]
    else:
        diagonals = [np.exp(2j * np.pi * rng.uniform(size=d)) for _ in range(3)]
    kf = KrausFamily.from_operators([v @ np.diag(x) @ v.conj().T / np.sqrt(3) for x in diagonals])
    return kf, v @ np.diag(np.arange(1.0, d + 1)) @ v.conj().T


def _schur_weyl(selfadjoint):
    """k = 4 qubits: a positive element of the commutant, with the degenerate spectrum of Schur-Weyl duality.

    Of U^(x)4 (su2_tensor_family) the commutant is (+)_j 1_{2j+1} (x) M_{m_j},
    spectral multiplicities 5, 3, 3, 3, 1, 1; of the adjacent swaps
    (transposition_family, self-adjoint) it is (+)_j M_{2j+1} (x) 1_{m_j},
    multiplicities 1 (five times), 3, 3, 3 and 2.
    """
    kf = transposition_family(4) if selfadjoint else su2_tensor_family(4)
    return kf, _commutant_positive_element(kf, np.random.default_rng(8))


def _lueders(a):
    return KrausFamily.from_operators([E11, E22]), np.diag(a).astype(complex)


def _low_rank(sizes, values, seed):
    """A rotated block family and a = V diag(values repeated by sizes) V*, of rank < d when a value is 0."""
    kf, _ = _clustered_instance(sizes, seed, projective=True)
    v = haar_unitary(sum(sizes), np.random.default_rng(seed))
    return kf, v @ np.diag(np.repeat(values, sizes)) @ v.conj().T


_DIFFERENTIAL = {
    "d=1": lambda sa: (KrausFamily.from_operators([np.ones((1, 1))]), np.array([[3.0]])),
    "d=2": lambda sa: (
        KrausFamily.from_operators([np.eye(2) / np.sqrt(2), SIGMA_X / np.sqrt(2)]),
        2.0 * np.eye(2) + SIGMA_X,
    ),
    "d=16": lambda sa: _clustered_instance((6, 5, 5), 1, projective=sa),
    "d=64": lambda sa: _rotated_diagonal(64, 2, sa),
    "Schur-Weyl": _schur_weyl,
    "rank<d": lambda sa: _low_rank((2, 3, 1), [0.0, 1.0, 2.5], 3),
    "Lueders 2e40": lambda sa: _lueders([2e40, 1e40]),
    "Lueders 1.7e308": lambda sa: _lueders([1.7e308, 1.0]),
}


class TestEigenframeStage:
    """Every eigenframe residual against its d x d apply_map form, within 1e-13 max(1, scale).

    The off-diagonal residuals are compared on clustered instances first.
    """

    CLUSTERS = {"1, d-1": (1, 5), "d/2, d/2": (3, 3), "three of rank 2": (2, 2, 2), "ranks 1, 1, 2, 2": (1, 2, 1, 2)}

    @pytest.mark.parametrize("sizes", CLUSTERS.values(), ids=CLUSTERS.keys())
    @pytest.mark.parametrize("seed", range(3))
    def test_theorem(self, sizes, seed):
        kf, a = _clustered_instance(sizes, seed, projective=False)
        report = theorem_verify(kf, BlockAlgebra.full(kf.dim), a, CFG)
        assert all(report.hypotheses.values())
        dec = herm_eig(hermitize(a, CFG), CFG)
        assert list(dec.multiplicities) == list(sizes[::-1])
        dense = _dense_off_diagonal(kf, projections(dec))
        assert min(dense) > 1e-11
        tol = 1e-13 * max(opnorm(x) for x in kf.operators)
        np.testing.assert_allclose(report.residuals("offDiagonal"), dense, rtol=0, atol=tol)

    @pytest.mark.parametrize("sizes", CLUSTERS.values(), ids=CLUSTERS.keys())
    @pytest.mark.parametrize("seed", range(3))
    def test_peel(self, sizes, seed):
        kf, a = _clustered_instance(sizes, seed, projective=True)
        trace = spectral_peel(kf, a, CFG)
        dec = herm_eig(hermitize(a, CFG), CFG)
        assert list(dec.multiplicities) == list(sizes[::-1]) and len(trace.steps) == len(sizes)
        dense = _dense_off_diagonal(kf, projections(dec))
        assert min(dense) > 1e-11
        tol = 1e-13 * max(opnorm(x) for x in kf.operators)
        np.testing.assert_allclose([s.commutator_residual for s in trace.steps], dense, rtol=0, atol=tol)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 7.5, 1e6])
    def test_one_cluster_has_no_off_diagonal_block(self, c):
        # a = c 1 has one spectral projection, p = 1: its residual is exactly 0
        kf = random_bistochastic(5, 3, 0)
        a = c * np.eye(5)
        report = theorem_verify(kf, BlockAlgebra.full(5), a, CFG)
        assert report.residuals("offDiagonal") == [0.0]
        assert _dense_off_diagonal(kf, projections(herm_eig(a, CFG)))[0] <= 1e-13
        selfadjoint = random_selfadjoint_family(5, 2, 0)
        assert [s.commutator_residual for s in spectral_peel(selfadjoint, a, CFG).steps] == [0.0]

    @pytest.mark.parametrize("powers", [1, 8])
    @pytest.mark.parametrize("name", _DIFFERENTIAL)
    def test_theorem_residuals(self, name, powers):
        kf, a = _DIFFERENTIAL[name](False)
        report = theorem_verify(kf, BlockAlgebra.full(kf.dim), a, CFG, powers=powers)
        # d = 16 is perturbed off its fixed point, so residuals are far above
        # rounding there; its powers fail, the other stages pass
        assert all(report.hypotheses.values()) and report.verdict == (name != "d=16" or powers == 1)
        oracle = _theorem_oracle(kf, a, powers)
        norm = herm_eig(hermitize(a, CFG), CFG).norm
        scales = {
            "fEps": 1.0,
            # relative to unit^n, at most (||a|| / unit)^n <= 2^n
            "powers": max(1.0, (norm / _unit(hermitize(a, CFG))) ** powers),
            "projections": 1.0,
            "offDiagonal": float(kf.operator_norms.max()),
        }
        for stage, scale in scales.items():
            assert len(report.residuals(stage)) == len(oracle[stage])
            _assert_close(report.residuals(stage), oracle[stage], scale)

    @pytest.mark.parametrize("name", _DIFFERENTIAL)
    def test_peel_steps(self, name):
        kf, a = _DIFFERENTIAL[name](True)
        if not normalization_report(kf, CFG).self_adjoint_family:
            kf = KrausFamily.from_operators([herm_part(x) for x in kf.operators])
        trace = spectral_peel(kf, a, CFG)
        assert all(c.passed for _, c in trace.checks if c.name == "superFixed")
        oracle = _peel_oracle(kf, a)[: len(trace.steps)]
        lows = [c.value for _, c in trace.checks if c.name == "superFixed"]
        assert len(lows) == len(oracle) == len(trace.steps)
        norm = herm_eig(hermitize(a, CFG), CFG).norm
        _assert_close([s.fixedness_residual for s in trace.steps], [o[0] for o in oracle])
        _assert_close([s.commutator_residual for s in trace.steps], [o[1] for o in oracle], float(kf.operator_norms.max()))
        _assert_close(lows, [o[2] for o in oracle], norm)

    def test_cases_reach_their_shapes(self):
        # degenerate clusters of mixed ranks, a zero cluster the peel stops
        # before, and a drift-free frame only where a is diagonal
        for selfadjoint, want in [(False, [1, 1, 3, 3, 3, 5]), (True, [1, 1, 1, 1, 1, 2, 3, 3, 3])]:
            kf, a = _schur_weyl(selfadjoint)
            assert sorted(herm_eig(hermitize(a, CFG), CFG).multiplicities) == want
        kf, a = _DIFFERENTIAL["rank<d"](True)
        dec = herm_eig(hermitize(a, CFG), CFG)
        assert list(dec.multiplicities) == [1, 3, 2] and abs(dec.eigenvalues[-1]) < 1e-12
        assert len(spectral_peel(kf, a, CFG).steps) == 2
        kf, a = _DIFFERENTIAL["d=64"](False)
        dec = herm_eig(hermitize(a, CFG), CFG)
        assert len(dec.eigenvalues) == 64 and 0.0 < verify._eigenframe(kf, dec).drift < 1e-12
        kf, a = _DIFFERENTIAL["Lueders 1.7e308"](True)
        assert verify._eigenframe(kf, herm_eig(a, CFG)).drift == 0.0


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
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.operators, b.operators)

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


def _numpy_random_uses(tree: ast.Module):
    """(function, node) for each np.random outside an annotation, by enclosing top-level function."""
    annotations = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.update(map(id, ast.walk(node.annotation)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.update(map(id, ast.walk(node.returns)))
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            is_attr = isinstance(node, ast.Attribute) and node.attr == "random"
            if is_attr and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                if id(node) not in annotations:
                    yield name, node


class TestNoRandomnessInSource:
    """Random instances are test fixtures: src/ draws only in the explorer and at the structure path's fixed seed."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "cpfix"
    ALLOWED = {
        ("verify.py", "_random_complex"),
        ("verify.py", "hypothesis_explorer"),
        ("algebra.py", "_certified"),
    }

    def test_numpy_random_only_where_allowed(self):
        uses = []
        for path in sorted(self.SRC.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    assert not any(a.name.startswith("numpy.random") for a in node.names), path.name
                if isinstance(node, ast.ImportFrom) and node.module is not None:
                    assert not node.module.startswith("numpy.random"), path.name
                    assert node.module != "numpy" or "random" not in {a.name for a in node.names}, path.name
            uses += [(path.name, name, node) for name, node in _numpy_random_uses(tree)]
        assert {(f, name) for f, name, _ in uses} <= self.ALLOWED
        # the structure path's every draw comes from one generator at the fixed seed
        algebra = ast.parse((self.SRC / "algebra.py").read_text())
        (certified,) = [n for n in algebra.body if getattr(n, "name", None) == "_certified"]
        seeded = [
            node
            for node in ast.walk(certified)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.random.default_rng"
        ]
        assert [ast.unparse(node) for node in seeded] == ["np.random.default_rng(_STRUCTURE_SEED)"]
        assert sum(f == "algebra.py" for f, _, _ in uses) == 1
        (seed,) = [
            n for n in algebra.body if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "_STRUCTURE_SEED"
        ]
        assert isinstance(seed.value, ast.Constant) and isinstance(seed.value.value, int)


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
        # violations carry arrays, which dict equality cannot compare: compare the written reports
        a = hypothesis_explorer(cfg, CFG).to_dict()
        b = hypothesis_explorer(cfg, CFG).to_dict()
        assert io.canonical_dumps(a) == io.canonical_dumps(b)

    def test_report_schema(self):
        d = hypothesis_explorer(TrialConfig(dim=2, trials=2, seed=0, mode="unital-only"), CFG).to_dict()
        assert set(d) == {
            "verdict",
            "config",
            "violationCount",
            "violations",
            "maxCommutatorResidual",
        }

    def test_violations_carry_arrays_written_as_their_lists(self, monkeypatch):
        # random families are primitive, so a violation is planted: diag(0.5i, 1.5i) commutes with no draw
        real = verify.fixed_space_basis
        planted = np.diag([0.5j, 1.5j])
        monkeypatch.setattr(verify, "fixed_space_basis", lambda kf: replace(real(kf), basis=[planted]))
        report = hypothesis_explorer(TrialConfig(dim=2, trials=2, seed=3, mode="unital-only"), CFG).to_dict()
        assert report["violationCount"] == 2
        for v in report["violations"]:
            assert v["fixedElement"] is planted
            assert all(isinstance(t["matrix"], np.ndarray) for t in v["family"]["terms"])
        lists = json.dumps(report, sort_keys=True, indent=2, default=io.matrix_to_obj) + "\n"
        assert io.canonical_dumps(report) == lists

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
