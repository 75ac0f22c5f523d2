import math
import sys
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies

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
import cpfix.channel as channel_mod
from cpfix.algebra import commutant_basis
from cpfix.matcore import ToleranceConfig, herm_part, nullspace_basis, opnorm, vec

from conftest import (
    E11,
    E12,
    E22,
    SIGMA_X,
    haar_unitary,
    random_bistochastic,
    random_complex,
    random_selfadjoint_family,
    random_unital_family,
    same_bits,
)

CFG = ToleranceConfig()


class TestKrausFamily:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            KrausFamily(dim=2, terms=((0.0, np.eye(2)),))

    @pytest.mark.parametrize("w", [float("inf"), float("nan")])
    def test_rejects_nonfinite_weight(self, w):
        with pytest.raises(ValueError, match="term 0: weight must be finite"):
            KrausFamily(dim=2, terms=((w, np.eye(2)),))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            KrausFamily(dim=2, terms=((1.0, np.eye(3)),))

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0, 3.0]])
    def test_one_weight_per_operator(self, weights):
        with pytest.raises(ValueError, match="zip"):
            KrausFamily.from_operators([np.eye(2), 2.0 * np.eye(2)], weights)

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


    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_stack_equals_per_slice(self, d):
        rng = np.random.default_rng(d)
        kf = KrausFamily.from_operators(
            [random_complex(d, rng) for _ in range(3)], weights=[0.5, 1.0, 2.0]
        )
        stack = np.stack([random_complex(d, rng) for _ in range(4)])
        for fn in (apply_map, dual_apply):
            assert np.array_equal(fn(kf, stack), np.stack([fn(kf, m) for m in stack]))

    def test_stack_validation(self, lueders):
        with pytest.raises(DimensionMismatchError):
            apply_map(lueders, np.zeros((2, 3, 3)))
        bad = np.zeros((2, 2, 2))
        bad[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            apply_map(lueders, bad)


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
            assert opnorm(dual_apply(kf, np.eye(d)) - kf.row_sum) <= 1e-10

    def test_trace_duality(self, mixture):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_complex(2, rng)
            b = random_complex(2, rng)
            lhs = np.trace(apply_map(mixture, a) @ b)
            rhs = np.trace(a @ dual_apply(mixture, b))
            assert abs(lhs - rhs) <= 1e-10


class TestCachedFamilyQuantities:
    def test_sums_are_the_term_by_term_sums(self):
        rng = np.random.default_rng(12)
        kf = KrausFamily.from_operators(
            [random_complex(4, rng) for _ in range(3)], weights=[0.5, 1.0, 2.0]
        )
        col = np.zeros((4, 4), dtype=complex)
        row = np.zeros((4, 4), dtype=complex)
        for s in kf.scaled_operators:
            col += s.conj().T @ s
            row += s @ s.conj().T
        assert np.array_equal(kf.column_sum, (col + col.conj().T) / 2.0)
        assert np.array_equal(kf.row_sum, (row + row.conj().T) / 2.0)
        assert np.array_equal(kf.operator_norms, [np.linalg.norm(x, 2) for x in kf.operators])

    def test_overflowing_sums_are_named(self):
        kf = KrausFamily.from_operators([np.diag([1e10, 2e10])], weights=[1e300])
        with pytest.raises(ValueError, match=r"^the column sum \(sum mu x\*x\) overflows"):
            kf.column_sum
        with pytest.raises(ValueError, match=r"^the row sum \(sum mu x x\*\) overflows"):
            kf.row_sum

    def test_report_reads_the_cache(self, monkeypatch):
        kf = KrausFamily.from_operators([np.eye(3) / np.sqrt(2), np.eye(3) / np.sqrt(2)])
        grams = []
        real_gram = KrausFamily._gram

        def counting_gram(self, product):
            grams.append(product)
            return real_gram(self, product)

        monkeypatch.setattr(KrausFamily, "_gram", counting_gram)
        normalization_report(kf, CFG)
        normalization_report(kf, CFG)
        # one column sum and one row sum, built once and then read from the cache
        assert len(grams) == 2


def _term_sum(terms) -> np.ndarray:
    """The per-term reference: matrices summed one by one into a zero buffer."""
    out = np.zeros_like(terms[0], dtype=np.complex128)
    for m in terms:
        out += m
    return out


class TestStacks:
    """The family's two stacks against per-term references built from its input lists."""

    @pytest.fixture
    def weighted(self):
        rng = np.random.default_rng(73)
        ops = [random_complex(4, rng) for _ in range(3)] + [np.zeros((4, 4))]
        ops[1].imag[0] = -0.0
        weights = [0.3, 2.0, 1e-5, 7.0]
        return weights, ops, KrausFamily.from_operators(ops, weights)

    def test_every_stacked_quantity_equals_the_per_term_reference(self, weighted):
        weights, ops, kf = weighted
        scaled = [np.sqrt(w) * np.asarray(x, dtype=complex) for w, x in zip(weights, ops)]
        a = random_complex(4, np.random.default_rng(74))
        stack = np.stack([a, a.conj().T])
        assert np.array_equal(kf.weights, weights) and np.array_equal(kf.operators, np.stack(ops))
        assert np.array_equal(kf.scaled_operators, np.stack(scaled))
        assert np.array_equal(kf.operator_norms, [np.linalg.norm(x, 2) for x in ops])
        assert np.array_equal(apply_map(kf, a), _term_sum([s.conj().T @ a @ s for s in scaled]))
        assert np.array_equal(apply_map(kf, stack), _term_sum([s.conj().T @ stack @ s for s in scaled]))
        assert np.array_equal(dual_apply(kf, a), _term_sum([s @ a @ s.conj().T for s in scaled]))
        col = _term_sum([s.conj().T @ s for s in scaled])
        row = _term_sum([s @ s.conj().T for s in scaled])
        assert np.array_equal(kf.column_sum, (col + col.conj().T) / 2.0)
        assert np.array_equal(kf.row_sum, (row + row.conj().T) / 2.0)
        want = _term_sum([np.kron(s.T, s.conj().T) for s in scaled])
        assert np.array_equal(superoperator_matrix(kf).matrix, want)

    def test_stacks_are_read_only(self, weighted):
        kf = weighted[2]
        names = ["weights", "operators", "scaled_operators", "operator_norms", "column_sum", "row_sum"]
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(kf, name)[0] = 1.0
        assert all(isinstance(v, np.ndarray) and not v.flags.writeable for v in vars(kf).values())
        with pytest.raises(FrozenInstanceError):
            kf.operators = np.zeros((1, 4, 4))

    def test_dim_is_the_stack_shape(self, weighted):
        kf = weighted[2]
        assert kf.dim == 4 and type(kf.dim) is int
        assert kf.weights.shape == (4,) and kf.operators.shape == (4, 4, 4)


class TestNormalizationReport:
    def test_lueders_all_true(self, lueders):
        rep = normalization_report(lueders, CFG)
        assert all(rep.flags().values())

    def test_subnormalized_identity(self):
        kf = KrausFamily.from_operators([np.eye(2, dtype=complex) / np.sqrt(2)])
        rep = normalization_report(kf, CFG)
        np.testing.assert_allclose(kf.column_sum, np.eye(2) / 2, atol=1e-14)
        assert not rep.is_unital

    def test_unital_but_not_subunital(self):
        # e = e12 e21 + e11 e11 = 2 e11, which exceeds the identity
        kf = KrausFamily.from_operators([E12, E11])
        rep = normalization_report(kf, CFG)
        assert rep.is_unital
        np.testing.assert_allclose(kf.row_sum, 2 * E11, atol=1e-14)
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
                assert opnorm(kf.row_sum - np.eye(d)) <= 10 * CFG.eq_tol


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

    @pytest.mark.parametrize("d", range(1, 9))
    def test_bit_identical_to_kron_sum(self, d):
        # same products in the same order: equal bits, signed zeros included
        rng = np.random.default_rng(90 + d)
        for n in range(1, 5):
            ops = [random_complex(d, rng) for _ in range(n)]
            for x in ops:
                x.real[rng.random((d, d)) < 0.3] = 0.0
                x.imag[rng.random((d, d)) < 0.3] = -0.0
                x.real[rng.random((d, d)) < 0.2] = -0.0
            kf = KrausFamily.from_operators(ops, rng.uniform(0.1, 2.0, size=n))
            want = np.zeros((d * d, d * d), dtype=np.complex128)
            for s in kf.scaled_operators:
                want += np.kron(s.T, s.conj().T)
            got = superoperator_matrix(kf).matrix
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


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
            assert check.passed
            assert check.value >= -1e-10

    def test_transpose_map_not_cp(self):
        check = choi_psd_check(Superoperator(dim=2, matrix=SWAP), CFG)
        assert not check.passed
        assert check.value == pytest.approx(-1.0)

    def test_tolerance_relative_to_choi_norm(self):
        # CP by construction at every scale; the Choi matrix grows as c^2
        kf = random_bistochastic(6, 3, 1)
        for c in (1.0, 1e2, 1e4, 1e5):
            scaled = KrausFamily.from_operators([c * x for x in kf.operators])
            assert choi_psd_check(superoperator_matrix(scaled), CFG).passed
        for c in (1.0, 1e4):
            assert not choi_psd_check(Superoperator(dim=2, matrix=c * SWAP), CFG).passed

    def test_identity_choi_rank_one(self, identity_channel):
        c = choi_matrix(superoperator_matrix(identity_channel))
        eigs = np.linalg.eigvalsh(c)
        assert eigs[-1] == pytest.approx(2.0)
        np.testing.assert_allclose(eigs[:-1], 0.0, atol=1e-12)


def _weighted_family(d: int, n: int, rng) -> KrausFamily:
    """n random complex operators with weights log-uniform in [1e-3, 1e3]."""
    ops = [random_complex(d, rng) for _ in range(n)]
    return KrausFamily.from_operators(ops, np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=n)))


def _gram_spectrum(kf: KrausFamily) -> np.ndarray:
    """Eigenvalues of the n x n Gram <s_s, s_t> of the scaled stack."""
    w = kf.scaled_operators.reshape(len(kf.weights), -1)
    return np.linalg.eigvalsh(herm_part(w @ w.conj().T))


class TestKrausChoiCheck:
    """The dense Choi oracle on a Kraus family: C = sum_t vec(s_t) vec(s_t)* is a Gram matrix."""

    def test_matches_dense_oracle(self):
        # C and the n x n Gram of the stack share their nonzero spectrum, so
        # the oracle passes every Kraus family, at any rank and weight spread
        rng = np.random.default_rng(41)
        for d in range(1, 7):
            for n in (1, 2, d * d, d * d + 2):
                kf = _weighted_family(d, n, rng)
                sop = superoperator_matrix(kf)
                eigs = np.linalg.eigvalsh(herm_part(choi_matrix(sop)))
                gram = _gram_spectrum(kf)
                choi_norm = np.abs(eigs).max()
                k = min(n, d * d)
                assert np.abs(eigs[-k:] - gram[-k:]).max() <= 1e-12 * choi_norm
                assert np.abs(eigs[:-k]).max(initial=0.0) <= 1e-12 * choi_norm
                assert np.abs(gram[:-k]).max(initial=0.0) <= 1e-12 * choi_norm
                check = choi_psd_check(sop, CFG)
                assert check.name == "choiMinEig" and check.passed
                assert check.value == eigs[0]
                assert check.bound == CFG.psd_bound(choi_norm)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        d=strategies.integers(1, 5),
        n=strategies.integers(1, 7),
        seed=strategies.integers(0, 2**32 - 1),
    )
    def test_kraus_rerepresentation_invariance(self, d, n, seed):
        # x'_s = sum_t u_st sqrt(mu_t) x_t, u Haar, is the same map with unit
        # weights: the same S and Gram spectrum, and the oracle passes both
        rng = np.random.default_rng(seed)
        kf = _weighted_family(d, n, rng)
        u = haar_unitary(n, rng)
        rerep = KrausFamily.from_operators(np.einsum("st,tij->sij", u, kf.scaled_operators))
        s_a, s_b = superoperator_matrix(kf), superoperator_matrix(rerep)
        assert opnorm(s_a.matrix - s_b.matrix) <= 1e-12 * opnorm(s_a.matrix)
        g_a, g_b = _gram_spectrum(kf), _gram_spectrum(rerep)
        assert np.abs(g_a - g_b).max() <= 1e-12 * g_a.max()
        a, b = choi_psd_check(s_a, CFG), choi_psd_check(s_b, CFG)
        assert a.passed and b.passed
        assert abs(a.value - b.value) <= 1e-12 * g_a.max()

    def test_near_overflow_stack_is_finite(self):
        # ||C|| = 3 (9e153)^2 overflows, but each entry of S is one product
        # 8.1e307, written without an overflowing intermediate
        kf = KrausFamily.from_operators([9e153 * np.eye(3)])
        sop = superoperator_matrix(kf)
        np.testing.assert_array_equal(sop.matrix, (9e153 * 9e153) * np.eye(9))
        assert np.isfinite(choi_matrix(sop)).all()

    def test_zero_family(self):
        check = choi_psd_check(superoperator_matrix(KrausFamily.from_operators([np.zeros((2, 2))])), CFG)
        assert (check.value, check.bound, check.passed) == (0.0, CFG.psd_bound(), True)


class TestFixedSpace:
    def test_identity_channel_full_space(self, identity_channel):
        assert fixed_space_basis(identity_channel).dimension == 4

    def test_lueders_diagonal(self, lueders):
        fs = fixed_space_basis(lueders)
        assert fs.dimension == 2
        for target in (E11, E22):
            proj = sum(np.vdot(vec(b), vec(target)) * b for b in fs.basis)
            assert opnorm(proj - target) <= 1e-10

    def test_mixture_span(self, mixture):
        fs = fixed_space_basis(mixture)
        assert fs.dimension == 2
        for target in (np.eye(2, dtype=complex), SIGMA_X):
            proj = sum(np.vdot(vec(b), vec(target)) * b for b in fs.basis)
            assert opnorm(proj - target) <= 1e-10

    def test_noise_level_map_keeps_full_space(self):
        # the one Kraus operator V V* is I up to rounding, so S - I and the
        # commutant system are all noise: both kernels are all of M_5
        v = haar_unitary(5, np.random.default_rng(0))
        x = v @ v.conj().T
        assert 0 < opnorm(x - np.eye(5)) < 1e-14
        assert fixed_space_basis(KrausFamily.from_operators([x])).dimension == 25
        assert commutant_basis([x]).dimension == 25

    def test_basis_is_hermitian_and_fixed(self, mixture):
        fs = fixed_space_basis(mixture)
        for b in fs.basis:
            assert opnorm(b - b.conj().T) <= 1e-12
            assert opnorm(apply_map(mixture, b) - b) <= CFG.eq_tol

    def test_commutant_inside_fixed_space(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            kf = random_unital_family(d, 2, rng)
            for b in commutant_basis(kf.operators).basis:
                assert opnorm(apply_map(kf, b) - b) <= 1e-9

    def test_one_real_rank_decision(self, monkeypatch):
        # one nullspace_basis call on a float64 system, and no other SVD
        import cpfix.channel as channel_mod

        systems, svds = [], []
        real_nullspace, real_svd = channel_mod.nullspace_basis, np.linalg.svd

        def recording_nullspace(system, *args, **kwargs):
            systems.append((system.dtype, system.shape))
            return real_nullspace(system, *args, **kwargs)

        def recording_svd(a, *args, **kwargs):
            svds.append(a.dtype)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(channel_mod, "nullspace_basis", recording_nullspace)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert fixed_space_basis(random_bistochastic(5, 3, 0)).dimension == 1
        assert systems == [(np.float64, (25, 25))]
        assert svds == [np.float64]

    def test_matches_complex_kernel_oracle(self):
        # the oracle is the complex kernel of S - I, with its own rank decision
        counts = dict.fromkeys(FAMILY_KINDS, 0)
        for kind, kf in _families(np.random.default_rng(71), 120):
            d = kf.dim
            oracle = nullspace_basis(superoperator_matrix(kf).matrix - np.eye(d * d), d)
            fs = fixed_space_basis(kf)
            assert fs.dimension == oracle.dimension
            assert fs.rank_warning == oracle.rank_warning
            s, t = fs.singular_values, oracle.singular_values
            assert np.max(np.abs(s - t)) <= 1e-12 * t[0]
            got = np.reshape([vec(b) for b in fs.basis], (-1, d * d))
            want = np.reshape([vec(b) for b in oracle.basis], (-1, d * d))
            # distance between the orthogonal projectors onto the two spans
            assert opnorm(got.T @ got.conj() - want.T @ want.conj()) <= 1e-10
            assert opnorm(got.conj() @ got.T - np.eye(fs.dimension)) <= 1e-12
            for b in fs.basis:
                assert np.array_equal(b, b.conj().T)
                assert opnorm(apply_map(kf, b) - b) <= CFG.eq_tol
            counts[kind] += 1
        assert min(counts.values()) >= 25


FAMILY_KINDS = ("bistochastic", "selfadjoint", "block", "nonunital")


def _families(rng, count):
    """(kind, family) pairs, d = 2..8 and 2 or 3 terms, cycling through FAMILY_KINDS.

    ``block`` is V(direct sum of Haar blocks)V*/sqrt(n), whose fixed space is
    one scalar per block; ``nonunital`` has sum x x* = I (trace preserving,
    so a fixed state exists) or sum x x* <= I with norm 1.
    """
    for k in range(count):
        kind = FAMILY_KINDS[k % len(FAMILY_KINDS)]
        d, n = int(rng.integers(2, 9)), int(rng.integers(2, 4))
        seed = int(rng.integers(0, 2**32))
        if kind == "bistochastic":
            kf = random_bistochastic(d, n, seed)
        elif kind == "selfadjoint":
            kf = random_selfadjoint_family(d, min(n, d), seed)
        elif kind == "block":
            cuts = np.sort(rng.choice(np.arange(1, d), size=min(2, d - 1), replace=False))
            v = haar_unitary(d, rng)
            ops = []
            for _ in range(n):
                x = np.zeros((d, d), dtype=complex)
                for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, d]):
                    x[lo:hi, lo:hi] = haar_unitary(int(hi - lo), rng)
                ops.append(v @ x @ v.conj().T / np.sqrt(n))
            kf = KrausFamily.from_operators(ops)
        else:
            ops = [random_complex(d, rng) for _ in range(n)]
            w, u = np.linalg.eigh(sum(x @ x.conj().T for x in ops))
            scale = (u * w**-0.5) @ u.conj().T if k % 8 == 3 else np.eye(d) / np.sqrt(w[-1])
            kf = KrausFamily.from_operators([scale @ x for x in ops])
        yield kind, kf


def _signed_zero_family(d, n, rng):
    """n random operators with +0.0 and -0.0 planted in both parts."""
    ops = [random_complex(d, rng) for _ in range(n)]
    for x in ops:
        x.real[rng.random((d, d)) < 0.3] = 0.0
        x.imag[rng.random((d, d)) < 0.3] = -0.0
        x.real[rng.random((d, d)) < 0.2] = -0.0
    return KrausFamily.from_operators(ops, rng.uniform(0.1, 2.0, size=n))


def _old_pair_rows(m, phase):
    """The pairing out of place, through one fancy-indexed copy of m: the in-place pass's reference."""
    d = math.isqrt(m.shape[0])
    g = m.reshape(d, d, -1)
    i, j = np.triu_indices(d, 1)
    upper, lower = g[j, i], g[i, j]
    out = g.copy()
    out[j, i] = (upper + lower) * math.sqrt(0.5)
    out[i, j] = phase * (lower - upper) * math.sqrt(0.5)
    return out.reshape(d * d, -1)


class TestDenseWorkingSet:
    """Each dense consumer of S rewrites one d^2 x d^2 buffer in place, to the same bits."""

    # at d = 24 a unit is 5.3 MB, so the fixed-size buffers of numpy's
    # iterator (128 KB each on numpy 1.24) and the blocks of BLOCK_BYTES
    # are a few hundredths of one
    D = 24

    def _peak(self, fn) -> float:
        """Traced peak of fn(), after one warm-up call, in units of 16 d^4 bytes."""
        fn()
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (16 * self.D**4)

    def test_traced_peaks(self):
        # S alone is 1, the certificate C and C* or eigvalsh's copy of C, the
        # fixed space S and its real copy.  Before Python 3.11 the caller's
        # frame keeps the temporary S alive through the call, so the
        # certificate holds S too
        kf = random_bistochastic(self.D, 3, 0)
        choi_bound = 2.2 if sys.version_info >= (3, 11) else 3.2
        assert self._peak(lambda: superoperator_matrix(kf)) <= 1.2
        assert self._peak(lambda: choi_psd_check(superoperator_matrix(kf), CFG)) <= choi_bound
        assert self._peak(lambda: fixed_space_basis(kf)) <= 1.6

    def test_choi_certificate_is_eigvalsh_of_herm_part(self):
        rng = np.random.default_rng(23)
        sops = [
            superoperator_matrix(_signed_zero_family(d, n, rng)) for d in range(1, 7) for n in (1, 3)
        ]
        sops += [Superoperator(dim=2, matrix=c * SWAP) for c in (1.0, 1e4)]
        for sop in sops:
            w = np.linalg.eigvalsh(herm_part(choi_matrix(sop)))
            check = choi_psd_check(sop, CFG)
            assert check.value == float(w[0])
            assert check.bound == CFG.psd_bound(float(np.abs(w).max()))

    @pytest.mark.parametrize("d", [1, 2])
    def test_held_superoperator_unmodified(self, d):
        # at d = 1 the reshuffle of S is S itself
        rng = np.random.default_rng(25 + d)
        sop = superoperator_matrix(_signed_zero_family(d, 2, rng))
        before = sop.matrix.copy()
        choi_psd_check(sop, CFG)
        assert same_bits(sop.matrix, before)
        assert not np.shares_memory(choi_matrix(sop), sop.matrix)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_fixed_space_is_the_out_of_place_formula(self, d):
        rng = np.random.default_rng(30 + d)
        families = [_signed_zero_family(d, n, rng) for n in (1, 2)]
        # a Lueders family {e_ii}, whose fixed space is the diagonal
        lueders = KrausFamily.from_operators(np.eye(d)[:, None, :] * np.eye(d)[:, :, None])
        families += [random_bistochastic(d, 2, d), lueders]
        for kf in families:
            a = superoperator_matrix(kf).matrix - np.eye(d * d)
            system = _old_pair_rows(_old_pair_rows(a.T, 1j).T, -1j).real
            want = nullspace_basis(system, d, scale=1.0)
            got = fixed_space_basis(kf)
            assert same_bits(got.singular_values, want.singular_values)
            assert got.rank_warning == want.rank_warning
            assert len(got.basis) == len(want.basis)
            for b, c in zip(got.basis, want.basis):
                assert same_bits(b, channel_mod._hermitian(c))
