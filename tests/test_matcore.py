import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from cpfix.algebra import BlockAlgebra
from cpfix.channel import KrausFamily
from cpfix.jensen import EpsFunction, jensen_residual
from cpfix.matcore import (
    AMBIGUITY,
    NULL_TOL,
    Check,
    DomainError,
    HermiticityError,
    PreconditionError,
    ToleranceConfig,
    eigen_clusters,
    herm_eig,
    herm_part,
    hermitize,
    mat_func,
    nullspace_basis,
    opnorm,
    psd_min_eig,
    vec,
)
from cpfix.verify import theorem_verify

from conftest import SIGMA_X, haar_unitary, projections, random_complex, random_hermitian, same_bits

CFG = ToleranceConfig()


class TestCheck:
    def test_upper_and_lower_bounds(self):
        upper = Check("r", 2.0, 3.0, "r too large")
        lower = Check("gap", 2.0, 3.0, "gap too small", lower=True)
        assert upper.passed and upper.margin == 1.0
        assert not lower.passed and lower.margin == -1.0
        assert Check("r", 3.0, 3.0).passed and Check("gap", 3.0, 3.0, lower=True).passed

    @pytest.mark.parametrize("lower", [False, True])
    def test_nan_residual_fails(self, lower):
        assert not Check("r", float("nan"), 1.0, lower=lower).passed

    def test_require_passes_silently(self):
        assert Check("r", 1.0, 1.0, "never shown").require() is None
        assert Check("gap", 0.0, -1.0, "never shown", lower=True).require() is None

    @pytest.mark.parametrize("check", [
        Check("r", 2.0, 1.0, "r is 2.000e+00"),
        Check("gap", -2.0, -1.0, "r is 2.000e+00", lower=True),
        Check("r", float("nan"), 1.0, "r is 2.000e+00"),
    ])
    def test_require_raises_failure_text(self, check):
        with pytest.raises(PreconditionError, match=r"^r is 2\.000e\+00$"):
            check.require()


class TestToleranceBounds:
    """Defaults eq_tol = 1e-9 and psd_tol = 1e-8."""

    @pytest.mark.parametrize("scale, factor", [(0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (250.0, 250.0)])
    def test_bounds_are_relative_to_max_one_scale(self, scale, factor):
        assert CFG.eq_bound(scale) == 1e-9 * factor
        assert CFG.psd_bound(scale) == -1e-8 * factor

    def test_defaults_are_the_absolute_tolerances(self):
        assert CFG.eq_bound() == 1e-9
        assert CFG.psd_bound() == -1e-8

    @pytest.mark.parametrize("slack", [10.0, 100.0])
    def test_eq_slack_multiplies(self, slack):
        assert CFG.eq_bound(scale=4.0, slack=slack) == slack * 1e-9 * 4.0
        assert CFG.eq_bound(slack=slack) == slack * 1e-9

    def test_psd_check_fills_measured_value(self):
        c = CFG.psd_check("aPositive", np.diag([3.0, -2.0]), "min eig {:.3e}")
        assert (c.name, c.value, c.bound, c.lower) == ("aPositive", -2.0, -1e-8, True)
        assert not c.passed and c.failure == "min eig -2.000e+00"
        with pytest.raises(PreconditionError, match="min eig -2.000e"):
            c.require()

    def test_psd_check_passes_within_psd_tol(self):
        c = CFG.psd_check("aPositive", np.diag([1.0, -5e-9]))
        assert c.passed and c.failure == ""


@pytest.mark.parametrize("field", ["eq_tol", "psd_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
def test_tolerances_finite_positive(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and strictly positive"):
        ToleranceConfig(**{field: value})


class TestOpnormStack:
    """A stack's norms are bit for bit the per-matrix spectral norms."""

    @pytest.mark.parametrize(
        "shape, complex_",
        [((4, 5, 5), True), ((3, 4, 4), False), ((2, 3, 6), True), ((2, 6, 3), False), ((1, 1, 1), True)],
    )
    def test_equals_per_matrix_norms(self, shape, complex_):
        rng = np.random.default_rng(sum(shape))
        stack = rng.standard_normal(shape)
        if complex_:
            stack = stack + 1j * rng.standard_normal(shape)
        norms = opnorm(stack)
        assert isinstance(norms, np.ndarray) and norms.shape == shape[:1]
        assert np.array_equal(norms, [np.linalg.norm(m, 2) for m in stack])

    def test_nested_stack_keeps_leading_shape(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
        expected = [[np.linalg.norm(m, 2) for m in row] for row in stack]
        assert np.array_equal(opnorm(stack), expected)

    @pytest.mark.parametrize("shape", [(0, 4, 4), (3, 0, 5), (2, 5, 0)])
    def test_empty_stacks(self, shape):
        norms = opnorm(np.zeros(shape, dtype=complex))
        assert norms.shape == shape[:1] and np.array_equal(norms, np.zeros(shape[:1]))

    def test_matrix_gives_python_float(self):
        m = random_complex(4, np.random.default_rng(6))
        assert type(opnorm(m)) is float and opnorm(m) == np.linalg.norm(m, 2)
        assert type(opnorm(np.zeros((0, 3)))) is float and opnorm(np.zeros((0, 3))) == 0.0


def _outcome(f):
    """``f()``, or the name of the LinAlgError it raises."""
    try:
        return f()
    except np.linalg.LinAlgError:
        return "LinAlgError"


def _spectral_rule(cfg, dev, scale, slack):
    """opnorm(dev) <= cfg.eq_bound(opnorm(scale), slack), pair by pair, from two SVD calls."""
    devs, scales = opnorm(dev), opnorm(scale)
    if np.ndim(dev) == 2:
        return devs <= cfg.eq_bound(scales, slack)
    rule = [d <= cfg.eq_bound(s, slack) for d, s in zip(devs.ravel().tolist(), scales.ravel().tolist())]
    return np.reshape(np.array(rule, dtype=bool), devs.shape)


def _with_norms(stack, norms):
    """Each matrix of ``stack`` rescaled to the spectral norm ``norms`` (empty ones stay)."""
    if stack.size == 0:
        return stack
    return stack * (np.asarray(norms) / opnorm(stack))[..., None, None]


class TestNormWithin:
    """The Frobenius-first rule decides exactly as the spectral-norm rule."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        shape=strategies.tuples(strategies.integers(0, 3), strategies.integers(0, 5), strategies.integers(0, 5)),
        stacked=strategies.booleans(),
        rank_one=strategies.booleans(),
        seed=strategies.integers(0, 2**16),
        slack=strategies.sampled_from([1.0, 10.0, 100.0]),
        scale_norm=strategies.one_of(
            strategies.sampled_from([1e-3, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1e3]), strategies.floats(1e-3, 1e3)
        ),
        factor=strategies.one_of(
            strategies.sampled_from([1.0 - 1e-6, 1.0 + 1e-6]),
            strategies.floats(1e-3, 1e3).filter(lambda f: abs(f - 1.0) > 1e-6),
        ),
    )
    def test_is_the_spectral_rule(self, shape, stacked, rank_one, seed, slack, scale_norm, factor):
        k, m, n = shape
        rng = np.random.default_rng(seed)
        scale = _with_norms(rng.standard_normal((k, m, n)) + 1j * rng.standard_normal((k, m, n)), scale_norm)
        dev = rng.standard_normal((k, m, n)) + 1j * rng.standard_normal((k, m, n))
        if rank_one:
            dev = dev[..., :1] * dev[..., :1, :]
        bounds = [CFG.eq_bound(s, slack) for s in opnorm(scale).tolist()]
        dev = _with_norms(dev, factor * np.array(bounds))
        if not stacked and k:
            dev, scale = dev[0], scale[0]
        expected = _spectral_rule(CFG, dev, scale, slack)
        got = CFG.norm_within(dev, scale, slack)
        if dev.ndim == 2:
            assert type(got) is bool and got == expected
        else:
            assert got.shape == (k,) and np.array_equal(got, expected)
        if m and n:
            assert np.all(expected == (factor < 1.0))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        seed=strategies.integers(0, 2**16),
        value=strategies.sampled_from([np.nan, np.inf, -np.inf, 1e200, 1e-200, complex(np.inf, 1.0)]),
        in_dev=strategies.booleans(),
        k=strategies.integers(1, 3),
        stacked=strategies.booleans(),
        size=strategies.sampled_from([1e-12, 1e-3, 1e3]),
    )
    def test_non_finite_entries_match_the_spectral_rule(self, seed, value, in_dev, k, stacked, size):
        rng = np.random.default_rng(seed)
        scale = rng.standard_normal((k, 3, 3)) + 0j
        dev = size * rng.standard_normal((k, 3, 3)) + 0j
        target = dev if in_dev else scale
        target[rng.integers(k), rng.integers(3), rng.integers(3)] = value
        if not stacked:
            dev, scale = dev[0], scale[0]
        expected = _outcome(lambda: _spectral_rule(CFG, dev, scale, 1.0))
        got = _outcome(lambda: CFG.norm_within(dev, scale))
        assert type(got) is type(expected) and np.array_equal(got, expected)

    def test_svd_only_for_pairs_near_the_bound(self, monkeypatch):
        # ||dev|| at 1e-3, 1 - 1e-6 and 1e3 times its bound, for full-rank
        # 4 x 4 pairs: only the middle one is within sqrt(4) of its bound
        svds = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svds.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        rng = np.random.default_rng(2)
        scale = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        bounds = [CFG.eq_bound(s) for s in opnorm(scale).tolist()]
        dev = _with_norms(np.stack([np.eye(4)] * 3), np.array([1e-3, 1.0 - 1e-6, 1e3]) * bounds)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert CFG.norm_within(dev, scale).tolist() == [True, True, False]
        assert svds == [(1, 2, 4, 4)]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1)])
    def test_rounding_at_the_bound(self, shape):
        # a vector's Frobenius and spectral norms agree up to rounding, so
        # only the margin sends it to the SVD: a sweep over the last units
        # of the bound must still match the SVD's decision
        rng = np.random.default_rng(sum(shape))
        for scale_norm in (0.5, 3.0):
            scale = _with_norms(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), scale_norm)
            bound = CFG.eq_bound(opnorm(scale))
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            devs = _with_norms(np.stack([v] * 17), bound * (1.0 + np.arange(-8, 9) * 2.0**-52))
            assert np.array_equal(CFG.norm_within(devs, np.stack([scale] * 17)),
                                  _spectral_rule(CFG, devs, np.stack([scale] * 17), 1.0))

    def test_overflowing_frobenius_norm_goes_to_the_svd(self):
        # ||dev||_F^2 overflows to inf while ||dev|| = 2e160 is finite
        loose = ToleranceConfig(eq_tol=1e10)
        dev = np.full((2, 2), 1e160, dtype=complex)
        assert loose.norm_within(dev, 1e153 * np.eye(2))
        assert not loose.norm_within(dev, 1e149 * np.eye(2))

    def test_underflowing_frobenius_norm_goes_to_the_svd(self):
        # t^2 is subnormal, so the computed ||dev||_F is off by about 1e-4
        # relative, far beyond the relative margin; the absolute floor sends
        # these pairs to the SVD, which decides them exactly
        tiny = ToleranceConfig(eq_tol=1e-160)
        for t in np.linspace(0.999e-160, 1.001e-160, 41):
            dev = np.array([[t]], dtype=complex)
            assert tiny.norm_within(dev, np.eye(1)) == (t <= tiny.eq_bound(1.0))


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
        np.testing.assert_allclose(projections(dec)[0], np.diag([1.0, 0.0]))
        np.testing.assert_allclose(projections(dec)[1], np.diag([0.0, 1.0]))

    def test_sigma_x(self):
        dec = herm_eig(SIGMA_X, CFG)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0])
        eye = np.eye(2)
        np.testing.assert_allclose(projections(dec)[0], (eye + SIGMA_X) / 2, atol=1e-14)
        np.testing.assert_allclose(projections(dec)[1], (eye - SIGMA_X) / 2, atol=1e-14)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(5, rng)
        dec = herm_eig(a, CFG)
        assert opnorm(dec.apply(float) - a) <= 1e-10

    def test_invariants_random(self):
        # reconstruction, idempotency, mutual orthogonality, resolution of identity
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            a = random_hermitian(d, rng, scale=float(rng.uniform(0.1, 10)))
            dec = herm_eig(a, CFG)
            scale = max(1.0, opnorm(a))
            assert opnorm(dec.apply(float) - a) <= 1e-10 * scale
            total = np.zeros((d, d), dtype=complex)
            for i, p in enumerate(projections(dec)):
                assert opnorm(p @ p - p) <= 1e-10
                total += p
                for q in projections(dec)[i + 1 :]:
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

    def test_clustering_chains_neighbour_gaps(self):
        # each neighbour gap 0.6e-8 is below the cut 1e-8; the ends are 1.2e-8 apart
        dec = herm_eig(np.diag([0.0, 0.6e-8, 1.2e-8, 1.0]), CFG)
        assert dec.multiplicities.tolist() == [1, 3]
        assert dec.eigenvalues.tolist() == [1.0, pytest.approx(0.6e-8, rel=1e-12)]


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


def _cluster_loop(a):
    """(eigenvalues, projection list) of a, one d x d projection per cluster, formed as
    ``herm_eig`` formed them when it stored that list."""
    w, v = np.linalg.eigh(hermitize(a, CFG))
    w, v = w[::-1], v[:, ::-1]
    bounds = np.append(eigen_clusters(-w)[0], w.size)
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    eigenvalues = np.array([float(np.mean(w[s])) for s in spans])
    return eigenvalues, [herm_part(v[:, s] @ v[:, s].conj().T) for s in spans]


def _cluster_loop_apply(eigenvalues, projections, f, domain=None):
    """The per-cluster sum f(lambda_n) p_n, with its domain check inside the loop."""
    out = np.zeros_like(projections[0])
    for lam, p in zip(eigenvalues, projections):
        if domain is not None and not (domain[0] < lam < domain[1]):
            raise DomainError(f"eigenvalue {lam} outside open domain ({domain[0]}, {domain[1]})")
        out += float(f(lam)) * p
    return herm_part(out)


def _clustered_hermitian(rng):
    """A Haar-rotated spectrum of 1..9 values with forced repeats, split below the cluster cut half the time."""
    d = int(rng.integers(1, 10))
    n = int(rng.integers(1, d + 1))
    values = rng.uniform(-3.0, 3.0, size=n) * 10.0 ** float(rng.integers(-3, 4))
    spectrum = values[np.concatenate([np.arange(n), rng.integers(0, n, size=d - n)])]
    if rng.random() < 0.5:
        spectrum = spectrum + rng.uniform(-1e-12, 1e-12, size=d) * max(1.0, np.abs(spectrum).max())
    u = haar_unitary(d, rng)
    return herm_part((u * spectrum) @ u.conj().T)


class TestApplyAgainstClusterLoop:
    """``apply`` is one product V f(Lambda) V*; the per-cluster sum is its oracle."""

    def _cases(self):
        rng = np.random.default_rng(27)
        return [_clustered_hermitian(rng) for _ in range(200)]

    def test_forced_degeneracies_are_clustered(self):
        cases = self._cases()
        assert {a.shape[0] for a in cases} == set(range(1, 10))
        assert sum(herm_eig(a, CFG).multiplicities.max() > 1 for a in cases) >= 100

    def test_projections_bit_for_bit(self):
        # V_n V_n*, from the frame columns and multiplicities, is the loop's p_n
        for a in self._cases():
            dec = herm_eig(a, CFG)
            eigenvalues, loop_projections = _cluster_loop(a)
            assert same_bits(dec.eigenvalues, eigenvalues)
            assert same_bits(projections(dec), np.stack(loop_projections))

    def test_functions_agree(self):
        for a in self._cases():
            dec = herm_eig(a, CFG)
            eigenvalues, projections = _cluster_loop(a)
            eps = 0.5 / max(1.0, dec.norm) * (1 if eigenvalues[0] > 0 else -1)
            for f in (lambda t: t, lambda t: t * t, lambda t: np.sqrt(max(t, 0.0)), EpsFunction(eps)):
                want = _cluster_loop_apply(eigenvalues, projections, f)
                got = dec.apply(f)
                scale = max(1.0, max(abs(float(f(lam))) for lam in eigenvalues))
                assert opnorm(got - want) <= 1e-13 * scale
                assert np.array_equal(got, got.conj().T)

    def test_domain_error_names_the_same_eigenvalue(self):
        raised = 0
        for a in self._cases():
            dec = herm_eig(a, CFG)
            eigenvalues, projections = _cluster_loop(a)
            for domain in ((0.0, np.inf), (-np.inf, 0.0), (-1.0, 1.0)):
                try:
                    want = _cluster_loop_apply(eigenvalues, projections, float, domain)
                except DomainError as exc:
                    raised += 1
                    with pytest.raises(DomainError) as got:
                        dec.apply(float, domain)
                    assert str(got.value) == str(exc)
                else:
                    assert opnorm(dec.apply(float, domain) - want) <= 1e-13 * max(1.0, dec.norm)
        assert raised >= 200


def _diagonal_unitary_family(d, rng):
    """Three diagonal unitaries over sqrt(3): unital, and every diagonal a is fixed."""
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(3, d))
    return KrausFamily.from_operators([np.diag(np.exp(1j * p)) / np.sqrt(3.0) for p in phases])


class TestSpectralWorkingSet:
    """A decomposition holds a's eigenframe and forms no d x d array per cluster.

    Each a below has d distinct eigenvalues, so a list of its projections
    alone would take 16 d^3 bytes, 32 MiB at d = 128.
    """

    D = 128

    def _peak(self, fn) -> int:
        """Traced peak of fn(), after one warm-up call, in bytes."""
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_herm_eig(self):
        a = random_hermitian(self.D, np.random.default_rng(0))
        assert self._peak(lambda: herm_eig(a, CFG)) < 8 * 16 * self.D**2

    def test_theorem_verify(self):
        kf = _diagonal_unitary_family(self.D, np.random.default_rng(1))
        a = np.diag(np.arange(1.0, self.D + 1)).astype(complex)
        report = theorem_verify(kf, BlockAlgebra.full(self.D), a, CFG)
        assert report.verdict and len(report.residuals("projections")) == self.D
        assert self._peak(lambda: theorem_verify(kf, BlockAlgebra.full(self.D), a, CFG)) < 16 * 2**20

    def test_jensen_residual(self):
        rng = np.random.default_rng(2)
        kf = _diagonal_unitary_family(self.D, rng)
        a = random_hermitian(self.D, rng)
        f = EpsFunction(0.5 / opnorm(a))
        assert jensen_residual(kf, f, a, CFG).verdict
        assert self._peak(lambda: jensen_residual(kf, f, a, CFG)) < 8 * 2**20


class TestPsdMinEig:
    def test_identity(self):
        assert psd_min_eig(np.eye(3)) == pytest.approx(1.0)

    def test_slightly_negative(self):
        assert psd_min_eig(np.diag([1.0, -0.001])) == pytest.approx(-0.001)

    def test_projection(self):
        assert psd_min_eig((np.eye(2) + SIGMA_X) / 2) == pytest.approx(0.0, abs=1e-14)


class TestNullspace:
    def test_empty_system_is_full_space(self):
        res = nullspace_basis(np.zeros((0, 4)), 2)
        assert res.dimension == 4
        assert not res.rank_warning

    def test_commutant_of_identity(self):
        eye = np.eye(2)
        system = np.kron(eye, eye) - np.kron(eye, eye)
        res = nullspace_basis(system, 2)
        assert res.dimension == 4

    def test_commutant_of_sigma_x(self):
        # brute-force oracle: [a, sigma_x] = 0 forces span{I, sigma_x}
        eye = np.eye(2)
        system = np.kron(eye, SIGMA_X) - np.kron(SIGMA_X.T, eye)
        res = nullspace_basis(system, 2)
        assert res.dimension == 2
        for target in (np.eye(2, dtype=complex), SIGMA_X):
            proj = sum(
                np.vdot(vec(b), vec(target)) * b for b in res.basis
            )
            assert opnorm(proj - target) <= 1e-10

    def test_identity_superoperator_kernel(self):
        res = nullspace_basis(np.eye(9) - np.eye(9), 3)
        assert res.dimension == 9

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(13)
        x = random_hermitian(3, rng)
        eye = np.eye(3)
        system = np.kron(eye, x) - np.kron(x.T, eye)
        res = nullspace_basis(system, 3)
        for i, b in enumerate(res.basis):
            assert abs(np.vdot(vec(b), vec(b)) - 1.0) <= 1e-10
            for c in res.basis[i + 1 :]:
                assert abs(np.vdot(vec(b), vec(c))) <= 1e-10

    def test_kernel_membership_residual(self):
        rng = np.random.default_rng(14)
        x = random_hermitian(4, rng)
        eye = np.eye(4)
        system = np.kron(eye, x) - np.kron(x.T, eye)
        res = nullspace_basis(system, 4)
        smax = res.singular_values[0]
        for b in res.basis:
            assert np.linalg.norm(system @ vec(b)) <= NULL_TOL * smax

    @pytest.mark.parametrize("blocks", [1, 2], ids=["square", "tall"])
    def test_real_system_stays_real(self, monkeypatch, blocks):
        # a float64 SVD, with the dimension and singular values of the complex128 cast
        dtypes = []
        real_svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            dtypes.append(a.dtype)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        x = random_hermitian(4, np.random.default_rng(15)).real
        eye = np.eye(4)
        system = np.vstack([np.kron(eye, y) - np.kron(y.T, eye) for y in (x, x @ x)[:blocks]])
        res = nullspace_basis(system, 4)
        cast = nullspace_basis(system.astype(np.complex128), 4)
        assert dtypes == [np.float64, np.complex128]
        assert res.dimension == cast.dimension == 4
        assert all(b.dtype == np.float64 for b in res.basis)
        s, t = res.singular_values, cast.singular_values
        assert np.max(np.abs(s - t)) <= 1e-12 * t[0]

    def test_tall_system_matches_full_svd_oracle(self):
        rng = np.random.default_rng(41)
        warnings = {kind: set() for kind in SYSTEM_KINDS}
        for k in range(300):
            kind = SYSTEM_KINDS[k % len(SYSTEM_KINDS)]
            d, n = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            system = _commutant_system(kind, d, n, rng)
            s, warning, kernel = _full_svd_oracle(system)
            res = nullspace_basis(system, d)
            assert res.dimension == len(kernel)
            assert res.rank_warning == warning
            assert np.max(np.abs(res.singular_values - s)) <= 1e-12 * s[0]
            got = np.array([vec(b) for b in res.basis])
            # distance between the orthogonal projectors onto the two kernels
            dist = opnorm(got.T @ got.conj() - kernel.T @ kernel.conj())
            assert dist <= 1e-12
            warnings[kind].add(warning)
        # the leak straddles the rank threshold, so both warnings occur there
        assert warnings["leak"] == {False, True}


SYSTEM_KINDS = ("gaussian", "block", "leak")


def _commutant_system(kind, d, n, rng):
    """Stacked [I kron x_t - x_t^T kron I] for n operators: n*d^2 rows, d^2 columns.

    ``block`` operators are V(direct sum of Haar blocks)V*, with a kernel of
    dimension the number of blocks; ``leak`` adds a 1e-12...1e-8 perturbation.
    """
    eye = np.eye(d)
    cuts = rng.choice(np.arange(1, d), size=int(rng.integers(0, min(3, d - 1) + 1)), replace=False)
    bounds = np.concatenate([[0], np.sort(cuts), [d]])
    v = haar_unitary(d, rng)
    rows = []
    for _ in range(n):
        if kind == "gaussian":
            x = random_complex(d, rng)
        else:
            x = np.zeros((d, d), dtype=complex)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                x[lo:hi, lo:hi] = haar_unitary(int(hi - lo), rng)
            x = v @ x @ v.conj().T
            if kind == "leak":
                x = x + 10.0 ** rng.uniform(-12, -8) * random_complex(d, rng)
        rows.append(np.kron(eye, x) - np.kron(x.T, eye))
    return np.vstack(rows)


def _full_svd_oracle(system):
    """Singular values, rank warning and kernel rows from the full SVD of ``system``."""
    _, s, vh = np.linalg.svd(system)
    threshold = NULL_TOL * max(s[0], 1e-300)
    rank = int(np.sum(s > threshold))
    warning = bool(np.any((s > threshold / AMBIGUITY) & (s < threshold * AMBIGUITY)))
    return s, warning, vh[rank:].conj()


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_array_equal(vec(a).reshape((3, 3), order="F"), a)
    # column stacking: first d entries are the first column
    np.testing.assert_array_equal(vec(a)[:3], a[:, 0])


def test_matrix_units_orthonormal():
    # an empty system leaves the full space, as the units e_ij in
    # column-stacked order
    units = nullspace_basis(np.zeros((0, 9)), 3).basis
    assert len(units) == 9
    for k, u in enumerate(units):
        np.testing.assert_array_equal(vec(u), np.eye(9)[k])
    gram = np.array([[np.vdot(vec(u), vec(v)) for v in units] for u in units])
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-15)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eq_tol=0.0)
