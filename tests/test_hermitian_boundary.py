"""The Hermitian boundary: only outside input is checked before symmetrizing.

Values that are Hermitian by construction, such as Phi(a) - a or a peeled
remainder, carry an anti-Hermitian rounding part of order eps * ||a||.
Checking them against ``eq_tol`` would reject large but valid operators,
so the pipelines symmetrize them with ``herm_part`` instead.
"""

import numpy as np
import pytest

from cpfix.algebra import BlockAlgebra
from cpfix.matcore import (
    HermiticityError,
    ToleranceConfig,
    herm_part,
    hermitize,
    opnorm,
    psd_min_eig,
)
from cpfix.verify import (
    PreconditionError,
    corollary_verify,
    spectral_peel,
    theorem_verify,
)

from conftest import random_bistochastic, random_complex, random_selfadjoint_family

SCALE = 1e9
SEEDS = range(5)
STRICT = ToleranceConfig(eq_tol=1e-12)
# 1e-10 away from self-adjoint, with norm about 1
NEAR_HERMITIAN = np.array([[1.0, 1e-10], [0.0, 2.0]], dtype=complex)


def _run(pipeline, *args):
    # verdicts at this scale are not pinned here; a failed precondition is
    # an outcome, only a HermiticityError would be the boundary's fault
    try:
        pipeline(*args)
    except PreconditionError:
        pass


@pytest.mark.parametrize("seed", SEEDS)
def test_theorem_verify_large_identity(seed):
    kf = random_bistochastic(6, 3, seed)
    _run(theorem_verify, kf, BlockAlgebra.full(6), SCALE * np.eye(6))


@pytest.mark.parametrize("seed", SEEDS)
def test_corollary_verify_large_identity(seed):
    kf = random_bistochastic(6, 3, seed)
    _run(corollary_verify, kf, BlockAlgebra.full(6), SCALE * np.eye(6))


@pytest.mark.parametrize("seed", SEEDS)
def test_spectral_peel_large_staircase(seed):
    kf = random_selfadjoint_family(6, 3, seed)
    a = SCALE * sum((k + 1) * p for k, p in enumerate(kf.operators))
    _run(spectral_peel, kf, a)


class TestHermitize:
    def test_small_deviation_passes_default(self):
        h = hermitize(NEAR_HERMITIAN)
        assert opnorm(h - h.conj().T) == 0.0

    def test_small_deviation_rejected_under_strict_eq_tol(self):
        with pytest.raises(HermiticityError):
            hermitize(NEAR_HERMITIAN, STRICT)

    def test_exactly_hermitian_input_costs_no_norm(self, monkeypatch):
        # herm_part output passes hermitize without the deviation test; a
        # deviation far from its bound is decided from Frobenius norms, and
        # only a rejection measures its two spectral norms (deviation and
        # scale, one singular-value call) for its message
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(int(np.prod(np.shape(a)[:-2])))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        h = herm_part(random_complex(5, np.random.default_rng(1)))
        np.testing.assert_array_equal(hermitize(h, STRICT), h)
        assert calls == []
        hermitize(NEAR_HERMITIAN)
        assert calls == []
        with pytest.raises(HermiticityError, match="by 1.000e-10"):
            hermitize(NEAR_HERMITIAN, STRICT)
        assert calls == [2]

    def test_psd_min_eig_checks_against_cfg(self):
        assert psd_min_eig(NEAR_HERMITIAN) == pytest.approx(1.0)
        with pytest.raises(HermiticityError):
            psd_min_eig(NEAR_HERMITIAN, STRICT)


def test_herm_part_is_exactly_hermitian():
    rng = np.random.default_rng(0)
    for d in (1, 3, 6):
        m = random_complex(d, rng)
        h = herm_part(m)
        np.testing.assert_array_equal(h, h.conj().T)
        np.testing.assert_array_equal(herm_part(h), h)


def test_herm_part_halves_before_adding():
    # (m + m*)/2 overflowed to inf and then NaN above half the largest double
    m = np.array([[1.7e308, 1.7e308], [1.7e308j, 1.0]])
    h = herm_part(m)
    np.testing.assert_array_equal(h, [[1.7e308, 8.5e307 - 8.5e307j], [8.5e307 + 8.5e307j, 1.0]])
    np.testing.assert_array_equal(herm_part(np.diag([1.7e308, 1.0])), np.diag([1.7e308, 1.0]))
