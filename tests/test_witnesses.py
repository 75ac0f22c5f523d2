"""Pinned instances: a necessity witness and a known wrong verdict.

The Markov witness shows that Sigma mu x x* <= 1 cannot be dropped: a unital
family whose fixed space is larger than its commutant.  The scale family
{1/sqrt2, sigma_x/sqrt2} with a = c diag(2, 1) is a case where ``verify``
answers wrongly at small c, because every ">= 0" decision compares against
the absolute ``psd_tol``; it is pinned as a strict xfail, so that it flips
when the tolerances become scale-covariant.
"""

import json

import numpy as np
import pytest

from cpfix import io
from cpfix.algebra import BlockAlgebra, structure_fixed_space
from cpfix.channel import KrausFamily, fixed_space_basis, normalization_report
from cpfix.cli import run
from cpfix.matcore import ToleranceConfig, commutator, opnorm
from cpfix.verify import theorem_verify

from conftest import SIGMA_X

CFG = ToleranceConfig()


def _unit(i, j, scale=1.0):
    e = np.zeros((3, 3), dtype=complex)
    e[i, j] = scale
    return e


# An absorbing Markov chain on {0, 1, 2} with the transient state 2
MARKOV = KrausFamily.from_operators(
    [_unit(0, 0), _unit(1, 1), _unit(0, 2, np.sqrt(0.5)), _unit(1, 2, np.sqrt(0.5))]
)
MARKOV_A = np.diag([1.0, 0.0, 0.5]).astype(complex)


class TestMarkovWitness:
    def test_flags(self):
        flags = normalization_report(MARKOV, CFG).flags()
        assert (flags["isUnital"], flags["isSubunitalDual"], flags["isTracePreserving"]) == (
            True,
            False,
            False,
        )

    def test_fixed_space_is_larger_than_the_commutant(self, tmp_path, capsys):
        assert structure_fixed_space(MARKOV, CFG) is None
        dense = fixed_space_basis(MARKOV)
        assert (dense.dimension, dense.rank_warning) == (2, False)
        path = tmp_path / "markov.json"
        io.write_channel(path, MARKOV)
        for command, dimension in (("fix", 2), ("commutant", 1)):
            assert run([command, str(path), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert (report["dimension"], report["rankWarning"]) == (dimension, False)

    def test_verify_fails_only_the_dropped_hypothesis(self, tmp_path, capsys):
        report = theorem_verify(MARKOV, BlockAlgebra.full(3), MARKOV_A, CFG)
        assert report.failures == ["hypothesis failed: subunitalDual"]
        assert opnorm(commutator(MARKOV_A, MARKOV.operators[2])) == pytest.approx(0.5 / np.sqrt(2))
        channel, a = tmp_path / "markov.json", tmp_path / "a.json"
        io.write_channel(channel, MARKOV)
        io.write_matrix(a, MARKOV_A)
        assert run(["check", str(channel)]) == 1
        assert run(["verify", str(channel), str(a)]) == 1
        capsys.readouterr()


SCALE_FAMILY = KrausFamily.from_operators([np.eye(2, dtype=complex) / np.sqrt(2), SIGMA_X / np.sqrt(2)])


@pytest.mark.parametrize(
    "c",
    [
        pytest.param(1e-12, marks=pytest.mark.xfail(strict=True, reason="psd_tol is absolute")),
        pytest.param(1e-9, marks=pytest.mark.xfail(strict=True, reason="psd_tol is absolute")),
        1e-3,
        1.0,
        1e9,
    ],
)
def test_scaled_non_fixed_point_is_rejected(c):
    # Phi(a) - a = c diag(-1/2, 1/2) is not >= 0 at any c > 0
    a = c * np.diag([2.0, 1.0]).astype(complex)
    assert not theorem_verify(SCALE_FAMILY, BlockAlgebra.full(2), a, CFG).verdict
