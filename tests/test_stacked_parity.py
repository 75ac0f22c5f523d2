"""Stacked norms and map images change no reported digit.

Every report is computed twice, from a freshly built family each time (a
family caches its norms): once as shipped, and once with ``opnorm`` and
``apply_map`` replaced everywhere by per-matrix reference loops, the
``np.linalg.norm(m, 2)`` (or, for a Hermitian norm, the largest |eigenvalue|
of ``np.linalg.eigvalsh(m)``) and single-matrix map calls the pipelines made
one at a time.  The canonical JSON of the two runs must be equal.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import cpfix.channel as channel_mod
import cpfix.matcore as matcore_mod
from cpfix.algebra import BlockAlgebra
from cpfix.channel import KrausFamily
from cpfix.jensen import EpsFunction, jensen_residual
from cpfix.matcore import ToleranceConfig
from cpfix.verify import (
    corollary_verify,
    spectral_peel,
    theorem_verify,
)

from conftest import haar_unitary, random_bistochastic, random_hermitian, random_selfadjoint_family

CFG = ToleranceConfig()
STACKED = {"opnorm": matcore_mod.opnorm, "apply_map": channel_mod.apply_map}


def _reference_opnorm(a, hermitian=False):
    a = np.asarray(a)
    if a.ndim == 2:
        if a.size == 0:
            return 0.0
        # the norm of a Hermitian matrix as its largest |eigenvalue|
        return float(np.max(np.abs(np.linalg.eigvalsh(a)))) if hermitian else float(np.linalg.norm(a, 2))
    norms = [_reference_opnorm(m, hermitian) for m in a.reshape(-1, *a.shape[-2:])]
    return np.array(norms).reshape(a.shape[:-2])


def _reference_apply_map(kf, a):
    a = np.asarray(a)
    if a.ndim == 2:
        return STACKED["apply_map"](kf, a)
    return np.stack([STACKED["apply_map"](kf, m) for m in a])


def _per_matrix(monkeypatch):
    references = {"opnorm": _reference_opnorm, "apply_map": _reference_apply_map}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("cpfix"):
            continue
        for name, real in STACKED.items():
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, references[name])


def _json(report):
    obj = report.to_dict() if hasattr(report, "to_dict") else dataclasses.asdict(report)
    return json.dumps(obj, sort_keys=True, indent=2)


def _block_family(blocks, rng, rotate):
    """x_t = V(+)_i u_{t,i} V*/sqrt(3) and a = V (+)_i c_i I V*, fixed by the map."""
    d = sum(blocks)
    v = haar_unitary(d, rng) if rotate else np.eye(d)
    ops = []
    for _ in range(3):
        u = np.zeros((d, d), dtype=complex)
        start = 0
        for b in blocks:
            u[start : start + b, start : start + b] = haar_unitary(b, rng)
            start += b
        ops.append(v @ u @ v.conj().T / np.sqrt(3))
    c = np.repeat(np.arange(1.0, len(blocks) + 1.0), blocks)
    return ops, v @ np.diag(c) @ v.conj().T


def _case(name):
    """A function computing the report, with its family made afresh on every call."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "verify failing":
        # every hypothesis holds, but a 3e-9 perturbation across a 5e-8
        # spectral gap fails fixedness, the powers and the projections
        ops, _ = _block_family((2, 2), rng, rotate=False)
        z = random_hermitian(4, rng)
        a = np.diag([1.0, 1.0, 1 + 5e-8, 1 + 5e-8]) + 3e-9 * z / np.linalg.norm(z, 2)
        return lambda: theorem_verify(KrausFamily.from_operators(ops), BlockAlgebra.full(4), a, CFG)
    if name in ("verify full", "corollary full", "verify perturbed"):
        ops, a = _block_family((2, 3, 3), rng, rotate=True)
        if name == "verify perturbed":
            a = a + 1e-7 * random_hermitian(8, rng)
            return lambda: theorem_verify(KrausFamily.from_operators(ops), BlockAlgebra.full(8), a, CFG)
        pipeline = theorem_verify if name == "verify full" else corollary_verify
        return lambda: pipeline(KrausFamily.from_operators(ops), BlockAlgebra.full(8), a, CFG)
    if name in ("verify block", "corollary block"):
        ops, a = _block_family((2, 3, 3), rng, rotate=False)
        mu = [0.5, 1.0, 2.0]
        scaled = [x / np.sqrt(m) for x, m in zip(ops, mu)]
        alg = BlockAlgebra((2, 3, 3), (1.0, 2.5, 0.5))
        pipeline = theorem_verify if name == "verify block" else corollary_verify
        return lambda: pipeline(KrausFamily.from_operators(scaled, mu), alg, a, CFG)
    if name == "peel":
        ps = random_selfadjoint_family(8, 3, 4).operators
        a = sum((k + 1.5) * p for k, p in enumerate(ps))
        return lambda: spectral_peel(KrausFamily.from_operators(ps), a, CFG)
    assert name == "jensen"
    h = 2.0 * random_hermitian(8, rng)
    f = EpsFunction(0.25 / np.linalg.norm(h, 2))
    return lambda: jensen_residual(random_bistochastic(8, 3, 9), f, h, CFG)


CASES = [
    "verify full",
    "verify perturbed",
    "verify failing",
    "verify block",
    "corollary full",
    "corollary block",
    "peel",
    "jensen",
]


@pytest.mark.parametrize("name", CASES)
def test_report_equals_per_matrix_reference(name, monkeypatch):
    build = _case(name)
    stacked = _json(build())
    _per_matrix(monkeypatch)
    assert matcore_mod.opnorm is _reference_opnorm
    assert _json(build()) == stacked


def test_cases_reach_every_stage():
    # the parity above covers passing pipelines with several projections,
    # a failing hypothesis, failing conclusions, weighted blocks, and more
    # than one peel step
    full = _case("verify full")()
    assert full.verdict and len(full.residuals("projections")) == 3
    perturbed = _case("verify perturbed")()
    assert not perturbed.verdict and not perturbed.checks
    failing = _case("verify failing")()
    assert all(failing.hypotheses.values()) and not failing.verdict
    assert _case("corollary block")().verdict
    assert len(_case("peel")().steps) == 3
    assert _case("jensen")().verdict
