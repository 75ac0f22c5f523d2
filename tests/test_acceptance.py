"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np

from cpfix.algebra import BlockAlgebra, commutant_basis
from cpfix.channel import (
    KrausFamily,
    apply_map,
    fixed_space_basis,
    normalization_report,
    superoperator_matrix,
)
from cpfix.cli import run
from cpfix.jensen import EpsFunction, jensen_residual, kadison_schwarz_residual
from cpfix.matcore import ToleranceConfig, commutator, opnorm, vec
from cpfix.verify import (
    spectral_peel,
    trace_chain_residual,
    trace_inequality_check,
)

from conftest import (
    E11,
    E22,
    random_bistochastic,
    random_complex,
    random_contractive_family,
    random_hermitian,
    random_selfadjoint_family,
    random_subunital_dual_family,
    random_unital_family,
)

CFG = ToleranceConfig()


def _verdict(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {detail}"


def _span_residual(target, basis):
    proj = sum(np.vdot(vec(b), vec(target)) * b for b in basis)
    return opnorm(proj - target)


def test_criterion_1_lueders_instance():
    start = time.perf_counter()
    lueders = KrausFamily.from_operators([E11, E22])
    fs = fixed_space_basis(lueders)
    cb = commutant_basis(lueders.operators)
    ok = fs.dimension == 2
    worst = 0.0
    for target in (E11, E22):
        worst = max(worst, _span_residual(target, fs.basis))
    for b in fs.basis:
        worst = max(worst, _span_residual(b, cb.basis))
    for b in cb.basis:
        worst = max(worst, _span_residual(b, fs.basis))
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-9 and elapsed < 1.0
    _verdict(1, ok, f"dim={fs.dimension} residual={worst:.2e} time={elapsed:.2f}s")


def _bistochastic_fixed_points(seed_base, families_per_dim, dims=(2, 3, 4)):
    """(family, positivized fixed-space element) pairs from random instances."""
    out = []
    for d in dims:
        for k in range(families_per_dim):
            n = 2 + (k % 2)
            kf = random_bistochastic(d, n, seed_base + 1000 * d + k)
            fs = fixed_space_basis(kf)
            for b in fs.basis:
                out.append((kf, b + opnorm(b) * np.eye(d)))
    return out


def test_criterion_2_theorem_soundness_sweep():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for kf, a in _bistochastic_fixed_points(seed_base=20_000, families_per_dim=100):
        bound = 1e-7 * max(1.0, opnorm(a))
        res = max(opnorm(commutator(a, x)) for x in kf.operators)
        worst = max(worst, res / bound)
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 60.0
    _verdict(2, ok, f"{count} fixed points, worst residual ratio {worst:.2e}, time={elapsed:.1f}s")


def test_criterion_3_jensen_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(30_000)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 6))
        kf = random_contractive_family(d, int(rng.integers(1, 4)), rng)
        a = random_hermitian(d, rng)
        eps = float(rng.uniform(-0.5, 0.5)) / opnorm(a)
        res = jensen_residual(kf, EpsFunction(eps), a, CFG)
        worst = min(worst, res.min_eig)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-8 and elapsed < 30.0
    _verdict(3, ok, f"min residual {worst:.2e}, time={elapsed:.1f}s")


def test_criterion_4_trace_inequality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(40_000)
    worst_gap = np.inf
    worst_chain = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 6))
        kf = random_subunital_dual_family(d, int(rng.integers(1, 4)), rng)
        h = random_hermitian(d, rng)
        a = h @ h.conj().T
        alg = BlockAlgebra.full(d)
        worst_gap = min(worst_gap, trace_inequality_check(kf, alg, a, CFG))
        worst_chain = max(worst_chain, trace_chain_residual(kf, alg, a, CFG))
    elapsed = time.perf_counter() - start
    ok = worst_gap >= -1e-8 and worst_chain <= 1e-9 and elapsed < 30.0
    _verdict(
        4, ok, f"min gap {worst_gap:.2e}, max chain {worst_chain:.2e}, time={elapsed:.1f}s"
    )


def test_criterion_5_kadison_schwarz_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(50_000)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 6))
        kf = random_unital_family(d, int(rng.integers(1, 4)), rng)
        res = kadison_schwarz_residual(kf, random_hermitian(d, rng), CFG)
        worst = min(worst, res.min_eig)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-8 and elapsed < 30.0
    _verdict(5, ok, f"min residual {worst:.2e}, time={elapsed:.1f}s")


def test_criterion_6_peel_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(60_000)
    worst_comm = 0.0
    worst_recon = 0.0
    all_true = True
    for k in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, d + 1))
        kf = random_selfadjoint_family(d, n, 60_000 + k)
        basis = commutant_basis(kf.operators).basis
        herm = []
        for b in basis:
            herm.append((b + b.conj().T) / 2.0)
            herm.append((b - b.conj().T) / 2.0j)
        raw = sum(float(c) * h for c, h in zip(rng.standard_normal(len(herm)), herm))
        a = raw + (opnorm(raw) + 0.1) * np.eye(d)
        trace = spectral_peel(kf, a, CFG)
        all_true = all_true and trace.verdict
        worst_recon = max(worst_recon, trace.reconstruction_residual)
        for step in trace.steps:
            worst_comm = max(worst_comm, step.commutator_residual)
    elapsed = time.perf_counter() - start
    ok = all_true and worst_recon <= 1e-9 and worst_comm <= 1e-7 and elapsed < 30.0
    _verdict(
        6,
        ok,
        f"recon {worst_recon:.2e}, comm {worst_comm:.2e}, time={elapsed:.1f}s",
    )


def test_criterion_7_superoperator_oracle():
    rng = np.random.default_rng(70_000)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        ops = [random_complex(d, rng) for _ in range(int(rng.integers(1, 4)))]
        kf = KrausFamily.from_operators(ops, rng.uniform(0.1, 2.0, size=len(ops)))
        s = superoperator_matrix(kf)
        a = random_complex(d, rng)
        worst = max(worst, float(np.linalg.norm(vec(apply_map(kf, a)) - s.matrix @ vec(a))))
    _verdict(7, worst <= 1e-10, f"max vectorization residual {worst:.2e}")


def test_criterion_8_finite_dimensional_rigidity():
    rng = np.random.default_rng(80_000)
    worst = 0.0
    fired = 0
    families = [
        random_bistochastic(int(rng.integers(2, 5)), int(rng.integers(2, 4)), 80_000 + k)
        for k in range(50)
    ] + [random_unital_family(int(rng.integers(2, 5)), 3, rng) for _ in range(50)]
    for kf in families:
        rep = normalization_report(kf, CFG)
        if rep.is_unital and rep.is_subunital_dual:
            fired += 1
            worst = max(worst, opnorm(kf.row_sum - np.eye(kf.dim)))
    # every bistochastic instance must trigger the trace-argument check
    ok = worst <= 1e-8 and fired >= 50
    _verdict(8, ok, f"checked {fired} instances, max ||e - I|| = {worst:.2e}")


def test_criterion_9_power_bootstrap():
    worst = 0.0
    for kf, a in _bistochastic_fixed_points(seed_base=90_000, families_per_dim=20):
        power = a.copy()
        norm_a = opnorm(a)
        for n in range(1, 9):
            bound = 1e-8 * max(1.0, norm_a**n)
            res = opnorm(apply_map(kf, power) - power)
            worst = max(worst, res / bound)
            power = power @ a
    _verdict(9, worst <= 1.0, f"worst power residual ratio {worst:.2e}")


def test_criterion_10_explorer_determinism(capsys):
    argv = [
        "explore",
        "--mode",
        "unital-only",
        "--trials",
        "50",
        "--seed",
        "7",
        "--json",
    ]
    code1 = run(argv)
    first = capsys.readouterr().out
    code2 = run(argv)
    second = capsys.readouterr().out
    report = json.loads(first)
    schema_ok = set(report) == {
        "verdict",
        "config",
        "violationCount",
        "violations",
        "maxCommutatorResidual",
    }
    ok = (
        first.encode() == second.encode()
        and code1 == code2
        and code1 in (0, 1)
        and schema_ok
    )
    with capsys.disabled():
        _verdict(10, ok, f"byte-identical={first == second}, schema_ok={schema_ok}")
