"""Benchmark instances for the cpfix CLI, each with an answer known by construction.

Every instance is built from the workload seed with numpy alone and written
in the documented wire format by this module, so the inputs do not change
when cpfix's own generators or writers do.  A workload is a fixed cycle of
commands; the closed loop replays the cycle until time runs out.

The cycles are weighted so that one instance shape is a clear majority of
each command's calls, which keeps every per-command median inside one
latency mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("theorem-mix", "dense-kernel", "explore-tiny")

# The command kinds each workload runs; set-up runs each kind once to warm up.
COMMANDS = {
    "theorem-mix": ("verify", "corollary", "peel", "jensen"),
    "dense-kernel": ("check", "fix", "commutant"),
    "explore-tiny": ("explore",),
}

N_TERMS = 3
THEOREM_DIM = 16
THEOREM_BLOCKS = (6, 5, 5)
DENSE_DIM = 20
DENSE_BLOCKS = (7, 7, 6)
DENSE_TENSOR = (5, 4)  # d = 5 * 4; the commutant is I_5 (x) M_4
EXPLORE_DIMS = (3, 4, 5)
EXPLORE_MODES = ("unital-only", "subunital-only")
EXPLORE_TRIALS = 40

ALL_FLAGS_TRUE_EXCEPT_SELF_ADJOINT = {
    "isUnital": True,
    "isSubunitalDual": True,
    "isTracePreserving": True,
    "selfAdjointFamily": False,
    "rigidityHolds": True,
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outcome its construction guarantees.

    ``code`` is the expected exit code and ``fields`` the expected values of
    top-level keys of the ``--json`` output.  ``code=None`` marks an explore
    command, whose outcome is not known beforehand and is judged for
    self-consistency instead.
    """

    kind: str
    shape: str
    argv: tuple[str, ...]
    code: int | None
    fields: dict = field(default_factory=dict)


def judge(cmd: Command, code: int, stdout: str) -> str | None:
    """None when the command's outcome matches its construction, else why not."""
    if code == 2:
        return "exit code 2 (usage or input error)"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if cmd.code is None:
        count = out.get("violationCount")
        if not isinstance(count, int):
            return "violationCount missing"
        want = 0 if count == 0 else 1
        if code != want:
            return f"exit code {code} disagrees with violationCount {count}"
    elif code != cmd.code:
        return f"exit code {code}, expected {cmd.code}"
    for key, want in cmd.fields.items():
        if out.get(key) != want:
            return f"{key} = {out.get(key)!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def _matrix_obj(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _write_channel(path: Path, ops, weights=None) -> str:
    weights = [1.0] * len(ops) if weights is None else weights
    terms = [{"weight": float(w), "matrix": _matrix_obj(x)} for w, x in zip(weights, ops)]
    return _write(path, {"dim": int(ops[0].shape[0]), "terms": terms})


def _write_matrix(path: Path, m: np.ndarray) -> str:
    return _write(path, {"matrix": _matrix_obj(m)})


# ---------------------------------------------------------------------------
# Random building blocks
# ---------------------------------------------------------------------------


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (z + z.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def _block_diag(blocks) -> np.ndarray:
    d = sum(b.shape[0] for b in blocks)
    out = np.zeros((d, d), dtype=np.complex128)
    start = 0
    for b in blocks:
        k = b.shape[0]
        out[start : start + k, start : start + k] = b
        start += k
    return out


def _conj(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    return v @ m @ v.conj().T


def _block_scalars(blocks, rng) -> np.ndarray:
    """Distinct block scalars c_i in [1, 3], at least 0.2 apart."""
    c = 1.0 + 0.5 * np.arange(len(blocks)) + rng.uniform(0.0, 0.3, len(blocks))
    return rng.permutation(c)


def _bistochastic(blocks, rng):
    """x_t = (+)_i u_{t,i} / sqrt(n) in the standard basis, and a = (+)_i c_i I.

    Sum x_t* x_t = sum x_t x_t* = I, and a commutes with every x_t, so a is a
    positive fixed point and every verdict of the theorem is true.
    """
    ops = [_block_diag([_haar(b, rng) for b in blocks]) / np.sqrt(N_TERMS) for _ in range(N_TERMS)]
    c = _block_scalars(blocks, rng)
    a = _block_diag([ci * np.eye(b) for ci, b in zip(c, blocks)])
    return ops, a


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _theorem_mix(rng, out: Path) -> list[Command]:
    d, blocks = THEOREM_DIM, THEOREM_BLOCKS
    cmds: list[Command] = []

    def rotated(tag):
        ops, a = _bistochastic(blocks, rng)
        v = _haar(d, rng)
        ops = [_conj(v, x) for x in ops]
        a = _conj(v, a)
        return (
            _write_channel(out / f"{tag}.channel.json", ops),
            _write_matrix(out / f"{tag}.a.json", a),
            ops,
            a,
        )

    # Rotated bistochastic families with the full algebra: the main shape.
    for k in range(4):
        ch, op, _, _ = rotated(f"full{k}")
        cmds.append(Command("verify", "full", ("verify", ch, op, "--json"), 0, {"verdict": True}))
        cmds.append(Command("verify", "full", ("verify", ch, op, "--json"), 0, {"verdict": True}))
        cmds.append(Command("corollary", "full", ("corollary", ch, op, "--json"), 0, {"verdict": True}))

    # The same family in the standard basis, with weighted Kraus terms and a
    # weighted block algebra: runs the block invariance path and tau.
    mu = np.array([0.5, 1.0, 2.0])
    ops, a = _bistochastic(blocks, rng)
    ch = _write_channel(out / "block.channel.json", [x / np.sqrt(m) for x, m in zip(ops, mu)], mu)
    op = _write_matrix(out / "block.a.json", a)
    alg = _write(out / "block.algebra.json", {"blocks": list(blocks), "weights": [1.0, 2.5, 0.5]})
    cmds.append(Command("verify", "block", ("verify", ch, op, "--algebra", alg, "--json"), 0, {"verdict": True}))
    cmds.append(Command("corollary", "block", ("corollary", ch, op, "--algebra", alg, "--json"), 0, {"verdict": True}))

    # A Hermitian perturbation of a fixed point.  Phi is trace preserving, so
    # Phi(a') - a' is traceless and nonzero, hence not >= 0: superFixed fails.
    ch, _, _, a = rotated("perturbed")
    a_pert = a + 0.3 * _hermitian(d, rng)
    op = _write_matrix(out / "perturbed.a.json", a_pert)
    cmds.append(Command("verify", "perturbed", ("verify", ch, op, "--json"), 1, {"verdict": False}))

    # Self-adjoint projective families p_t with a = sum c_k p_k, for peel.
    for k in range(4):
        v = _haar(d, rng)
        ps = [
            _conj(v, _block_diag([np.eye(b) if i == t else np.zeros((b, b)) for i, b in enumerate(blocks)]))
            for t in range(len(blocks))
        ]
        ps = [(p + p.conj().T) / 2.0 for p in ps]
        c = _block_scalars(blocks, rng)
        a = sum(ci * p for ci, p in zip(c, ps))
        ch = _write_channel(out / f"peel{k}.channel.json", ps)
        op = _write_matrix(out / f"peel{k}.a.json", a)
        cmds.append(Command("peel", "projective", ("peel", ch, op, "--json"), 0, {"verdict": True}))

    # Jensen for a unital family, |eps| ||a|| = 0.5 < 0.99: true by the
    # Jensen operator inequality for the operator convex f_eps.
    for k in range(4):
        ch, _, _, _ = rotated(f"jensen{k}")
        h = _hermitian(d, rng) * 2.0
        eps = 0.25 if k % 2 == 0 else -0.25
        op = _write_matrix(out / f"jensen{k}.a.json", h)
        cmds.append(Command("jensen", "unital", ("jensen", ch, op, "--eps", repr(eps), "--json"), 0, {"verdict": True}))
    return cmds


def _dense_kernel(rng, out: Path) -> list[Command]:
    d, n = DENSE_DIM, N_TERMS
    cmds: list[Command] = []

    # (+)-blocks, rotated: fixed space = commutant = (+)_i C I, dimension 3.
    for k in range(2):
        ops, _ = _bistochastic(DENSE_BLOCKS, rng)
        v = _haar(d, rng)
        ch = _write_channel(out / f"blocks{k}.channel.json", [_conj(v, x) for x in ops])
        cmds.append(Command("check", "blocks", ("check", ch, "--json"), 0,
                            {"verdict": True, "flags": ALL_FLAGS_TRUE_EXCEPT_SELF_ADJOINT}))
        cmds.append(Command("fix", "blocks", ("fix", ch, "--json"), 0, {"dimension": len(DENSE_BLOCKS)}))
        cmds.append(Command("commutant", "blocks", ("commutant", ch, "--json"), 0, {"dimension": len(DENSE_BLOCKS)}))

    # V (u_t (x) I_4) V* / sqrt(n): fixed space = commutant = I_5 (x) M_4,
    # dimension 16, with large --json output.
    p, q = DENSE_TENSOR
    v = _haar(d, rng)
    ops = [_conj(v, np.kron(_haar(p, rng), np.eye(q))) / np.sqrt(n) for _ in range(n)]
    ch = _write_channel(out / "tensor.channel.json", ops)
    cmds.append(Command("fix", "tensor", ("fix", ch, "--json"), 0, {"dimension": q * q}))
    cmds.append(Command("commutant", "tensor", ("commutant", ch, "--json"), 0, {"dimension": q * q}))
    return cmds


def _explore_tiny(rng, out: Path) -> list[Command]:
    cmds = []
    for dim in EXPLORE_DIMS:
        for mode in EXPLORE_MODES:
            for _ in range(2):
                seed = int(rng.integers(0, 2**31 - 1))
                argv = ("explore", "--mode", mode, "--dim", str(dim), "--trials", str(EXPLORE_TRIALS),
                        "--terms", str(N_TERMS), "--seed", str(seed), "--json")
                config = {"mode": mode, "dim": dim, "trials": EXPLORE_TRIALS, "seed": seed}
                cmds.append(Command("explore", f"d{dim}", argv, None, {"config": config}))
    return cmds


_BUILDERS = {
    "theorem-mix": _theorem_mix,
    "dense-kernel": _dense_kernel,
    "explore-tiny": _explore_tiny,
}


def build(workload: str, seed: int, out: Path) -> list[Command]:
    """Write the workload's instance files under ``out`` and return its cycle."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cmds = _BUILDERS[workload](rng, out)
    order = np.random.default_rng([seed, 99]).permutation(len(cmds))
    return [cmds[i] for i in order]
