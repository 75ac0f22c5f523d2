"""Command-line front end.

Exit codes: 0 = verdict true / no violation, 1 = verdict false or a
failed precondition, 2 = usage or input-format error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import io
from .matcore import DEFAULT_TOL, DomainError, HermiticityError, ToleranceConfig
from .algebra import (
    BlockAlgebra,
    algebra_structure,
    commutant_basis,
    structure_commutant,
    structure_fixed_space,
)
from .channel import (
    DimensionMismatchError,
    fixed_space_basis,
    is_unital,
    normalization_report,
)
from .jensen import EpsFunction, jensen_residual
from .verify import (
    EXPLORER_MODES,
    PreconditionError,
    TrialConfig,
    corollary_verify,
    hypothesis_explorer,
    spectral_peel,
    theorem_verify,
)

__all__ = ["main", "run"]


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of every count option: a usage error (exit 2) below 1."""
    return _int_at_least(text, 1, "positive")


def _seed(text: str) -> int:
    """argparse type of ``--seed``."""
    return _int_at_least(text, 0, "non-negative")


def _float_where(text: str, accept, kind: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not accept(value):
        raise argparse.ArgumentTypeError(f"expected a {kind} number, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    return _float_where(text, math.isfinite, "finite")


def _tolerance(text: str) -> float:
    """argparse type of ``--tol`` and ``--psd-tol``."""
    return _float_where(text, lambda v: 0.0 < v < math.inf, "finite positive")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # --psd-tol only on the commands with a ">= 0" decision; the others keep its default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL.eq_tol, help="equality tolerance (default %(default)g)"
    )
    common.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")
    common.set_defaults(psd_tol=DEFAULT_TOL.psd_tol)
    positivity = argparse.ArgumentParser(add_help=False, parents=[common])
    positivity.add_argument(
        "--psd-tol", type=_tolerance, default=DEFAULT_TOL.psd_tol, help="positivity tolerance (default %(default)g)"
    )

    parser = argparse.ArgumentParser(
        prog="cpfix",
        description="Fixed points of completely positive unital maps: checks and pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[positivity], help="normalization flags")
    p.add_argument("channel")

    p = sub.add_parser("fix", parents=[common], help="Hermitian basis of the fixed-point space")
    p.add_argument("channel")

    p = sub.add_parser("commutant", parents=[common], help="basis of the family's commutant")
    p.add_argument("channel")

    p = sub.add_parser("structure", parents=[common], help="block structure of the generated *-algebra")
    p.add_argument("channel")

    p = sub.add_parser("verify", parents=[positivity], help="run the full fixed-point pipeline")
    p.add_argument("channel")
    p.add_argument("operator")
    p.add_argument("--algebra", default=None, help="block algebra JSON (default: full algebra)")
    p.add_argument("--powers", type=_positive_int, default=8)

    p = sub.add_parser("corollary", parents=[positivity], help="fixed point with finite square")
    p.add_argument("channel")
    p.add_argument("operator")
    p.add_argument("--algebra", default=None)
    p.add_argument("--powers", type=_positive_int, default=8)

    p = sub.add_parser("peel", parents=[positivity], help="eigenprojection peeling pipeline")
    p.add_argument("channel")
    p.add_argument("operator")

    p = sub.add_parser("jensen", parents=[positivity], help="Jensen operator inequality residual")
    p.add_argument("channel")
    p.add_argument("operator")
    p.add_argument("--eps", type=_finite_float, required=True)

    p = sub.add_parser("explore", parents=[common], help="hypothesis-necessity exploration")
    p.add_argument("--mode", choices=EXPLORER_MODES, required=True)
    p.add_argument("--dim", type=_positive_int, default=3)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--terms", type=_positive_int, default=3)
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default %(default)s)")

    return parser


# Each handler returns (verdict, JSON object, human-readable lines); run
# emits one of the two and maps the verdict to the exit code.


def _cmd_check(args, cfg):
    """The normalization flags: the map of a Kraus family is CP by its form."""
    kf = io.read_channel(args.channel)
    rep = normalization_report(kf, cfg)
    verdict = rep.is_unital and rep.is_subunital_dual and rep.rigidity_holds
    obj = {"verdict": verdict, "flags": rep.flags()}
    lines = [f"{k}: {v}" for k, v in rep.flags().items()]
    lines.append(f"verdict: {verdict}")
    return verdict, obj, lines


def _cmd_kernel(args, cfg):
    """``fix`` and ``commutant``: a kernel basis and its rank decision.

    The structure path answers when it can certify that the dense kernel
    would reach the same dimension with no rank warning
    (``structure_fixed_space``, ``structure_commutant``); otherwise the
    dense kernel answers.  The structure path's basis, Hermitian for
    ``fix``, is built only for ``--json``: text prints the dimension alone.
    """
    kf = io.read_channel(args.channel)
    fix = args.command == "fix"
    obj, lines = {}, []
    found = structure_fixed_space(kf, cfg) if fix else structure_commutant(kf, cfg)
    if found is None:
        ns = fixed_space_basis(kf) if fix else commutant_basis(kf.operators)
        dimension, rank_warning = ns.dimension, ns.rank_warning
    else:
        dimension, rank_warning = found.dimension, False
    if fix:
        obj["unital"] = is_unital(kf, cfg)
        lines.append(f"fixed-space dimension: {dimension}")
        if not obj["unital"]:
            lines.append("warning: family is not unital")
    else:
        lines.append(f"commutant dimension: {dimension}")
    obj.update(dimension=dimension, rankWarning=rank_warning)
    if args.json:
        obj["basis"] = ns.basis if found is None else found.commutant(hermitian=fix).basis
    if rank_warning:
        lines.append("warning: rank decision is numerically ambiguous")
    return True, obj, lines


def _cmd_structure(args, cfg):
    """(m_i, n_i) of A = (+)_i M_{m_i} (x) 1_{n_i}, A the generated *-algebra."""
    kf = io.read_channel(args.channel)
    structure = algebra_structure(kf, cfg)
    if structure is None:
        raise PreconditionError(
            "the block structure of the generated *-algebra could not be certified"
        )
    blocks = [[m, n] for m, n in structure.blocks]
    lines = [f"block {k}: m = {m}, n = {n}" for k, (m, n) in enumerate(blocks)]
    lines.append(f"commutant dimension: {structure.dimension}")
    return True, {"blocks": blocks, "dimension": structure.dimension}, lines


def _load_algebra(args, dim: int) -> BlockAlgebra:
    if args.algebra is None:
        return BlockAlgebra.full(dim)
    alg = io.read_algebra(args.algebra)
    if alg.dim != dim:
        raise io.SchemaError(
            f"algebra dimension {alg.dim} does not match channel dimension {dim}"
        )
    return alg


def _cmd_verify(args, cfg):
    """``verify`` and ``corollary``: the same I/O around two pipelines."""
    kf = io.read_channel(args.channel)
    a = io.read_matrix(args.operator)
    alg = _load_algebra(args, kf.dim)
    pipeline = corollary_verify if args.command == "corollary" else theorem_verify
    report = pipeline(kf, alg, a, cfg, powers=args.powers)
    lines = [f"verdict: {report.verdict}"]
    lines += [f"hypothesis {k}: {v}" for k, v in report.hypotheses.items()]
    res = report.residuals
    if res("fixedness"):
        lines.append(f"trace gap: {res('traceGap')[0]:.3e}")
        lines.append(f"fixedness residual: {res('fixedness')[0]:.3e}")
        lines.append(f"max power residual: {max(res('powers')):.3e}")
        lines.append(f"max projection residual: {max(res('projections')):.3e}")
        lines.append(f"max commutator residual: {max(res('commutators')):.3e}")
    lines += [f"failure: {msg}" for msg in report.failures]
    return report.verdict, report.to_dict(), lines


def _cmd_peel(args, cfg):
    kf = io.read_channel(args.channel)
    a = io.read_matrix(args.operator)
    trace = spectral_peel(kf, a, cfg)
    lines = [f"verdict: {trace.verdict}"]
    for k, step in enumerate(trace.steps):
        lines.append(
            f"step {k}: eigenvalue {step.eigenvalue:.6g}, "
            f"commutator {step.commutator_residual:.3e}, "
            f"fixedness {step.fixedness_residual:.3e}"
        )
    lines.append(f"reconstruction residual: {trace.reconstruction_residual:.3e}")
    lines += [f"failure: {msg}" for msg in trace.failures]
    return trace.verdict, trace.to_dict(), lines


def _cmd_jensen(args, cfg):
    kf = io.read_channel(args.channel)
    a = io.read_matrix(args.operator)
    res = jensen_residual(kf, EpsFunction(args.eps), a, cfg)
    obj = {
        "verdict": res.verdict,
        "minEig": res.min_eig,
        "lhsNorm": res.lhs_norm,
        "rhsNorm": res.rhs_norm,
        "eps": args.eps,
    }
    lines = [
        f"min eigenvalue of (Phi(f(a)) - f(Phi(a))): {res.min_eig:.3e}",
        f"verdict: {res.verdict}",
    ]
    return res.verdict, obj, lines


def _cmd_explore(args, cfg):
    trial_cfg = TrialConfig(
        dim=args.dim,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        n_terms=args.terms,
    )
    report = hypothesis_explorer(trial_cfg, cfg)
    lines = [
        f"mode: {report.mode}, dim {report.dim}, trials {report.trials}, seed {report.seed}",
        f"violations: {len(report.violations)}",
        f"max commutator residual: {report.max_commutator_residual:.3e}",
    ]
    return report.clean, report.to_dict(), lines


_COMMANDS = {
    "check": _cmd_check,
    "fix": _cmd_kernel,
    "commutant": _cmd_kernel,
    "structure": _cmd_structure,
    "verify": _cmd_verify,
    "corollary": _cmd_verify,
    "peel": _cmd_peel,
    "jensen": _cmd_jensen,
    "explore": _cmd_explore,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = ToleranceConfig(eq_tol=args.tol, psd_tol=args.psd_tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        verdict, obj, lines = _COMMANDS[args.command](args, cfg)
        if args.json:
            sys.stdout.write(io.canonical_dumps(obj))
        else:
            for line in lines:
                print(line)
        return 0 if verdict else 1
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (
        io.SchemaError,
        DimensionMismatchError,
        DomainError,
        HermiticityError,
        OSError,
        # a ValueError, so it is caught before the precondition branch
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ValueError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
