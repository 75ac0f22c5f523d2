"""Closed-loop benchmark of the cpfix command-line tool.

    python3 perfbench/run.py --workload theorem-mix --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; cpfix is imported from ``src/``.
One client drives ``cpfix.cli.run(argv)`` in-process and sends each command
only after the previous one returned.  Starting an interpreter and
importing cpfix costs more than most commands, so commands are not run as
subprocesses.  Every output is checked against the answer its instance was
built to have.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` replays the
same whole cycles twice, untraced and then traced, and reports per-layer
calls and self time per command, the tracing overhead, and whether both
passes gave identical outcomes.  Human-readable lines come first; the last
line of stdout is one JSON object with the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up is repeated and its median reported, so one slow import or cold
# cache does not decide the metric.
SETUPS = 5
# The tail is the sample with this many slower samples above it.
TAIL_SAMPLES = 10


class Result:
    """Outcomes and latencies of the commands a pass ran, and its cycle times.

    Commands are recorded in cycle order, so sample ``i`` is a repeat of
    the cycle's command ``i % cycle_len``.
    """

    def __init__(self, cycle_len: int):
        self.cycle_len = cycle_len
        self.kinds: list[str] = []
        self.latency: list[float] = []
        self.outcomes: list[tuple[int | None, str | None]] = []
        self.cycle_ops_per_s: list[float] = []

    @property
    def failures(self) -> list[str]:
        return [why for _, why in self.outcomes if why is not None]

    @property
    def ops_per_s(self) -> float:
        """Commands completed per second, median over whole cycles."""
        return statistics.median(self.cycle_ops_per_s)

    def best_latency(self) -> dict[int, float]:
        """Each cycle position's fastest repeat."""
        best: dict[int, float] = {}
        for i, t in enumerate(self.latency):
            best[i % self.cycle_len] = min(t, best.get(i % self.cycle_len, math.inf))
        return best


def _run_one(cli, cmd: workloads.Command) -> tuple[float, int | None, str | None]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(cmd.argv))
    except Exception as exc:  # a raising command is a failed command, not a crash
        return time.perf_counter() - t0, None, f"raised {exc!r}"
    dt = time.perf_counter() - t0
    return dt, code, workloads.judge(cmd, code, out.getvalue())


def run_cycle(cli, cmds, res: Result, deadline=math.inf, tracer=None) -> bool:
    """Send the cycle's commands one after another; False once the deadline has passed."""
    t_start = time.perf_counter()
    for k, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.current_request = len(res.latency)
        dt, code, why = _run_one(cli, cmd)
        res.kinds.append(cmd.kind)
        res.latency.append(dt)
        res.outcomes.append((code, None if why is None else f"{cmd.kind}/{cmd.shape}: {why}"))
        if k < len(cmds) - 1 and time.perf_counter() >= deadline:
            return False
    t_end = time.perf_counter()
    res.cycle_ops_per_s.append(len(cmds) / (t_end - t_start))
    return t_end < deadline


def run_plain(cli, cmds, seconds: float) -> Result:
    """The closed loop for ``seconds`` of wall time, and at least one whole cycle."""
    res = Result(len(cmds))
    deadline = time.perf_counter() + seconds
    run_cycle(cli, cmds, res)
    while time.perf_counter() < deadline and run_cycle(cli, cmds, res, deadline):
        pass
    return res


def run_traced(cli, cmds, seconds: float) -> tuple[Result, Result, Tracer]:
    """Alternate untraced and traced cycles until ``seconds`` have passed.

    Alternating puts both passes under the same machine load, so the ratio
    of their throughputs is the tracing overhead.
    """
    plain, traced, tracer = Result(len(cmds)), Result(len(cmds)), Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        run_cycle(cli, cmds, plain)
        tracer.install()
        try:
            run_cycle(cli, cmds, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            return plain, traced, tracer


def setup(workload: str, seed: int, out: Path):
    """Import cpfix afresh, build and write the instances, warm up each command kind."""
    t0 = time.perf_counter()
    for name in [n for n in sys.modules if n == "cpfix" or n.startswith("cpfix.")]:
        del sys.modules[name]
    cli = importlib.import_module("cpfix.cli")
    cmds = workloads.build(workload, seed, out)
    for kind in workloads.COMMANDS[workload]:
        _run_one(cli, next(c for c in cmds if c.kind == kind))
    return cli, cmds, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------


def _blas_threads() -> str:
    """OpenBLAS's own thread count, asked through the loaded library."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    except OSError:
        return "unknown"
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return str(func())
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(cpfix_version: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blasThreads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpfix": cpfix_version,
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(latency: list[float]) -> tuple[float, float]:
    """The slowest sample that still has TAIL_SAMPLES samples above it, and its percentile."""
    s = sorted(latency)
    k = max(0, len(s) - 1 - TAIL_SAMPLES)
    return s[k], 100.0 * k / max(1, len(s) - 1)


def end_to_end(res: Result, setup_s: list[float]) -> tuple[dict, list[str]]:
    ms = [1e3 * t for t in res.latency]
    best = {i: 1e3 * t for i, t in res.best_latency().items()}
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "best_ops_per_s": (1e3 * len(best) / sum(best.values()), "1/s"),
        "best_latency_p50_ms": (statistics.median(best.values()), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [
        f"{len(res.cycle_ops_per_s)} whole cycles of {res.cycle_len} commands; setup_s is the median of {SETUPS} set-ups",
        f"ops_per_s {res.ops_per_s:.4f} 1/s (median over whole cycles)",
        f"latency_p50_ms {statistics.median(ms):.4f} ms ({len(ms)} samples)",
        f"latency_tail_ms {tail_ms:.4f} ms (p{tail_pct:.2f} of {len(ms)} samples, {TAIL_SAMPLES} slower)",
        f"best_latency_max_ms {max(best.values()):.4f} ms (the slowest command at its fastest repeat)",
        f"fail_frac {len(res.failures) / len(ms):.6g} ({len(res.failures)} of {len(ms)} commands)",
    ]
    for kind in dict.fromkeys(res.kinds):
        kind_ms = [t for k, t in zip(res.kinds, ms) if k == kind]
        kind_best = [t for i, t in best.items() if res.kinds[i] == kind]
        lines.append(
            f"{kind}_p50_ms {statistics.median(kind_ms):.4f} ms ({len(kind_ms)} samples); "
            f"{kind}_best_p50_ms {statistics.median(kind_best):.4f} ms ({len(kind_best)} commands)"
        )
    return metrics, lines


def per_layer(plain: Result, traced: Result, tracer: Tracer, spans: Path) -> tuple[dict, list[str]]:
    tracer.save(spans)
    metrics = tracer.summary(len(traced.latency))
    metrics["trace.ops_per_s_ratio"] = (traced.ops_per_s / plain.ops_per_s, "ratio")
    lines = [
        f"{len(traced.cycle_ops_per_s)} cycles of {traced.cycle_len} commands each way: "
        f"{traced.ops_per_s:.4f} ops/s traced, {plain.ops_per_s:.4f} ops/s untraced",
        f"traced and untraced outcomes identical: {plain.outcomes == traced.outcomes}",
        f"{len(tracer.fn)} spans written to {spans.relative_to(ROOT)}",
        "channel.dense_bytes is computed from array shapes, not measured",
    ]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cpfix" / "__init__.py").is_file():
        print(f"error: no cpfix source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = []
        for k in range(SETUPS):
            cli, cmds, dt = setup(args.workload, args.seed, work / f"setup{k}")
            setup_s.append(dt)
        facts = machine_facts(sys.modules["cpfix"].__version__, args.seed)

        if args.trace == 0:
            res = run_plain(cli, cmds, args.seconds)
            failures = res.failures
            metrics, lines = end_to_end(res, setup_s)
            attempted = len(res.latency)
            consistent = True
        else:
            plain, traced, tracer = run_traced(cli, cmds, args.seconds)
            failures = plain.failures + traced.failures
            consistent = plain.outcomes == traced.outcomes
            metrics, lines = per_layer(plain, traced, tracer, WORK / f"spans-{args.workload}.npz")
            attempted = len(plain.latency) + len(traced.latency)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, value in facts.items():
        print(f"machine {key}: {value}")
    for line in lines:
        print(line)
    for why in failures[:20]:
        print(f"FAILED {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": consistent and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
