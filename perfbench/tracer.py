"""Per-layer tracing of cpfix from outside the package.

Each listed public function is replaced by a wrapper that records a span
(function, request, parent span, start, end).  The wrapper is installed on
every ``cpfix.*`` module attribute bound to the same function object, so a
call site that did ``from .matcore import opnorm`` is traced too.  Spans
stay in flat arrays in memory and are written out once, at the end.

Tiny helpers (``as_cmatrix``, ``rel_scale``, ``is_hermitian``, ...) are
left unwrapped on purpose: they run thousands of times per command and a
wrapper on them would distort the costs being measured.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "cpfix"

LAYERS = {
    "matcore": ("opnorm", "hermitize", "herm_eig", "mat_func", "psd_min_eig", "nullspace_basis"),
    "channel": (
        "apply_map",
        "normalization_report",
        "superoperator_matrix",
        "choi_matrix",
        "choi_psd_check",
        "fixed_space_basis",
    ),
    "algebra": ("commutant_basis", "invariance_check", "trace_tau"),
    "jensen": ("f_eps_eval", "jensen_residual", "kadison_schwarz_residual"),
    "verify": (
        "theorem_verify",
        "corollary_verify",
        "spectral_peel",
        "hypothesis_explorer",
        "trace_inequality_check",
    ),
    "io": ("read_channel", "read_matrix", "canonical_dumps", "matrix_to_obj"),
    "cli": ("run",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _nbytes(a) -> int:
    """Bytes of a dense array, computed from its shape and dtype."""
    a = np.asarray(a)
    return int(np.prod(a.shape)) * a.dtype.itemsize


# channel.dense_bytes: the d^2 x d^2 arrays returned by the superoperator and
# Choi builders, plus the linear system handed to the nullspace solver.
_DENSE_BYTES = {
    "channel.superoperator_matrix": lambda args, result: _nbytes(result.matrix),
    "channel.choi_matrix": lambda args, result: _nbytes(result),
    "matcore.nullspace_basis": lambda args, result: _nbytes(args[0]),
}


class Tracer:
    """Span recorder for one traced run; install, drive commands, uninstall."""

    def __init__(self):
        self.fn = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dense_bytes = 0
        self.current_request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, func, count_bytes):
        clock = time.perf_counter
        fn, parent, request, start, end = self.fn, self.parent, self.request, self.start, self.end
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.current_request)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count_bytes is not None:
                self.dense_bytes += count_bytes(args, result)
            return result

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for fid, qual in enumerate(FUNCTIONS):
            mod, name = qual.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], name)
            wrapper = self._wrap(fid, original, _DENSE_BYTES.get(qual))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def summary(self, n_commands: int) -> dict[str, tuple[float, str]]:
        """Per-command calls and self time of every function, and module shares.

        Self time is a span's duration minus the durations of its direct
        child spans; calls are synchronous, so children never overlap.
        Values come with their units.
        """
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        calls = np.bincount(fn, minlength=len(FUNCTIONS))
        self_total = np.bincount(fn, weights=self_time, minlength=len(FUNCTIONS))
        total = float(dur[~nested].sum())

        out: dict[str, tuple[float, str]] = {}
        module_self = dict.fromkeys(LAYERS, 0.0)
        for fid, qual in enumerate(FUNCTIONS):
            out[f"{qual}.calls"] = (float(calls[fid]) / n_commands, "count")
            out[f"{qual}.self_ms"] = (1e3 * float(self_total[fid]) / n_commands, "ms")
            module_self[qual.split(".")[0]] += float(self_total[fid])
        for mod, t in module_self.items():
            out[f"{mod}.self_share"] = (t / total if total > 0 else 0.0, "ratio")
        out["channel.dense_bytes"] = (self.dense_bytes / n_commands, "bytes")
        return out

    def save(self, path: Path):
        np.savez(
            path,
            names=np.array(FUNCTIONS),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
