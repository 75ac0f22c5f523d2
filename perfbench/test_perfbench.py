"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import FUNCTIONS, LAYERS

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _result(capsys, *argv) -> tuple[list[str], dict]:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_spec_lists_the_workloads():
    # explore-tiny runs on demand; it is too sensitive to host load to gate on
    assert [w["name"] for w in SPEC["workloads"]] == ["theorem-mix", "dense-kernel"]
    assert set(workloads.WORKLOADS) == {"theorem-mix", "dense-kernel", "explore-tiny"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(capsys, workload):
    lines, result = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["value"] > 0, name
    for kind in workloads.COMMANDS[workload]:
        assert any(line.startswith(f"{kind}_p50_ms ") for line in lines), kind
    for name in ("fail_frac 0 ", "ops_per_s ", "latency_p50_ms ", "latency_tail_ms ", "best_latency_max_ms "):
        assert any(line.startswith(name) for line in lines), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_layer_metric(capsys, workload):
    lines, result = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == PER_LAYER
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    assert "traced and untraced outcomes identical: True" in lines
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.run.calls"] == 1.0
    assert sum(m[f"{mod}.self_share"] for mod in LAYERS) == pytest.approx(1.0)
    if workload == "dense-kernel":
        assert m["channel.choi_matrix.calls"] > 0 and m["channel.dense_bytes"] > 0
    else:
        assert m["channel.choi_matrix.calls"] == 0


def test_spec_names_every_layer_metric():
    per_function = {f"{f}.{s}" for f in FUNCTIONS for s in ("calls", "self_ms")}
    per_module = {f"{mod}.self_share" for mod in LAYERS}
    assert PER_LAYER == per_function | per_module | {"channel.dense_bytes", "trace.ops_per_s_ratio"}


def test_wrong_expected_answer_is_counted(tmp_path):
    cli, cmds, _ = run.setup("theorem-mix", 5, tmp_path)
    wrong = [
        dataclasses.replace(c, fields={"verdict": not c.fields["verdict"]}) if c.kind == "jensen" else c
        for c in cmds
    ]
    res = run.Result(len(cmds))
    run.run_cycle(cli, wrong, res)
    n_jensen = sum(c.kind == "jensen" for c in cmds)
    assert n_jensen > 0
    assert len(res.failures) == n_jensen
    assert all(why.startswith("jensen/") for why in res.failures)


def test_wrong_exit_code_and_raising_command_are_counted(tmp_path):
    cli, cmds, _ = run.setup("dense-kernel", 5, tmp_path)
    fix = next(c for c in cmds if c.kind == "fix")
    broken = [
        dataclasses.replace(fix, code=1),
        dataclasses.replace(fix, argv=("fix", str(tmp_path / "missing.json"), "--json")),
    ]
    res = run.Result(len(cmds))
    run.run_cycle(cli, broken, res)
    assert len(res.failures) == 2


def test_traced_and_untraced_outcomes_match(tmp_path):
    cli, cmds, _ = run.setup("explore-tiny", 7, tmp_path)
    plain, traced, tracer = run.run_traced(cli, cmds, 0.0)
    assert plain.outcomes == traced.outcomes
    assert not plain.failures
    # uninstall restored every call site
    channel = sys.modules["cpfix.channel"]
    assert channel.opnorm is sys.modules["cpfix.matcore"].opnorm
    assert not hasattr(channel.opnorm, "__wrapped__")


def test_tracer_reaches_imported_names(tmp_path):
    cli, cmds, _ = run.setup("theorem-mix", 7, tmp_path)
    tracer = run.Tracer()
    tracer.install()
    try:
        for mod in ("matcore", "channel", "algebra", "verify", "jensen"):
            assert hasattr(sys.modules[f"cpfix.{mod}"].opnorm, "__wrapped__"), mod
    finally:
        tracer.uninstall()


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("dense-kernel", 11, tmp_path / "a")
    b = workloads.build("dense-kernel", 11, tmp_path / "b")
    assert [c.kind for c in a] == [c.kind for c in b]
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fails_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
