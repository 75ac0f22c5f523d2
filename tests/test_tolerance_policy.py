"""Every threshold is decided in ``cpfix.matcore``.

The modules that assert "= 0" and ">= 0" reach ``eq_tol`` and ``psd_tol``
only through ``ToleranceConfig.eq_bound``, ``psd_bound`` and ``psd_check``,
so a change of the tolerance rule is a change to one class.  The cuts no
option sets, ``CLUSTER_GAP``, ``NULL_TOL`` and ``AMBIGUITY``, are matcore
constants with no copy elsewhere.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import cpfix
from cpfix import matcore

SOURCE = Path(cpfix.__file__).parent
MODULES = sorted(path.stem for path in SOURCE.glob("*.py"))
POLICY_MODULES = ("channel", "algebra", "jensen", "verify", "io")
TOLERANCE_FIELDS = {"eq_tol", "psd_tol"}
MATCORE_CONSTANTS = {"CLUSTER_GAP", "NULL_TOL", "AMBIGUITY"}


def _tree(module: str) -> ast.Module:
    path = SOURCE / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(module: str, attrs) -> list[str]:
    return [
        f"{module}.py:{node.lineno} .{node.attr}"
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Attribute) and node.attr in attrs
    ]


@pytest.mark.parametrize("module", POLICY_MODULES)
def test_module_reads_no_tolerance_field(module):
    assert _reads(module, TOLERANCE_FIELDS) == []


def test_no_module_reads_a_removed_field():
    assert [r for module in MODULES for r in _reads(module, {"cluster_gap", "null_tol"})] == []


def test_cut_constants_are_assigned_only_in_matcore():
    # a private copy such as _AMBIGUITY counts as an assignment
    assigned = {
        (module, node.id)
        for module in MODULES
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id.lstrip("_") in MATCORE_CONSTANTS
    }
    assert assigned == {("matcore", name) for name in MATCORE_CONSTANTS}


def test_tolerance_config_has_the_two_cli_fields():
    assert {f.name for f in dataclasses.fields(matcore.ToleranceConfig)} == TOLERANCE_FIELDS


def test_rel_scale_is_gone():
    assert not hasattr(matcore, "rel_scale")
