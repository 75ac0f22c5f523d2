"""Every threshold is decided in ``cpfix.matcore``.

The modules that assert "= 0" and ">= 0" reach ``eq_tol`` and ``psd_tol``
only through ``ToleranceConfig.eq_bound``, ``psd_bound`` and ``psd_check``,
so a change of the tolerance rule is a change to one class.
"""

import ast
from pathlib import Path

import pytest

import cpfix
from cpfix import matcore

SOURCE = Path(cpfix.__file__).parent
POLICY_MODULES = ("channel", "algebra", "jensen", "verify", "io")
TOLERANCE_FIELDS = {"eq_tol", "psd_tol"}


@pytest.mark.parametrize("module", POLICY_MODULES)
def test_module_reads_no_tolerance_field(module):
    path = SOURCE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in TOLERANCE_FIELDS
    ]
    assert reads == []


def test_rel_scale_is_gone():
    assert not hasattr(matcore, "rel_scale")
