"""Every public function and method of ``cpfix`` has a caller in ``cpfix``, or a stated reason.

A public name that no package code reads is API kept for its tests alone,
and grows the surface the tests then pin.  The few that stay have one
reason each: the benchmark tracer wraps them, they are a pipeline entry
point, they state a documented convention, or they are the dense oracle
the fast paths are checked against.
"""

import ast
from pathlib import Path

import cpfix

SOURCE = Path(cpfix.__file__).parent

UNREFERENCED = {
    "channel.choi_psd_check": "the dense oracle: the Choi certificate of a superoperator given directly",
    "channel.dual_apply": "a documented convention: the trace dual Phi*, the map whose iterates the roadmap asks for",
    "io.write_channel": "a documented convention: the channel wire format that read_channel reads",
    "io.write_matrix": "a documented convention: the matrix wire format that read_matrix reads",
    "jensen.kadison_schwarz_residual": "wrapped by the tracer; a pipeline entry point for Phi(a^2) >= Phi(a)^2",
    "matcore.vec": "a documented convention: column stacking, vec(A X B) = (B^T kron A) vec(X)",
    "verify.trace_inequality_check": "wrapped by the tracer; a pipeline entry point for the trace gap",
}


def _public_and_referenced() -> tuple[dict[str, str], set[str]]:
    """Qualified public function and method names with their bare names, and every name package code reads."""
    public, referenced = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                public[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        public[f"{path.stem}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return public, referenced


def test_unreferenced_public_names_are_the_listed_ones():
    public, referenced = _public_and_referenced()
    assert sorted(q for q, name in public.items() if name not in referenced) == sorted(UNREFERENCED)


def test_the_scan_sees_methods_and_functions():
    public, _ = _public_and_referenced()
    assert {"matcore.SpectralDecomposition.apply", "channel.NormalizationReport.flags", "cli.run"} <= set(public)
