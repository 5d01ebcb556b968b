"""Rules the test suite keeps for its own checks."""

import ast
from pathlib import Path


def _is_approx(func: ast.expr) -> bool:
    if isinstance(func, ast.Attribute):
        return (func.attr == "approx" and isinstance(func.value, ast.Name)
                and func.value.id == "pytest")
    return isinstance(func, ast.Name) and func.id == "approx"


def test_every_approx_states_its_abs():
    """pytest.approx also applies a default abs=1e-12, and the larger tolerance
    wins, so a rel= check on a value below ~1e-6 passes whatever the value:
    4.5e-14 == approx(9e-14, rel=1e-9) holds.  Every approx in tests/ states
    its abs (abs=0 for a relative check)."""
    missing = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and _is_approx(node.func)
                    and not any(k.arg == "abs" for k in node.keywords)):
                missing.append(f"{path.name}:{node.lineno}")
    assert not missing, "pytest.approx without abs=: " + ", ".join(missing)
