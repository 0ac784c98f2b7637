"""Floats appear only at the SVG boundary: an `ast` scan of the package source.

No float or imaginary literal, no `float(` call and no use of `math`/`cmath`
floating-point names outside the allow-list below.  Integer helpers imported
by name from `math` (`gcd`, `isqrt`, `lcm`) are exact and allowed anywhere.
"""
import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "quasitoric"

ALLOWED = {
    "tilings._ZETA", "tilings._ZETA_POWERS", "tilings.Cyclo.to_complex",
    "tilings._fmt", "tilings._svg_head", "tilings.write_svg", "tilings.render_star",
    "field.FieldElem.__float__",
}
EXACT_MATH = {"gcd", "isqrt", "lcm"}


def _float_uses(tree, module):
    """(scope, line, what) for every float use; scope is `module.qualname`."""
    found, scopes = [], set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif (scope == module and isinstance(child, ast.Assign)
                  and isinstance(child.targets[0], ast.Name)):
                inner = f"{scope}.{child.targets[0].id}"
            scopes.add(inner)
            what = None
            if isinstance(child, ast.Constant) and type(child.value) in (float, complex):
                what = f"literal {child.value!r}"
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "float"):
                what = "float() call"
            elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                  and child.value.id in ("math", "cmath")):
                what = f"{child.value.id}.{child.attr}"
            elif isinstance(child, ast.ImportFrom) and child.module in ("math", "cmath"):
                loose = [a.name for a in child.names
                         if child.module == "cmath" or a.name not in EXACT_MATH]
                what = f"from {child.module} import {loose}" if loose else None
            if what:
                found.append((inner, child.lineno, what))
            visit(child, inner)

    visit(tree, module)
    return found, scopes


def test_floats_only_at_the_svg_boundary():
    outside, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        found, scopes = _float_uses(ast.parse(path.read_text()), path.stem)
        seen |= scopes
        outside += [f"{path.name}:{line} {scope}: {what}"
                    for scope, line, what in found if scope not in ALLOWED]
    assert outside == []
    assert ALLOWED <= seen   # no stale entry: every allowed name still exists


def test_scan_sees_a_float_outside_the_allow_list():
    tree = ast.parse("from math import sqrt\n"
                     "class A:\n    def f(self):\n        return float(math.pi) * 0.5\n")
    found, _ = _float_uses(tree, "m")
    assert [(s, w) for s, _l, w in found] == [
        ("m", "from math import ['sqrt']"), ("m.A.f", "float() call"),
        ("m.A.f", "math.pi"), ("m.A.f", "literal 0.5")]
