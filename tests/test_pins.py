"""pytest.approx(9.4e-17, rel=1e-9) accepts 0.0, its default abs being
1e-12: a tiny pin must set abs=.  test_acceptance.py is not scanned."""

import ast
import pathlib

ARITHMETIC = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)


def tiny_pins(source: str) -> list:
    """Lines of approx(<number>) with |number| < 1e-6 and no abs=, where
    <number> is built from numeric literals alone."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and node.args
                and getattr(func, "attr", getattr(func, "id", "")) == "approx"
                and all(k.arg != "abs" for k in node.keywords)
                and all(isinstance(n, ARITHMETIC)
                        for n in ast.walk(node.args[0]))):
            continue
        value = eval(compile(ast.Expression(node.args[0]), "<pin>", "eval"))
        if isinstance(value, (int, float)) and abs(value) < 1e-6:
            lines.append(node.lineno)
    return sorted(lines)


def test_scanner_flags_bare_tiny_pins():
    assert tiny_pins("a == pytest.approx(-9.4e-17 / 2, rel=1e-9)\n"
                     "b == approx(1e-10, rel=1e-9, abs=0)\n"
                     "c == approx(0.5) or d == approx(x, rel=1e-9)\n"
                     "e == approx(3e-7)\n") == [1, 4]


def test_tiny_pins_set_abs():
    tests = pathlib.Path(__file__).parent
    found = {path.name: tiny_pins(path.read_text(encoding="utf-8"))
             for path in sorted(tests.glob("test_*.py"))
             if path.name != "test_acceptance.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
