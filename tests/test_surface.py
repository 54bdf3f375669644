"""Every public top-level name in `src/peterweyl` has a caller.

A caller is code in `src/`, `demos/`, `bench/` or the acceptance tests.
The rest of the test suite does not count: a helper that only tests
reach belongs in the tests, next to the assertions that use it.

A name counts as used where it appears as a `Name`, an `Attribute`, an
import alias, or a string that is an identifier (the benchmark tracer
lists the functions it wraps as strings).  The definition itself does
not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "peterweyl"
CALLERS = [ROOT / "src", ROOT / "demos", ROOT / "bench",
           ROOT / "tests" / "test_acceptance.py"]

# beta is the definition of a matrix coefficient; the tests check
# `component` against it, so it stays next to `component` as its oracle.
EXEMPT = {"beta"}


def _python_files(path: Path):
    return [path] if path.is_file() else sorted(path.rglob("*.py"))


def _public_definitions():
    out = set()
    for path in _python_files(PACKAGE):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.add(node.name)
    return out


def _used_names():
    used = set()
    for root in CALLERS:
        for path in _python_files(root):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    used.add(node.value)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _public_definitions() - _used_names() - EXEMPT
    assert not unused, "no caller outside the tests: " + ", ".join(
        sorted(unused))
