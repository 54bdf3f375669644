"""Every public top-level name and public method in `src/peterweyl` is
reached by a caller, and every immutable class takes its immutability from
`Frozen`.

The walk starts from the names that `demos/`, `bench/`, the acceptance
tests, the module-level code of `src/` and the exempt oracles use, and
follows the body of every definition in `src/` it reaches, until nothing
new is reached.  A definition is a top-level function or class, or a
method or property of a top-level class.  Reaching a class follows its
bases, its class-level statements and its dunder methods, which Python
calls implicitly; every other method is followed only when its own name
is reached.  The rest of the test suite does not count: a helper that
only tests reach belongs in the tests, next to the assertions that use
it, and so does a chain of helpers that call only each other.

A name counts as used where it appears as a `Name`, an `Attribute`, an
import alias, or a string that is an identifier (the benchmark tracer
lists the functions it wraps as strings).  Names are matched without
their module or class, so a use of `apply` reaches every top-level
`apply` and every method called `apply`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "peterweyl"
CALLERS = [ROOT / "demos", ROOT / "bench",
           ROOT / "tests" / "test_acceptance.py"]

# beta is the definition of a matrix coefficient; the tests check
# `component` against it, so it stays next to `component` as its oracle.
EXEMPT = {"beta"}


def _python_files(path: Path):
    return [path] if path.is_file() else sorted(path.rglob("*.py"))


def _used_names(node):
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rpartition(".")[2])
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            used.add(sub.value)
    return used


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _class_part(cls):
    """What reaching a class follows: all but its non-dunder methods."""
    own = [node for node in cls.body
           if not (isinstance(node, ast.FunctionDef)
                   and not _is_dunder(node.name))]
    return ast.Module(body=cls.bases + cls.keywords + cls.decorator_list
                      + own, type_ignores=[])


def _walk():
    """The public definitions, and the names a caller reaches."""
    definitions: dict = {}
    labels = {}  # "Class.method" or top-level name -> name
    roots = set()
    for path in _python_files(PACKAGE):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                definitions.setdefault(node.name, []).append(node)
                labels[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                definitions.setdefault(node.name, []).append(
                    _class_part(node))
                labels[node.name] = node.name
                for meth in node.body:
                    if (isinstance(meth, ast.FunctionDef)
                            and not _is_dunder(meth.name)):
                        definitions.setdefault(meth.name, []).append(meth)
                        labels[node.name + "." + meth.name] = meth.name
            else:
                roots |= _used_names(node)
    for root in CALLERS:
        for path in _python_files(root):
            roots |= _used_names(ast.parse(path.read_text()))
    for name in EXEMPT:
        for node in definitions.get(name, ()):
            roots |= _used_names(node)
    reached = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in definitions.get(name, ()):
            todo.extend(_used_names(node) - reached)
    public = {label: name for label, name in labels.items()
              if not name.startswith("_")}
    return public, reached


def test_every_public_name_has_a_caller_outside_the_tests():
    public, reached = _walk()
    unreached = sorted(label for label, name in public.items()
                       if name not in reached and name not in EXEMPT)
    assert not unreached, "reached only from the tests: " + ", ".join(
        unreached)


def _classes():
    """Every class in `src/peterweyl`, by name."""
    classes = {}
    for path in _python_files(PACKAGE):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    return classes


def _method(cls, name):
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _sets_slots_in_init(cls):
    init = _method(cls, "__init__")
    return init is not None and any(
        isinstance(sub, ast.Attribute) and sub.attr == "__setattr__"
        and isinstance(sub.value, ast.Name) and sub.value.id == "object"
        for sub in ast.walk(init))


def test_immutable_classes_derive_from_frozen():
    classes = _classes()

    def frozen(name):
        if name == "Frozen":
            return True
        node = classes.get(name)
        return node is not None and any(
            isinstance(b, ast.Name) and frozen(b.id) for b in node.bases)

    own_setattr = sorted(name for name, node in classes.items()
                         if name != "Frozen" and _method(node, "__setattr__"))
    assert not own_setattr, "define __setattr__: " + ", ".join(own_setattr)
    unfrozen = sorted(name for name, node in classes.items()
                      if _sets_slots_in_init(node) and not frozen(name))
    assert not unfrozen, "immutable but not Frozen: " + ", ".join(unfrozen)
