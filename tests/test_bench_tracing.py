"""Every name the traced benchmark patches must still be where it looks.

`bench/tracing.py` wraps each (span, module, attribute) of its `WRAPPED`
table, and the scalar constructors of `SCALARS`: a plain name through
``getattr`` on the module, a ``Class.method`` through the class's own
``__dict__``, so a method left inherited is not found.  A refactor that
moves or renames one of them breaks ``--trace 1`` runs; this test loads
the table by path (it imports only the standard library) and resolves
each entry the same way.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    entries = [(module, attr) for _, module, attr in tracing.WRAPPED]
    entries += [("peterweyl.exact.scalars", cls + ".__init__")
                for _, cls in tracing.SCALARS]
    missing = []
    for module, attr in entries:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append("%s.%s" % (module, attr))
    assert not missing, missing
