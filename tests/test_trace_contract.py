"""The names the perfbench layer trace wraps and reads must exist.

`perfbench/layertrace.py` finds the functions of `TRACED` and the caches of
`CACHES` by name; a renamed or deleted one only shows up as an entry of the
run record's "missing" list.  This test loads the file without changing it
and checks every name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace_contract", ROOT / "perfbench" / "layertrace.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(dotted):
    module, name = dotted.split(".")
    return getattr(importlib.import_module("planarops." + module), name, None)


def test_every_traced_function_exists():
    traced = ["%s.%s" % (m, f) for m, fns in _layertrace().TRACED.items()
              for f in fns]
    assert traced
    assert [t for t in traced if not callable(_resolve(t))] == []


def test_every_listed_cache_is_an_lru_cache():
    caches = _layertrace().CACHES
    assert caches
    assert [c for c in caches if not hasattr(_resolve(c), "cache_info")] == []
