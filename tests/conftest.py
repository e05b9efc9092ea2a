import sys

import pytest


def clear_package_caches():
    """Clear every functools.lru_cache that a planarops module binds."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("planarops.") or mod is None:
            continue
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and \
                    getattr(obj, "__module__", "").startswith("planarops."):
                obj.cache_clear()


@pytest.fixture
def fresh_caches():
    """Every package cache empty when the test starts and when it ends, so a
    mutant neither meets images memoized before it nor leaves its own
    behind; the test may call the returned function to clear them again."""
    clear_package_caches()
    yield clear_package_caches
    clear_package_caches()
