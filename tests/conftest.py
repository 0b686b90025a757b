import sys

import pytest

import quotcoh.cli  # noqa: F401  (loads every quotcoh module)


def _quotcoh_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "quotcoh"]


@pytest.fixture
def cold_caches() -> dict:
    """Clear every functools cache bound in a quotcoh module and return
    them as {module.qualname: cached function}."""
    caches = {}
    for mod in _quotcoh_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_info"):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    for cached in caches.values():
        cached.cache_clear()
    return caches


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) replaces module.name in every quotcoh
    module that binds it with a wrapper that records each call, and returns
    the list of recorded argument tuples."""
    def install(module, name) -> list:
        calls = []
        real = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        for mod in _quotcoh_modules():
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install
