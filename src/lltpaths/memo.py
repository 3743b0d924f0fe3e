"""The registry of the module-level memo tables.

Every module that memoizes builds its tables with `table`, so one call to
`clear_caches` empties them all.  A table is a plain dict; the modules
read and fill it directly.
"""

from __future__ import annotations

_TABLES: dict[str, dict] = {}


def table(name: str) -> dict:
    """A new empty memo table, registered under `name` (the variable that holds it)."""
    out: dict = {}
    _TABLES[name] = out
    return out


def clear_caches() -> None:
    """Empty every registered table.

    Afterwards every table is empty, the evaluator's intern table among
    them, so no coefficient it interned outlives the memo entries that
    share it.
    """
    for t in _TABLES.values():
        t.clear()
