import importlib

import lltpaths
from lltpaths import cli, memo, relations
from lltpaths.coeffring import CoeffQT
from lltpaths.harmonics import nabla_e, nabla_p, survey_e_coefficients
from lltpaths.llt import chromatic, llt, orientation_e_expansion
from lltpaths.relations import recursion_evaluate, verify_bounce_A, verify_chromatic_relations
from lltpaths.schroeder import enumerate_paths
from lltpaths.symfunc import SymFunc

# every module-level table, by module
TABLES = {
    "llt": ("_WINDOW_MOVES", "_WINDOW_STATES", "_SHAPE_VALUES", "_LAYOUTS"),
    "relations": ("_RECURSION_CACHE", "_RECURSION_COEFFS", "_PACKED_VALUES", "_BOUNCE_WALKS"),
    "symfunc": ("_M_MUL_CACHE", "_TRANSITION_CACHE"),
    "partitions": ("_PARTITIONS_CACHE", "_SLOTS_CACHE", "_KOSTKA_CACHE"),
}
# the tables of combinatorial data, keyed by degree, by size bound, by partitions or by window states
COMBINATORIAL = {
    "_PARTITIONS_CACHE", "_SLOTS_CACHE", "_TRANSITION_CACHE", "_KOSTKA_CACHE", "_M_MUL_CACHE",
    "_WINDOW_MOVES", "_WINDOW_STATES", "_LAYOUTS",
}


def _tables() -> dict[str, dict]:
    return {name: vars(importlib.import_module(f"lltpaths.{module}"))[name] for module, names in TABLES.items() for name in names}


def _sweep() -> list:
    """Values from every memoized route, as plain objects."""
    out = []
    for n in range(1, 6):
        for p in enumerate_paths(n):
            out += [llt(p).convert("s").to_obj(), orientation_e_expansion(p).to_obj(), recursion_evaluate(p).to_obj()]
            if p.is_dyck():
                out.append(chromatic(p).to_obj())
    out += [verify_bounce_A(4).to_obj(), verify_chromatic_relations(4).to_obj()]
    return out


def test_clear_caches_empties_every_table_and_a_second_sweep_agrees():
    first = _sweep()
    tables = _tables()
    assert all(tables.values()), [name for name, t in tables.items() if not t]
    assert set(memo._TABLES) == set(tables)
    lltpaths.clear_caches()
    assert not any(_tables().values()), [name for name, t in _tables().items() if t]
    assert _sweep() == first


def _assert_one_object_per_value(coeffs) -> None:
    seen: dict[frozenset, CoeffQT] = {}
    for c in coeffs:
        assert seen.setdefault(frozenset(c.terms.items()), c) is c, c


def test_memo_coefficients_are_shared_objects():
    lltpaths.clear_caches()
    for n in range(1, 7):
        for p in enumerate_paths(n):
            recursion_evaluate(p)
    entries = relations._RECURSION_CACHE.values()
    _assert_one_object_per_value(c for _, f in entries for c in f.coeffs.values())
    interned = relations._RECURSION_COEFFS
    for packed, f in entries:
        assert packed.keys() == f.coeffs.keys()
        for lam, v in packed.items():
            assert f.coeffs[lam] == CoeffQT.from_packed(v, relations._WIDTH, signed=True)
            interned_int, interned_coeff = interned[v]
            assert interned_int is v and interned_coeff is f.coeffs[lam]
    assert len(interned) <= sum(len(packed) for packed, _ in entries)


def test_sweeps_that_visit_each_path_once_keep_no_value(capsys):
    lltpaths.clear_caches()
    assert cli.main(["equality", "--max-n", "5", "--json"]) == 0
    capsys.readouterr()
    nabla_e(5), survey_e_coefficients(5)
    tables = _tables()
    assert not tables["_RECURSION_CACHE"] and not tables["_PACKED_VALUES"]
    assert not [name for name in memo._TABLES if "LLT" in name or "ORIENT" in name]


def _values(obj) -> list:
    """Every CoeffQT or SymFunc inside nested dicts, tuples and lists."""
    if isinstance(obj, (CoeffQT, SymFunc)):
        return [obj]
    if isinstance(obj, dict):
        return [v for item in obj.items() for v in _values(item)]
    if isinstance(obj, (tuple, list)):
        return [v for item in obj for v in _values(item)]
    return []


def test_single_visit_sweeps_leave_only_combinatorial_tables_and_smaller_shapes(capsys):
    lltpaths.clear_caches()
    assert cli.main(["equality", "--max-n", "5", "--json"]) == 0
    capsys.readouterr()
    nabla_e(5), nabla_p(4), survey_e_coefficients(5)
    assert [name for name, t in memo._TABLES.items() if t and name not in COMBINATORIAL] == ["_SHAPE_VALUES"]
    assert not [name for name in COMBINATORIAL if _values(memo._TABLES[name])]
    # the coloring DP keeps one packed int per proper induced shape, never a
    # path of the largest size requested (those values are decoded and dropped)
    for (bound, proper), values in memo._TABLES["_SHAPE_VALUES"].items():
        assert bound == 7 and proper is False
        assert all(type(word) is str and type(value) is int for word, value in values.items())
        assert max(len(word) - word.count("e") for word in values) == 4
