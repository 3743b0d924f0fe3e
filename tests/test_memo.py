import importlib

import lltpaths
from lltpaths import cli, memo, relations
from lltpaths.coeffring import CoeffQT, shared_packed
from lltpaths.harmonics import nabla_e, survey_e_coefficients
from lltpaths.llt import chromatic, llt, orientation_e_expansion
from lltpaths.relations import recursion_evaluate, verify_bounce_A, verify_chromatic_relations
from lltpaths.schroeder import area, enumerate_paths

# every module-level table, by module
TABLES = {
    "llt": ("_CHROMATIC_CACHE",),
    "relations": ("_RECURSION_CACHE", "_PACKED_VALUES", "_BOUNCE_WALKS"),
    "symfunc": ("_M_MUL_CACHE", "_TRANSITION_CACHE"),
    "partitions": ("_PARTITIONS_CACHE", "_SLOTS_CACHE", "_KOSTKA_CACHE"),
    "coeffring": ("_SHARED_COEFFS",),
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
    paths = [p for n in range(1, 7) for p in enumerate_paths(n)]
    # llt and orientation_e_expansion keep no value, so the test holds them
    values = [(p, llt(p), orientation_e_expansion(p), recursion_evaluate(p)) for p in paths]
    # the digit width of a read-back is fixed per size for the colorings, per
    # area for the orientations and once for the evaluator; within it equal
    # coefficients are one object
    for n in range(1, 7):
        _assert_one_object_per_value(c for p, f, _, _ in values if p.size == n for c in f.coeffs.values())
    for a in {area(p) for p in paths}:
        _assert_one_object_per_value(c for p, _, g, _ in values if area(p) == a for c in g.coeffs.values())
    entries = relations._RECURSION_CACHE.values()
    _assert_one_object_per_value(c for _, f in entries for c in f.coeffs.values())
    for packed, f in entries:
        assert packed.keys() == f.coeffs.keys()
        for lam, v in packed.items():
            assert f.coeffs[lam] == CoeffQT.from_packed(v, relations._WIDTH, signed=True)
            shared_int, shared_coeff = shared_packed(v, relations._WIDTH, True)
            assert shared_int is v and shared_coeff is f.coeffs[lam]
    tables = _tables()
    held = sum(len(f.coeffs) + len(g.coeffs) for _, f, g, _ in values)
    held += sum(len(packed) for packed, _ in entries)
    assert len(tables["_SHARED_COEFFS"]) <= held


def test_sweeps_that_visit_each_path_once_keep_no_value(capsys):
    lltpaths.clear_caches()
    assert cli.main(["equality", "--max-n", "5", "--json"]) == 0
    capsys.readouterr()
    nabla_e(5), survey_e_coefficients(5)
    tables = _tables()
    assert not tables["_CHROMATIC_CACHE"] and not tables["_RECURSION_CACHE"] and not tables["_PACKED_VALUES"]
    assert not [name for name in memo._TABLES if "LLT" in name or "ORIENT" in name]
