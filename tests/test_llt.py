import itertools
import random
import sys
import threading

import pytest

from lltpaths import clear_caches
from lltpaths.coeffring import CoeffQT
from lltpaths.errors import BoundExceeded, HasDiagonal, InvalidArgument, InvalidColoring, SizeMismatch
from lltpaths.llt import (
    FREE,
    PROPER,
    STRICT,
    Orientation,
    _block_sizes,
    _first_classes,
    _hrv_labels,
    _lower_neighbors,
    _upward_edges,
    asc_coloring,
    asc_orientation,
    chromatic,
    coloring_backtrack,
    coloring_weight_split,
    content_coefficient,
    hrv,
    lambda_theta,
    llt,
    llt_via_orientations,
    orientation_e_expansion,
    orientations,
    swap_coloring,
)
from lltpaths.partitions import DEGREE_BOUND, partitions_of
from lltpaths.schroeder import area, bounce_at, enumerate_paths, graph, parse, reverse
from lltpaths.symfunc import SymFunc

Q = CoeffQT.q()
ONE = CoeffQT.one()


def test_asc_coloring_worked_example():
    g = graph(parse("nndnnenedeee"))
    kappa = (4, 2, 5, 1, 3, 1, 2)
    assert asc_coloring(g, kappa) == 4


def test_asc_coloring_degenerate():
    g = graph(parse("nnee"))
    assert asc_coloring(g, (1, 1)) == 0
    assert asc_coloring(g, (2, 1)) == 0
    g = graph(parse("nde"))
    with pytest.raises(InvalidColoring):
        asc_coloring(g, (2, 1))


def test_llt_examples():
    assert llt(parse("nde")).convert("e").coeffs == {(2,): ONE}
    assert llt(parse("nnee")).convert("e").coeffs == {(1, 1): ONE, (2,): Q - 1}
    assert llt(parse("nndee")).convert("s").coeffs == {(1, 1, 1): Q * Q, (2, 1): Q}


def test_llt_initial_condition():
    for k in range(0, 6):
        f = llt(parse("n" + "d" * k + "e")).convert("e")
        assert f.coeffs == {(k + 1,): ONE}


def test_orientation_counts():
    assert len(orientations(parse("ndde"))) == 1
    assert len(orientations(parse("nnee"))) == 2
    assert len(orientations(parse("nndee"))) == 4
    for n in range(1, 5):
        for p in enumerate_paths(n):
            assert len(orientations(p)) == 2 ** area(p)


def test_hrv_and_lambda_worked_example():
    g = graph(parse("nnnddeneee"))
    ascending = {(1, 3), (2, 3), (2, 4), (3, 4), (5, 6)}
    directed = set()
    for edge in g.edges:
        if edge in g.strict or edge in ascending:
            directed.add(edge)
        else:
            directed.add((edge[1], edge[0]))
    theta = Orientation(frozenset(directed))
    assert asc_orientation(g, theta) == 5
    assert {u: hrv(g, theta, u) for u in range(1, 7)} == {
        1: 4, 2: 6, 3: 4, 4: 4, 5: 6, 6: 6,
    }
    assert lambda_theta(g, theta) == (3, 3)


def test_hrv_trivia():
    # the top vertex of n d^k e is reachable from every other vertex
    g = graph(parse("ndde"))
    theta = orientations(parse("ndde"))[0]
    assert lambda_theta(g, theta) == (3,)
    assert all(hrv(g, theta, u) == 3 for u in (1, 2, 3))
    g = graph(parse("nnee"))
    down = Orientation(frozenset({(2, 1)}))
    assert hrv(g, down, 1) == 1
    assert lambda_theta(g, down) == (1, 1)
    assert hrv(g, down, 2) == 2


def test_orientation_e_expansion_examples():
    assert orientation_e_expansion(parse("nndee")).coeffs == {
        (3,): Q * Q + Q,
        (2, 1): Q + 1,
    }
    assert orientation_e_expansion(parse("ndde")).coeffs == {(3,): ONE}
    assert orientation_e_expansion(parse("nnee")).coeffs == {(1, 1): ONE, (2,): Q}


def test_llt_via_orientations_examples():
    assert llt_via_orientations(parse("nnee")).coeffs == {(1, 1): ONE, (2,): Q - 1}
    assert llt_via_orientations(parse("nndee")).coeffs == {
        (2, 1): Q,
        (3,): Q * Q - Q,
    }
    # multiplicativity across the diagonal return
    f = llt_via_orientations(parse("nene"))
    g = llt_via_orientations(parse("ne"))
    assert f == g * g


def test_main_identity_small():
    for n in range(1, 6):
        for p in enumerate_paths(n):
            lhs = llt(p).shift_q(1).convert("e")
            assert lhs == orientation_e_expansion(p), p.word


def test_positivity_of_orientation_expansion():
    for n in range(1, 6):
        for p in enumerate_paths(n):
            for c in orientation_e_expansion(p).coeffs.values():
                assert c.is_nonneg() and c.is_integral()


def test_reverse_invariance_small():
    for n in range(1, 6):
        for p in enumerate_paths(n):
            assert llt(p) == llt(reverse(p)), p.word


def test_omega_relation_small():
    for n in range(1, 5):
        for p in enumerate_paths(n, dyck_only=True):
            lhs = llt(p).omega()
            rhs = llt(p).map_coeffs(
                lambda c: c.subst_q_reciprocal() * CoeffQT.q(area(p))
            )
            assert lhs == rhs, p.word


def test_q_degree_bounded_by_area():
    for n in range(1, 6):
        for p in enumerate_paths(n):
            top = max(
                (c.q_degree() or 0) for c in llt(p).coeffs.values()
            )
            assert top <= area(p)


def test_chromatic_examples():
    assert chromatic(parse("nnee")).convert("e").coeffs == {(2,): Q + 1}
    assert chromatic(parse("ne")).convert("e").coeffs == {(1,): ONE}
    with pytest.raises(HasDiagonal):
        chromatic(parse("nde"))


def test_chromatic_of_edgeless_graph():
    # nene has an edgeless graph, so every coloring is proper and the
    # chromatic function is e_1 squared
    f = chromatic(parse("nene")).convert("e")
    assert f.coeffs == {(1, 1): ONE}
    # multiplicativity on the concatenation ne.ne
    assert f == chromatic(parse("ne")).convert("e") * chromatic(parse("ne")).convert("e")


def test_the_empty_path_has_one_empty_coloring():
    # no first colour class exists, so the value is the empty shape's own
    empty = SymFunc("m", {(): ONE})
    clear_caches()
    assert llt(parse("")) == empty and chromatic(parse("")) == empty
    llt(parse("nnee")), chromatic(parse("nnee"))
    assert llt(parse("")) == empty and chromatic(parse("")) == empty
    assert llt(parse(""), bound=0) == empty == chromatic(parse(""), bound=0)


def test_plethystic_bridge_small():
    for n in range(1, 5):
        divisor = (Q - 1) ** n
        for p in enumerate_paths(n, dyck_only=True):
            lhs = llt(p).pleth_q_minus_1().map_coeffs(
                lambda c: c.exact_div(divisor)
            )
            assert lhs == chromatic(p), p.word


def test_chromatic_from_orientation_route():
    # X_P = sum over orientations of (q-1)^(asc - n) e_lambda[x(q-1)]
    for n in range(1, 5):
        divisor = (Q - 1) ** n
        for p in enumerate_paths(n, dyck_only=True):
            rhs = llt_via_orientations(p).pleth_q_minus_1().map_coeffs(
                lambda c: c.exact_div(divisor)
            )
            assert rhs.equals(chromatic(p)), p.word


def test_swap_coloring():
    g = graph(parse("nnee"))
    assert swap_coloring(g, (1, 2), 1, 2) == (2, 1)
    assert swap_coloring(g, (3, 3), 1, 2) == (3, 3)
    assert swap_coloring(g, swap_coloring(g, (1, 2), 1, 2), 1, 2) == (1, 2)
    with pytest.raises(ValueError):
        swap_coloring(g, (1, 2), 1, 3)


def test_swap_coloring_refuses_a_vertex_outside_the_graph():
    g = graph(parse("nndee"))
    for x in (0, 3):  # x = 0 would swap the first and last colours
        with pytest.raises(InvalidArgument):
            swap_coloring(g, (1, 2, 3), x, x + 1)


def test_swap_coloring_refuses_a_coloring_of_the_wrong_length():
    g = graph(parse("nnneee"))
    for kappa in ((1,), (1, 2, 3, 4)):
        with pytest.raises(InvalidColoring):
            swap_coloring(g, kappa, 1, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: swap_coloring(graph(parse("nnee")), (1, 2), 1, 3),
        lambda: bounce_at(parse("nnee"), (0, 2)),
        lambda: SymFunc("x", {(1,): 1}),
        lambda: SymFunc("e", {(1, 2): 1}),
        lambda: SymFunc("e", {(1,): 1}).convert("x"),
        lambda: Q ** -1,
    ],
    ids=["swap_coloring", "bounce_at", "SymFunc basis", "SymFunc key", "convert", "CoeffQT pow"],
)
def test_bad_arguments_raise_the_package_error(call):
    with pytest.raises(InvalidArgument):
        call()


def test_hrv_refuses_a_vertex_outside_the_graph():
    g = graph(parse("nndee"))
    theta = orientations(parse("nndee"))[0]
    for u in (-1, 0, 4):
        with pytest.raises(InvalidArgument):
            hrv(g, theta, u)


def test_coloring_weight_split_refuses_x_outside_1_to_n_minus_1():
    for x in (0, 2, -1):  # x = 0 compared the unused colors[0]; x = 2 indexed past the end
        with pytest.raises(InvalidArgument):
            coloring_weight_split(parse("nnee"), x)


def test_swap_map_law():
    # on every admissible instance the colorings with kappa(x) < kappa(x+1)
    # carry exactly one more ascent than their swaps
    checked = 0
    for n in range(2, 6):
        for p in enumerate_paths(n):
            for (x, z) in p.points():
                if not (1 <= x < z):
                    continue
                data = bounce_at(p, (x, z))
                if data.decomposition is None or len(data.bounce_points) != 1:
                    continue
                _, s12, _, s34, _ = data.decomposition
                if s12 != "nn" or s34 != "ee":
                    continue
                lower, upper = coloring_weight_split(p, x)
                assert set(lower) == set(upper)
                for content in lower:
                    lo = CoeffQT({(a, 0): c for a, c in lower[content].items()})
                    up = CoeffQT({(a, 0): c for a, c in upper[content].items()})
                    assert lo == up * Q, (p.word, x, content)
                checked += 1
    assert checked > 20


def test_symmetry_self_check():
    # m-coefficients agree between the canonical and the reversed content
    for n in range(1, 6):
        for p in enumerate_paths(n):
            for lam in partitions_of(n):
                assert content_coefficient(p, lam) == content_coefficient(
                    p, tuple(reversed(lam))
                ), (p.word, lam)


def _brute_force_tally(p, keep):
    """Ascent polynomial of every coloring in [n]^n that keep() accepts, by content vector."""
    g = graph(p)
    n = p.size
    out: dict[tuple[int, ...], CoeffQT] = {}
    for kappa in itertools.product(range(1, n + 1), repeat=n):
        if not keep(g, kappa):
            continue
        try:
            asc = asc_coloring(g, kappa)
        except InvalidColoring:
            continue
        content = tuple(kappa.count(c) for c in range(1, n + 1))
        out[content] = out.get(content, CoeffQT.zero()) + Q ** asc
    return out


def _assert_matches_m_expansion(tally, f, word):
    # a symmetric function has the same coefficient at every rearrangement
    # of a content, so each brute-force content must match its sorted form
    for content, poly in tally.items():
        lam = tuple(sorted((c for c in content if c), reverse=True))
        assert f.coeffs.get(lam) == poly, (word, content)
    canonical = {lam for lam in f.coeffs}
    seen = {tuple(c for c in content if c) for content in tally}
    assert canonical <= seen, word


def test_llt_matches_brute_force_colorings():
    for n in range(1, 5):
        for p in enumerate_paths(n):
            tally = _brute_force_tally(p, lambda g, kappa: True)
            _assert_matches_m_expansion(tally, llt(p), p.word)


def test_chromatic_matches_brute_force_proper_colorings():
    def proper(g, kappa):
        return all(kappa[x - 1] != kappa[y - 1] for (x, y) in g.edges)

    for n in range(1, 5):
        for p in enumerate_paths(n, dyck_only=True):
            tally = _brute_force_tally(p, proper)
            _assert_matches_m_expansion(tally, chromatic(p), p.word)


def _highest_reachable(theta, u):
    """Largest vertex reachable from u along the upward edges of theta, by graph search."""
    seen, stack = {u}, [u]
    while stack:
        a = stack.pop()
        for (x, y) in theta.directed:
            if x == a and x < y and y not in seen:
                seen.add(y)
                stack.append(y)
    return max(seen)


def test_orientation_sum_matches_explicit_orientations():
    for n in range(1, 6):
        for p in enumerate_paths(n):
            g = graph(p)
            total = SymFunc.zero("e")
            for theta in orientations(p):
                labels = [_highest_reachable(theta, u) for u in range(1, n + 1)]
                assert [hrv(g, theta, u) for u in range(1, n + 1)] == labels, (p.word, theta)
                lam = tuple(sorted((labels.count(b) for b in set(labels)), reverse=True))
                assert lambda_theta(g, theta) == lam, (p.word, theta)
                total = total + SymFunc.basis_element("e", lam, Q ** asc_orientation(g, theta))
            assert total == orientation_e_expansion(p), p.word


# The dynamic programs behind llt, chromatic and orientation_e_expansion are
# checked on every path of size <= 6 against the per-coloring backtrack and a
# loop over every orientation mask.


def _q_tally(tally):
    return CoeffQT({(a, 0): c for a, c in tally.items()})


def _backtrack_coefficient(lower, lam):
    tally = {}

    def leaf(colors, asc):
        tally[asc] = tally.get(asc, 0) + 1

    coloring_backtrack(lower, lam, leaf)
    return _q_tally(tally)


def test_lower_neighbors_read_the_edges_of_the_decorated_graph():
    # graph() builds the edge sets on its own, so it is the reference for the kernels' lists
    for n in range(1, 8):
        for p in enumerate_paths(n):
            g = graph(p)
            want = [[] for _ in range(n + 1)]
            for (u, v) in sorted(g.edges):
                want[v].append((u, STRICT if (u, v) in g.strict else FREE))
            assert _lower_neighbors(p) == want, p.word
            assert _lower_neighbors(p, proper=True) == [[(u, PROPER) for u, _ in nbrs] for nbrs in want], p.word


def test_content_coefficient_refuses_a_content_that_is_not_a_weak_composition_of_the_size():
    with pytest.raises(SizeMismatch):
        content_coefficient(parse("ne"), (2,))  # x_1^2 has degree 2, the path size 1
    for content in ((-1, 3), (0.5, 1.5)):
        with pytest.raises(InvalidArgument):
            content_coefficient(parse("nnee"), content)
    assert content_coefficient(parse("nnee"), (0, 2)) == content_coefficient(parse("nnee"), (2,)) == ONE


def test_llt_matches_the_backtrack_on_every_content():
    for n in range(1, 7):
        for p in enumerate_paths(n):
            f = llt(p)
            for lam in partitions_of(n):
                assert f.coeffs.get(lam, CoeffQT.zero()) == content_coefficient(p, lam), (p.word, lam)


def test_chromatic_matches_the_backtrack_with_proper_edges():
    for n in range(1, 7):
        for p in enumerate_paths(n, dyck_only=True):
            lower = _lower_neighbors(p, proper=True)
            f = chromatic(p)
            for lam in partitions_of(n):
                assert f.coeffs.get(lam, CoeffQT.zero()) == _backtrack_coefficient(lower, lam), (p.word, lam)


def _orientation_mask_loop(p):
    """The orientation sum by labelling every mask of the non-strict edges."""
    free, strict_up, free_up = _upward_edges(graph(p))
    tally = {}
    for mask in range(1 << len(free)):
        inner = tally.setdefault(_block_sizes(_hrv_labels(strict_up, free_up, mask)), {})
        asc = bin(mask).count("1")
        inner[asc] = inner.get(asc, 0) + 1
    return SymFunc("e", {lam: _q_tally(inner) for lam, inner in tally.items()})


def test_orientation_sum_matches_the_mask_loop():
    for n in range(1, 7):
        for p in enumerate_paths(n):
            assert orientation_e_expansion(p) == _orientation_mask_loop(p), p.word


def _assert_shared_tables_cannot_change(values, want, fill) -> None:
    """values() gives want from empty tables, after fill() ran, and in four threads that fill them from empty."""
    clear_caches()
    assert values() == want
    clear_caches()
    fill()
    assert values() == want
    clear_caches()
    got = [None] * 4

    def sweep(i):
        got[i] = values()

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so their inserts interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * len(got)


def test_the_shared_window_moves_cannot_change_a_value():
    # every path shares the orientation DP's move table, so a value must not
    # depend on what filled it: cold, after a larger shuffled sweep, or while
    # other threads fill it from cold
    paths = [p for n in range(1, 7) for p in enumerate_paths(n)]
    larger = [p for n in range(1, 8) for p in enumerate_paths(n)]
    random.Random(21).shuffle(larger)
    _assert_shared_tables_cannot_change(
        lambda: [orientation_e_expansion(p) for p in paths],
        [_orientation_mask_loop(p) for p in paths],
        lambda: [orientation_e_expansion(p) for p in larger],
    )


def _word_from_tops(tops):
    """The path word whose column c reaches tops[c - 1] = (top, strict), c = 1..n."""
    word, height = [], 0
    for top, strict in tops:
        word.append("n" * (top - height - strict) + ("d" if strict else "e"))
        height = top
    return "".join(word)


def _relabelled(pairs, kept):
    rank = {v: i for i, v in enumerate(kept, start=1)}
    return {(rank[x], rank[y]) for (x, y) in pairs if x in rank and y in rank}


def test_induced_subgraphs_are_the_graphs_of_smaller_paths():
    # every vertex set R of the graph of P induces the graph of a path:
    # vertex u of R reaches the vertices of R up to top[u], and keeps its strict
    # edge iff top[u] is in R; the first colour classes are the sets B of
    # vertices with no strict lower neighbour (pairwise apart for chromatic), and
    # _first_classes gives the induced word of the rest and the ascents of B
    for n in range(1, 7):
        for p in enumerate_paths(n):
            g, tops = graph(p), p.column_tops()
            heads = {top for top, strict in tops.values() if strict}
            expected = {False: [], True: []}
            for mask in range(1 << n):
                kept = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
                word = _word_from_tops([(sum(1 for w in kept if w <= tops[u][0]), tops[u][1] and tops[u][0] in kept) for u in kept])
                rest = graph(parse(word))
                assert rest.n == len(kept), (p.word, kept)
                assert rest.edges == _relabelled(g.edges, kept) and rest.strict == _relabelled(g.strict, kept), (p.word, kept)
                chosen = set(range(1, n + 1)) - set(kept)
                if chosen & heads:
                    continue
                asc = sum(1 for (x, y) in g.edges - g.strict if x in chosen and y not in chosen)
                expected[False].append((word, asc, len(chosen)))
                if p.is_dyck() and not any(x in chosen and y in chosen for (x, y) in g.edges):
                    expected[True].append((word, asc, len(chosen)))
            # the empty class, which keeps every vertex, is listed too, and a cap
            # leaves out exactly the larger classes
            for cap in range(n + 1):
                for proper in (False, True) if p.is_dyck() else (False,):
                    want = sorted(c for c in expected[proper] if c[2] <= cap)
                    assert sorted(_first_classes(p.word, proper, cap)) == want, (p.word, proper, cap)


def test_the_shared_shape_values_cannot_change_a_value():
    # llt and chromatic read the values of smaller shapes from one table, so a
    # value must not depend on what filled it: each path computed from an
    # empty table is the reference
    paths = [p for n in range(1, 7) for p in enumerate_paths(n)]

    def values():
        return [(llt(p), chromatic(p) if p.is_dyck() else None) for p in paths]

    want = []
    for p in paths:
        clear_caches()
        want.append((llt(p), chromatic(p) if p.is_dyck() else None))
    larger = [p for n in range(1, 8) for p in enumerate_paths(n)]
    random.Random(23).shuffle(larger)
    _assert_shared_tables_cannot_change(
        values, want, lambda: [(llt(p), chromatic(p) if p.is_dyck() else None) for p in larger]
    )


def test_a_bound_above_the_degree_bound_builds_no_larger_layout(monkeypatch):
    # the layout is clipped at DEGREE_BOUND, so a large bound on a small path
    # asks for no partitions above it
    llt_module, partitions_module = sys.modules["lltpaths.llt"], sys.modules["lltpaths.partitions"]
    asked = []
    original = partitions_module.partitions_of

    def spy(n, *args, **kwargs):
        asked.append(n)
        return original(n, *args, **kwargs)

    monkeypatch.setattr(partitions_module, "partitions_of", spy)
    monkeypatch.setattr(llt_module, "partitions_of", spy)
    clear_caches()
    assert llt(parse("ne"), bound=20) == SymFunc("m", {(1,): ONE})
    assert chromatic(parse("nnee"), bound=20) == chromatic(parse("nnee"))
    assert asked and max(asked) <= DEGREE_BOUND
    with pytest.raises(BoundExceeded):
        llt(parse("n" * 13 + "e" * 13), bound=13)


def test_orientation_route_is_bounded_by_size():
    p = parse("ndenenndeennee")
    assert p.size == 8
    with pytest.raises(BoundExceeded):
        orientation_e_expansion(p)
    with pytest.raises(BoundExceeded):
        llt_via_orientations(p)
    assert orientation_e_expansion(p, bound=8) == _orientation_mask_loop(p)
    assert llt_via_orientations(p, bound=8) == llt(p, bound=8).convert("e")


def test_a_cached_size_8_value_is_still_refused_at_the_default_bound():
    p, q = parse("ndenenndeennee"), parse("nnnnnnnneeeeeeee")
    assert p.size == q.size == 8
    llt(p, bound=8)
    chromatic(q, bound=8)
    with pytest.raises(BoundExceeded):
        llt(p)
    with pytest.raises(BoundExceeded):
        chromatic(q)


def test_orientations_refuse_area_17():
    p = parse("nnnennnneeeeee")
    assert area(p) == 17
    with pytest.raises(BoundExceeded):
        orientations(p)


def test_llt_and_chromatic_match_the_backtrack_at_size_8():
    # wider digits (8! needs 16 bits) and wider slots than the oracles above reach
    for word in ("n" * 8 + "e" * 8, "n" * 7 + "d" + "e" * 7, "nnndnnndeeeeee"):
        p = parse(word)
        f = llt(p, bound=8)
        for lam in partitions_of(8):
            assert f.coeffs.get(lam, CoeffQT.zero()) == content_coefficient(p, lam, bound=8), (word, lam)
    p = parse("n" * 8 + "e" * 8)
    lower = _lower_neighbors(p, proper=True)
    f = chromatic(p, bound=8)
    for lam in partitions_of(8):
        assert f.coeffs.get(lam, CoeffQT.zero()) == _backtrack_coefficient(lower, lam), lam


def test_backtrack_entry_points_refuse_a_large_size_before_any_work(monkeypatch):
    llt_module = sys.modules["lltpaths.llt"]  # the package exports the function llt under the same name

    def fail(*args):
        raise AssertionError("the guard let work begin")

    monkeypatch.setattr(llt_module, "coloring_backtrack", fail)
    monkeypatch.setattr(llt_module, "_lower_neighbors", fail)
    flat = parse("ne" * 8)  # size 8, no area: n^n colorings
    assert flat.size == 8 and area(flat) == 0
    with pytest.raises(BoundExceeded):
        content_coefficient(flat, (8,))
    with pytest.raises(BoundExceeded):
        coloring_weight_split(flat, 1)
    small = parse("nnee")
    with pytest.raises(BoundExceeded):
        content_coefficient(small, (2,), bound=1)
    with pytest.raises(BoundExceeded):
        coloring_weight_split(small, 1, bound=1)
