import pytest

from lltpaths.errors import (
    BelowDiagonal,
    BoundExceeded,
    DiagonalOnMainDiagonal,
    HasDiagonal,
    InvalidArgument,
    InvalidStep,
    PointNotOnPath,
    SizeMismatch,
)
from lltpaths.schroeder import (
    SchroederPath,
    _decomposition,
    area,
    bounce_at,
    dyck_star,
    enumerate_paths,
    graph,
    haglund_bounce,
    nu_alpha,
    p_mu,
    parse,
    reverse,
)


def test_parse():
    assert parse("nde").size == 2
    assert parse("ne").size == 1
    with pytest.raises(DiagonalOnMainDiagonal):
        parse("d")
    with pytest.raises(DiagonalOnMainDiagonal):
        parse("nede")
    with pytest.raises(BelowDiagonal):
        parse("en")
    with pytest.raises(BelowDiagonal):
        parse("n")  # does not end on the diagonal
    with pytest.raises(InvalidStep):
        parse("nxe")


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 11), (4, 45), (5, 197)])
def test_enumerate_counts(n, count):
    assert len(enumerate_paths(n)) == count


def test_enumerate_dyck_subset():
    paths = enumerate_paths(3)
    assert sum(1 for p in paths if p.is_dyck()) == 5
    assert len(enumerate_paths(3, dyck_only=True)) == 5
    with pytest.raises(BoundExceeded):
        enumerate_paths(9)
    for dyck_only in (False, True):
        with pytest.raises(InvalidArgument):
            enumerate_paths(-1, dyck_only=dyck_only)


def test_reverse():
    assert reverse(parse("ne")).word == "ne"
    assert reverse(parse("nnee")).word == "nnee"
    assert reverse(parse("nende")).word == "ndene"
    for n in range(1, 7):
        for p in enumerate_paths(n):
            assert reverse(reverse(p)) == p


def test_graph_worked_example():
    g = graph(parse("nndnnenedeee"))
    assert g.n == 7
    assert g.strict == frozenset({(1, 3), (4, 7)})
    assert len(g.edges) == 14
    g.validate()


def test_graph_small():
    g = graph(parse("nde"))
    assert g.edges == frozenset({(1, 2)}) and g.strict == frozenset({(1, 2)})
    g = graph(parse("nnee"))
    assert g.edges == frozenset({(1, 2)}) and not g.strict
    # n d^k e is a path graph with every edge strict
    for k in range(0, 5):
        g = graph(parse("n" + "d" * k + "e"))
        assert g.edges == g.strict == frozenset((i, i + 1) for i in range(1, k + 1))


def test_graph_unit_interval_and_strict_count():
    for n in range(1, 7):
        for p in enumerate_paths(n):
            g = graph(p)
            g.validate()
            assert len(g.strict) == p.word.count("d")


def test_area():
    assert area(parse("nndnnenedeee")) == 12
    assert area(parse("ndde")) == 0
    assert area(parse("nnee")) == 1


def test_bounce_worked_example():
    data = bounce_at(parse("nnddndeee"), (3, 6))
    assert data.partition == (6, 3, 1, 0)
    assert data.bounce_points == ((3, 3), (1, 1))
    assert data.decomposition == ("", "nn", "ddn", "de", "ee")
    assert data.reassembled() == "nnddndeee"
    data = bounce_at(parse("ndndndeee"), (3, 6))
    assert data.decomposition == ("nd", "nd", "n", "de", "ee")
    assert data.bounce_points == ((3, 3),)


def test_bounce_small_cases():
    # start adjacent to the diagonal: single bounce point, empty V
    data = bounce_at(parse("nnee"), (1, 2))
    assert data.bounce_points == ((1, 1),)
    assert data.decomposition == ("", "nn", "", "ee", "")
    data = bounce_at(parse("nndee"), (1, 3))
    assert data.decomposition == ("", "nn", "", "de", "e")
    with pytest.raises(PointNotOnPath):
        bounce_at(parse("nnee"), (1, 3))
    with pytest.raises(ValueError):
        bounce_at(parse("nenene"), (1, 1))


def test_bounce_reassembly_everywhere():
    for n in range(1, 7):
        for p in enumerate_paths(n):
            for (x, z) in p.points():
                if not (1 <= x < z):
                    continue
                data = bounce_at(p, (x, z))
                parts = data.partition
                assert list(parts) == sorted(set(parts), reverse=True), (p.word, x, z)
                if data.decomposition is not None:
                    assert data.reassembled() == p.word
                    # the cut the relation suites share, at the two indices
                    assert _decomposition(p.word, data.end_index, data.start_index) == data.decomposition
                if z > x + 1:
                    assert data.decomposition is not None, (p.word, x, z)


def test_dyck_star():
    assert dyck_star(parse("nnee")).word == "nnee"
    assert dyck_star(parse("nene")).word == "nde"
    assert dyck_star(parse("nenene")).word == "ndde"
    with pytest.raises(HasDiagonal):
        dyck_star(parse("nde"))
    for n in range(1, 7):
        for p in enumerate_paths(n, dyck_only=True):
            star = dyck_star(p)
            assert star.size == p.size
            corners = sum(
                1 for i in range(len(p.word) - 1) if p.word[i : i + 2] == "en"
            )
            assert len(graph(star).strict) == corners


def test_p_mu():
    assert p_mu((1, 1)).word == "nde"
    assert p_mu((2,)).word == "nnee"
    assert p_mu((2, 1)).word == "nnede"
    assert p_mu((3, 2)).word == "nnneddee"
    for mu in [(1,), (2, 2), (3, 1, 1), (2, 2, 1)]:
        assert p_mu(mu).size == sum(mu)
    with pytest.raises(ValueError):
        p_mu(())


@pytest.mark.parametrize("mu", [(2.0, 1), (2, 1.0), (3, 0), (2, -1), (True,), (1, 2)])
def test_p_mu_refuses_a_part_that_is_not_a_positive_int(mu):
    with pytest.raises(InvalidArgument):
        p_mu(mu)


@pytest.mark.parametrize("alpha", [(2, -1, 2), (3, -1, 1), (1.0, 1), (2, 0.0), (True, 1)])
def test_nu_alpha_refuses_a_part_that_is_not_a_nonnegative_int(alpha):
    with pytest.raises(InvalidArgument):
        nu_alpha(alpha)


def test_nu_alpha_of_the_empty_composition_is_the_empty_path():
    # the one weak composition of 0 into 0 parts, as enumerate_paths(0) has the one empty path
    assert nu_alpha(()) == (parse(""), 0, 0)
    assert enumerate_paths(0) == [parse("")]


def test_nu_alpha_worked_example():
    path, area_alpha, below = nu_alpha((0, 3, 1, 0, 2, 0))
    assert path.word == "nnndedede"
    assert area_alpha == 8
    assert below == 1


def test_nu_alpha_edge_cases():
    path, area_alpha, below = nu_alpha((1, 1, 1, 1))
    assert area_alpha == 0 and below == 0
    _, _, below = nu_alpha((4, 0, 0, 0))
    assert below == 0
    with pytest.raises(SizeMismatch):
        nu_alpha((2, 1))


def test_nu_alpha_path_has_matching_graph():
    # the attack rule and the emitted word must describe the same graph
    from lltpaths.partitions import weak_compositions

    for n in range(1, 5):
        for alpha in weak_compositions(n, n):
            path, _, _ = nu_alpha(alpha)
            assert path.size == n
            graph(path).validate()


def test_haglund_bounce():
    assert haglund_bounce(parse("ne")) == 0
    assert haglund_bounce(parse("nnee")) == 0
    assert haglund_bounce(parse("nene")) == 1
    assert haglund_bounce(parse("nenene")) == 3
    assert haglund_bounce(parse("nnneee")) == 0
    with pytest.raises(HasDiagonal):
        haglund_bounce(parse("nde"))
