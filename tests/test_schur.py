from lltpaths.coeffring import CoeffQT
from lltpaths.llt import llt
from lltpaths.schur import (
    alpha_of_sigma,
    elw_schur,
    inverse_ascent_set,
    kostka_schur,
    permutation_colorings,
)
from lltpaths.partitions import conjugate, dominates, kostka, partitions_of
from lltpaths.schroeder import enumerate_paths, parse

Q = CoeffQT.q()
ONE = CoeffQT.one()


def test_permutation_colorings_nndee():
    # three of six permutations satisfy the strict edge (1,3)
    assert sorted(permutation_colorings(parse("nndee"))) == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
    ]


def test_inverse_ascent_and_alpha():
    assert inverse_ascent_set((1, 2, 3)) == {1, 2}
    assert alpha_of_sigma((1, 2, 3)) == (1, 1, 1)
    assert inverse_ascent_set((2, 1, 3)) == {2}
    assert alpha_of_sigma((2, 1, 3)) == (2, 1)
    assert inverse_ascent_set((1, 3, 2)) == {1}
    assert alpha_of_sigma((1, 3, 2)) == (1, 2)


def test_elw_schur_worked_example():
    # the (1,2)-composition term vanishes under straightening
    f = elw_schur(parse("nndee"))
    assert f.coeffs == {(1, 1, 1): Q * Q, (2, 1): Q}


def test_elw_schur_column():
    for k in range(0, 5):
        f = elw_schur(parse("n" + "d" * k + "e"))
        assert f.coeffs == {(1,) * (k + 1): ONE}


def test_kostka_schur_worked_example():
    f = kostka_schur(parse("nndee"))
    assert f.coeffs == {(1, 1, 1): Q * Q, (2, 1): Q}


def test_kostka_schur_column():
    for k in range(0, 5):
        f = kostka_schur(parse("n" + "d" * k + "e"))
        assert f.coeffs == {(1,) * (k + 1): ONE}


def test_triple_agreement_small():
    for n in range(1, 5):
        for p in enumerate_paths(n):
            a = elw_schur(p)
            b = kostka_schur(p)
            c = llt(p).convert("s")
            assert a.coeffs == b.coeffs == c.coeffs, p.word


def test_kostka_route_passes_its_bound_to_the_orientations():
    p = parse("ndenenndeennee")
    assert p.size == 8
    assert kostka_schur(p, bound=8) == llt(p, bound=8).convert("s")


def test_dominance_vanishing_inside_kostka_route():
    # terms with mu' not dominating lambda(theta) contribute nothing
    for n in range(1, 6):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                if not dominates(conjugate(mu), lam):
                    assert kostka(conjugate(mu), lam) == 0
