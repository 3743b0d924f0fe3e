"""One size guard: every sized entry point refuses its size through `check_size`, before any work."""

import sys

import pytest

from lltpaths.errors import BoundExceeded, InvalidArgument
from lltpaths.harmonics import hall_littlewood, nabla_e, nabla_p, survey_e_coefficients
from lltpaths.llt import chromatic, coloring_weight_split, content_coefficient, llt, orientation_e_expansion
from lltpaths.partitions import DEGREE_BOUND, check_size, compositions, partitions_of, weak_compositions
from lltpaths.relations import SUITES, all_suites, dyck_path_graph_formula, recursion_evaluate
from lltpaths.schroeder import enumerate_paths, nu_alpha, p_mu, parse
from lltpaths.schur import elw_schur, kostka_schur


def staircase(n):
    return parse("n" * n + "e" * n)


_SUITE_WORK = {"partitions_of", "enumerate_paths", "_bounce_walk", "_modular_instances", "dyck_path_graph_formula"}

# entry point -> (call at a size, the functions its work begins with, whether the size is a number).
# A path's size is always a nonnegative int, so only the numeric entry points meet -1 and 2.5.
ENTRIES = {
    "enumerate_paths": (enumerate_paths, {"rec"}, True),
    "llt": (lambda n, **kw: llt(staircase(n), **kw), {"_coloring_sum"}, False),
    "chromatic": (lambda n, **kw: chromatic(staircase(n), **kw), {"_coloring_sum"}, False),
    "orientation_e_expansion": (lambda n, **kw: orientation_e_expansion(staircase(n), **kw), {"_orientation_tally"}, False),
    "content_coefficient": (lambda n, **kw: content_coefficient(staircase(n), (n,), **kw), {"coloring_backtrack"}, False),
    "coloring_weight_split": (lambda n, **kw: coloring_weight_split(staircase(n), 1, **kw), {"coloring_backtrack"}, False),
    "elw_schur": (lambda n, **kw: elw_schur(staircase(n), **kw), {"_permutations_with_ascents"}, False),
    "kostka_schur": (lambda n, **kw: kostka_schur(staircase(n), **kw), {"_orientation_tally", "kostka"}, False),
    "nabla_e": (nabla_e, {"rec", "llt", "dyck_star", "haglund_bounce"}, True),
    "nabla_p": (nabla_p, {"weak_compositions", "nu_alpha", "llt"}, True),
    "hall_littlewood": (lambda n, **kw: hall_littlewood((n,), **kw), {"llt", "omega"}, True),
    "survey_e_coefficients": (survey_e_coefficients, {"enumerate_paths", "orientation_e_expansion"}, True),
    **{f"suite {name}": (suite, _SUITE_WORK, True) for name, suite in SUITES.items()},
    "all_suites": (all_suites, _SUITE_WORK, True),
    "dyck_path_graph_formula": (lambda n, **kw: dyck_path_graph_formula(n - 1, **kw), {"compositions"}, True),
    "recursion_evaluate": (lambda n, **kw: recursion_evaluate(staircase(n), **kw), {"_evaluate"}, False),
}


@pytest.mark.parametrize("name", list(ENTRIES))
def test_every_sized_entry_point_refuses_through_the_one_guard(name):
    call, work, numeric = ENTRIES[name]

    # a profile hook sees the closures the enumerators run as well as module functions
    def fail_on_work(frame, event, arg):
        if event == "call" and frame.f_code.co_name in work:
            raise AssertionError(f"{frame.f_code.co_name} began before the size was refused")

    # (a) above the degree ceiling, whatever `bound` says, before any work
    sys.setprofile(fail_on_work)
    try:
        with pytest.raises(BoundExceeded, match="exceeds the limit"):
            call(DEGREE_BOUND + 1, bound=DEGREE_BOUND + 1)
    finally:
        sys.setprofile(None)
    # (b) a size that is not a nonnegative int
    if numeric:
        for size in (-1, 2.5):
            with pytest.raises(InvalidArgument):
                call(size)
    # (c) above the default bound
    with pytest.raises(BoundExceeded):
        call(8)


@pytest.mark.parametrize(
    "call",
    [
        lambda: compositions(DEGREE_BOUND + 1),
        lambda: weak_compositions(DEGREE_BOUND + 1, 1),
        lambda: weak_compositions(1, DEGREE_BOUND + 1),
        lambda: p_mu((10**7,)),
        lambda: p_mu((7, 6)),
        lambda: nu_alpha((1,) * (DEGREE_BOUND + 1)),
    ],
)
def test_the_combinatorial_helpers_hold_the_degree_ceiling(call):
    with pytest.raises(BoundExceeded):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: partitions_of(2.5),
        lambda: partitions_of(-1),
        lambda: compositions(2.5),
        lambda: weak_compositions(2.5, 1),
        lambda: weak_compositions(1, 2.5),
        lambda: check_size(True),
        lambda: check_size("3"),
    ],
)
def test_a_size_that_is_not_a_nonnegative_int_is_refused(call):
    with pytest.raises(InvalidArgument):
        call()


def test_check_size_holds_the_lower_of_bound_and_ceiling():
    check_size(0)
    check_size(DEGREE_BOUND)
    check_size(4, bound=4)
    check_size(5, bound=DEGREE_BOUND + 8)
    for n, bound in ((5, 4), (DEGREE_BOUND + 1, DEGREE_BOUND + 8)):
        with pytest.raises(BoundExceeded, match="exceeds the limit"):
            check_size(n, bound)
