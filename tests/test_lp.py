from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fiber_points, in_nonneg_span, lp_feasible, lp_solve, sum_range

ints = st.integers(min_value=-6, max_value=6)


def test_simple_min():
    # min x+y on the segment x+y=2, x,y>=0
    res = lp_solve([[1, 1]], [2], [1, 1])
    assert res.status == "optimal"
    assert res.value == 2


def test_min_vs_max_on_triangle():
    # a+b+c = 1 with cost (0,1,2)
    rows = [[1, 1, 1]]
    assert lp_solve(rows, [1], [0, 1, 2]).value == 0
    assert lp_solve(rows, [1], [0, 1, 2], maximize=True).value == 2


def test_infeasible():
    res = lp_solve([[1, 1], [1, 1]], [1, 2], [1, 1])
    assert res.status == "infeasible"


def test_unbounded():
    # max x subject to x - y = 0
    res = lp_solve([[1, -1]], [0], [1, 0], maximize=True)
    assert res.status == "unbounded"


def test_redundant_rows_are_dropped():
    res = lp_solve([[1, 1], [2, 2]], [3, 6], [1, 2])
    assert res.status == "optimal"
    assert res.value == 3


def test_feasibility_witness():
    x = lp_feasible([[1, 1, -1]], [2])
    assert x is not None
    assert x[0] + x[1] - x[2] == 2
    assert all(v >= 0 for v in x)


def test_in_nonneg_span():
    assert in_nonneg_span([(1, 0), (1, 2)], (2, 2))
    assert not in_nonneg_span([(1, 0), (1, 2)], (0, 1))
    assert in_nonneg_span([], (0, 0))
    assert not in_nonneg_span([], (1, 0))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(ints, min_size=m, max_size=m), min_size=1, max_size=5),
            st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
            st.just(m),
        )
    )
)
def test_simplex_matches_enumeration(data):
    cols, mults, dim = data
    mults = (mults * len(cols))[: len(cols)]
    # Build a target that is guaranteed feasible.
    target = [sum(c[i] * k for c, k in zip(cols, mults)) for i in range(dim)]
    rows = [[c[i] for c in cols] for i in range(dim)]
    ones = [1] * len(cols)
    expected = sum_range(cols, target)
    assert expected is not None
    lo = lp_solve(rows, target, ones)
    hi = lp_solve(rows, target, ones, maximize=True)
    assert lo.status == "optimal"
    assert lo.value == expected[0]
    assert sum(lo.x) == lo.value
    for i in range(dim):
        assert sum(c[i] * a for c, a in zip(cols, lo.x)) == target[i]
    # The max is unbounded exactly when the columns admit a nonzero
    # nonnegative combination equal to zero.
    aug = [tuple(c) + (1,) for c in cols]
    recession = fiber_points(aug, tuple([0] * dim) + (1,))
    if recession:
        assert hi.status == "unbounded"
    else:
        assert hi.status == "optimal"
        assert hi.value == expected[1]
        assert sum(hi.x) == hi.value


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(ints, min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(ints, min_size=2, max_size=2),
)
def test_feasibility_matches_enumeration(cols, target):
    pts = fiber_points([tuple(c) for c in cols], tuple(target))
    got = in_nonneg_span([tuple(c) for c in cols], tuple(target))
    assert got == bool(pts)
