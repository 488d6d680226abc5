import math
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from homlong import linalg
from homlong.linalg import (Matrix, Tensor3, Vector, DimensionMismatch,
                            SingularMatrix, apply_on_legs, composite_columns, composite_matrix,
                            coproduct_columns,
                            first_differing_column, unflat_index, insert_columns,
                            pair_columns, per_leg, product_columns, scalar, scalar_to_json,
                            solve_exact, sparse_columns)
from test_oracles import (apply3, composite_columns_by_column, dense_columns,
                          first_differing_column_by_column, flat_index, flip_matrix,
                          fraction_int_columns, inverse_map, kron, kron_all, perm_matrix,
                          permute_input_legs, permute_output_legs, same_columns)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def rand_matrix(r, c):
    return st.lists(st.lists(rationals, min_size=c, max_size=c),
                    min_size=r, max_size=r).map(Matrix)


def test_scalar_parsing():
    assert scalar(3) == Fraction(3)
    assert scalar("2/4") == Fraction(1, 2)
    assert scalar("-7/3") == Fraction(-7, 3)
    assert scalar_to_json(Fraction(4, 2)) == 2
    assert scalar_to_json(Fraction(-1, 3)) == "-1/3"
    with pytest.raises(TypeError):
        scalar(1.5)
    with pytest.raises(TypeError):
        scalar(True)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6).map(str)),
    min_size=3, max_size=3), max_size=4))
def test_int_columns_reads_mixed_rows(columns):
    # ints, Fractions (zeros and integral ones included) and "p/q" strings
    # in one column read as every entry coerced to a Fraction first
    assert linalg.int_columns(columns) == fraction_int_columns(
        [[scalar(x) for x in c] for c in columns])


@pytest.mark.parametrize("bad, error, message", [
    (True, TypeError, "bool is not a scalar"),
    (0.5, TypeError, "cannot read 0.5 as an exact rational"),
    ("1/0", ZeroDivisionError, "Fraction(1, 0)"),
])
def test_int_columns_rejects_what_scalar_rejects(bad, error, message):
    # after an int, a Fraction, a zero Fraction and a string in the same row
    with pytest.raises(error) as raised:
        linalg.int_columns([[3, Fraction(1, 2), Fraction(0), "2/3", bad]])
    assert str(raised.value) == message


def test_scalar_arithmetic_exact():
    # (a/b) + (c/d) over arbitrary-precision integers, reduced
    big = Fraction(10 ** 40 + 1, 10 ** 40)
    assert big - 1 == Fraction(1, 10 ** 40)
    assert scalar("1/3") + scalar("1/6") == Fraction(1, 2)


def test_kron_identity():
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)


def test_kron_1x1():
    assert kron(Matrix([[2]]), Matrix([[3]])) == Matrix([[6]])


def test_kron_index_convention():
    # swap (x) id applied to e0 (x) e0 lands on index 2 = 1*2 + 0
    m = kron(Matrix([[0, 1], [1, 0]]), Matrix.identity(2))
    v = m.apply(Vector.basis(4, 0))
    assert v == Vector.basis(4, 2)


def test_kron_rectangular_shapes():
    a = Matrix([[1, 2, 3]])            # 1x3
    b = Matrix([[1], [2]])             # 2x1
    k = kron(a, b)
    assert (k.rows, k.cols) == (2, 3)
    assert k.data[1][2] == 6


def test_invert_examples():
    assert Matrix.identity(4).inv() == Matrix.identity(4)
    assert Matrix([[2]]).inv() == Matrix([["1/2"]])
    m = Matrix([[1, 1], [0, 1]])
    assert m.inv() == Matrix([[1, -1], [0, 1]])
    assert m * m.inv() == Matrix.identity(2)
    with pytest.raises(SingularMatrix):
        Matrix([[1, 2], [2, 4]]).inv()


def test_pow_negative():
    m = Matrix([[2, 0], [0, 3]])
    assert m ** -2 == Matrix([["1/4", 0], [0, "1/9"]])
    assert m ** 0 == Matrix.identity(2)


@settings(max_examples=60, deadline=None)
@given(rand_matrix(3, 3))
def test_invert_involution(m):
    try:
        inv = m.inv()
    except SingularMatrix:
        assert m.det() == 0
        return
    assert inv.inv() == m
    assert m * inv == Matrix.identity(3)


@settings(max_examples=40, deadline=None)
@given(rand_matrix(2, 3), rand_matrix(2, 2), rand_matrix(3, 2), rand_matrix(2, 3))
def test_kron_mixed_product(a, b, c, d):
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


@settings(max_examples=40, deadline=None)
@given(rand_matrix(3, 3))
def test_det_multiplicative(m):
    n = Matrix([[1, 2, 0], [0, 1, 5], [1, 0, 1]])
    assert (m * n).det() == m.det() * n.det()


def test_perm_matrix_and_flat_index():
    dims = [2, 3, 2]
    p = perm_matrix(dims, [2, 0, 1])
    src = flat_index((1, 2, 0), dims)
    dst = flat_index((0, 1, 2), [2, 2, 3])
    assert p.data[dst][src] == 1
    assert unflat_index(src, dims) == (1, 2, 0)
    assert flip_matrix(2, 2) * flip_matrix(2, 2) == Matrix.identity(4)


def test_lazy_leg_permutations_match_matrices():
    dims = [2, 3, 2]
    perm = [2, 0, 1]
    p = perm_matrix(dims, perm)
    m = Matrix.from_function(12, 5, lambda i, j: Fraction(3 * i - j, 2))
    assert permute_output_legs(m, dims, perm) == p * m
    mt = m.transpose()
    assert permute_input_legs(mt, dims, perm) == mt * p
    with pytest.raises(DimensionMismatch):
        permute_output_legs(Matrix.identity(5), dims, perm)


def test_solve_exact():
    a = Matrix([[1, 1], [1, -1], [2, 0]])
    b = Vector([3, 1, 4])
    x = solve_exact(a, b)
    assert x == Vector([2, 1])
    assert solve_exact(a, Vector([3, 1, 5])) is None


def test_tensor3_flatten_round_trip():
    t = Tensor3.from_function(2, 3, 2, lambda i, j, k: i + 10 * j + 100 * k)
    m = t.flatten_in2_out1()
    assert (m.rows, m.cols) == (2, 6)
    assert Tensor3.from_in2_out1(m, 2, 3) == t
    m2 = t.flatten_in1_out2()
    assert (m2.rows, m2.cols) == (6, 2)
    assert Tensor3.from_in1_out2(m2, 3, 2) == t


def test_apply3():
    t = Tensor3.from_function(2, 2, 2, lambda i, j, k: i + j + k)
    assert apply3(t, 0, Matrix.identity(2)) == t
    z = Tensor3.zeros(2, 2, 2)
    assert apply3(z, 1, Matrix([[1, 2], [3, 4]])) == z
    doubled = apply3(t, 2, Matrix.identity(2).scale(2))
    assert all(doubled[i, j, k] == 2 * t[i, j, k]
               for i in range(2) for j in range(2) for k in range(2))
    with pytest.raises(DimensionMismatch):
        apply3(t, 1, Matrix([[1, 2, 3]]))


def test_zero_dim_edge_cases():
    e = Matrix([], rows=0, cols=0)
    assert kron(e, Matrix.identity(2)) == Matrix([], rows=0, cols=0)
    v = Vector([])
    assert v.dim == 0 and v.is_zero()
    t = Tensor3.zeros(2, 0, 0)
    assert t.flatten_in2_out1().rows == 0


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1]]) * Matrix([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]]).det()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_apply_on_legs_matches_kron(data):
    # a map on legs first..stop-1 is I (x) A (x) I on the flat tensor basis,
    # also when it changes the number of legs or their dims
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    first = data.draw(st.integers(0, len(dims) - 1))
    stop = data.draw(st.integers(first + 1, len(dims)))
    out_dims = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
    blk = math.prod(dims[first:stop])
    a = data.draw(rand_matrix(math.prod(out_dims), blk))
    vec = data.draw(st.dictionaries(st.integers(0, math.prod(dims) - 1), rationals))
    full = kron_all(Matrix.identity(math.prod(dims[:first])), a,
                    Matrix.identity(math.prod(dims[stop:])))
    expected = full * Vector([vec.get(i, 0) for i in range(full.cols)])
    cols, scale = sparse_columns(a)
    got = apply_on_legs(cols, tuple(range(first, stop)), dims, vec, out_dims)
    assert got == {i: x * scale for i, x in enumerate(expected) if x}


def test_apply_on_legs_rejects_bad_legs():
    cols, _ = sparse_columns(Matrix.identity(2))
    with pytest.raises(DimensionMismatch):
        apply_on_legs(cols, (0, 2), (2, 1, 1), {0: 1})
    with pytest.raises(DimensionMismatch):
        apply_on_legs(cols, (0,), (3, 2), {0: 1})


def test_first_differing_column_scales_and_witness():
    # (2 id) (x) (1/2 id) equals the identity although the int columns differ
    two, half = sparse_columns(Matrix.identity(2).scale(2)), sparse_columns(
        Matrix.identity(3).scale(Fraction(1, 2)))
    assert first_differing_column([(two, (0,), None), (half, (1,), None)], [], (2, 3)) is None
    # the flip differs from the identity first on e_0 (x) e_1
    flip = sparse_columns(flip_matrix(2, 2))
    assert first_differing_column([(flip, (0, 1), None)], [], (2, 2)) == (0, 1)
    with pytest.raises(DimensionMismatch):
        first_differing_column([(sparse_columns(Matrix([[1, 1]])), (0,), ())], [], (2,))


# on legs (2, 2): e_0 -> e_0 + e_1 and e_1 -> e_0 on leg 0, then the
# covector (1, -1) on leg 0, which cancels e_0 + e_1, then a map on both legs
CANCELLING = [(([[(0, 1), (1, 1)], [(0, 1)]], 1), (0,), None),
              (([[(0, 1)], [(0, -1)]], 1), (0,), (1,)),
              (([[(0, 2), (1, 1)], [(1, 3)]], 1), (0, 1), None)]
CANCELLED_COLUMNS = [[], [], [(0, 2), (1, 1)], [(1, 3)]]


def test_a_step_that_cancels_leaves_no_zero():
    dims = (2, 2)
    plan, _, _ = linalg._plan(CANCELLING, dims)
    batch = {j * 4 + j: 1 for j in range(4)}
    for k in range(len(plan) + 1):
        for vec in ({0: 1}, batch):
            assert 0 not in linalg._run(plan[:k], vec).values()
    # column 0 reaches the covector as e_0 + e_1, so it cancels there
    assert linalg._run(plan[:2], {0: 1}) == {}
    assert linalg._run(plan, {0: 1}) == {}
    assert composite_columns(CANCELLING, dims) == (CANCELLED_COLUMNS, 1)
    assert composite_columns_by_column(CANCELLING, dims) == (CANCELLED_COLUMNS, 1)
    same = [((CANCELLED_COLUMNS, 1), (0, 1), (2,))]
    off = [(([[], [(0, 1)]] + CANCELLED_COLUMNS[2:], 1), (0, 1), (2,))]
    for rhs, witness in ((same, None), (off, (0, 1))):
        assert first_differing_column(CANCELLING, rhs, dims) == witness
        assert first_differing_column_by_column(CANCELLING, rhs, dims) == witness


@pytest.mark.parametrize("batch", [3, linalg.BATCH_COLUMNS])
@pytest.mark.parametrize("d", [1, 5, 256, 257, 600])
def test_runs_per_composite_are_one_per_batch(d, batch):
    # each side of a passing comparison runs column 0, then once per batch
    # of `batch` columns; a composite built as columns runs once per batch
    # of `batch` columns; a comparison failing at column 0 runs it alone
    steps = [(([[(j, 1)] for j in range(d)], 1), (0,), None)]
    batches = -(-d // batch)
    run = mock.Mock(side_effect=linalg._run)
    with mock.patch.object(linalg, "BATCH_COLUMNS", batch), \
            mock.patch.object(linalg, "_run", run):
        assert first_differing_column(steps, [], (d,)) is None
        assert run.call_count == 2 * (1 - (-(d - 1) // batch))
        run.reset_mock()
        composite_columns(steps, (d,))
        assert run.call_count == batches
        run.reset_mock()
        doubled = [(([[(j, 2 if j == 0 else 1)] for j in range(d)], 1), (0,), None)]
        assert first_differing_column(steps, doubled, (d,)) == (0,)
        assert [len(vec) for (_, vec), _ in run.call_args_list] == [1, 1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composite_matrix_matches_kron_all(data):
    # a chain of steps is the product, right to left, of I (x) A (x) I on the
    # legs each step starts from, also when a step changes the legs
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    steps, expected, d = [], Matrix.identity(math.prod(dims)), dims
    for _ in range(data.draw(st.integers(0, 3))):
        if not d:
            break
        first = data.draw(st.integers(0, len(d) - 1))
        stop = data.draw(st.integers(first + 1, len(d)))
        out = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
        a = data.draw(rand_matrix(math.prod(out), math.prod(d[first:stop])))
        steps.append((sparse_columns(a), tuple(range(first, stop)), out))
        expected = kron_all(Matrix.identity(math.prod(d[:first])), a,
                            Matrix.identity(math.prod(d[stop:]))) * expected
        d = d[:first] + out + d[stop:]
    got = composite_matrix(steps, dims)
    assert (got.rows, got.cols) == (expected.rows, expected.cols)
    assert got == expected


class _Unread(list):
    """Columns whose every read fails the test."""

    def __getitem__(self, k):
        raise AssertionError("column %r read before the composite was checked" % (k,))


@pytest.mark.parametrize("bad", [
    (sparse_columns(Matrix.identity(2)), (0, 2), None),     # legs not consecutive
    (sparse_columns(Matrix.identity(2)), (1,), None),       # 2 columns on a dim-3 leg
])
def test_composites_are_checked_before_any_column_runs(bad):
    # the first step is valid but may not be read: a bad later step must be
    # refused while the composite is planned, not when a column reaches it
    cols, scale = sparse_columns(Matrix.identity(2))
    good = ((_Unread(cols), scale), (0,), None)
    dims = (2, 3, 1)
    with pytest.raises(DimensionMismatch):
        first_differing_column([good, bad], [], dims)
    with pytest.raises(DimensionMismatch):
        first_differing_column([], [good, bad], dims)
    with pytest.raises(DimensionMismatch):
        composite_matrix([good, bad], dims)


# a composite on legs of FOLD (64 columns) is folded by _plan; P and its
# inverse, Q and the flip have one entry per column on distinct rows, G and
# H two entries per column
FOLD = (4, 4, 4)
P = [[(1, 2)], [(2, -1)], [(3, 3)], [(0, 1)]], 3
Q = [[(3, 1)], [], [(0, -2)], [(1, 1)]], 2
FLIP = linalg.flip_columns(4, 4)


def _two_entries(rows, cols, scale=1):
    return [[(j % rows, 1), ((j + 1) % rows, j + 2)] for j in range(cols)], scale


G, H = _two_entries(4, 16, 2), _two_entries(4, 4)
FOLD_BRANCHES = {
    # P on leg 1 goes into the columns of G, whose block holds leg 1
    "fold-into-next": ([(P, (1,), None), (G, (0, 1), (4,)), (H, (0,), None)], 2),
    # Q after P on leg 2 is one step, put back at the end
    "compose": ([(P, (2,), None), (Q, (2,), None), (G, (0, 1), (4,))], 2),
    # P then its inverse on leg 0 is the identity, dropped with its scales
    "cancel": ([(P, (0,), None), (H, (1,), None), (inverse_map(*P), (0,), None)], 1),
    # P on leg 2 passes G, which makes legs 0 and 1 one leg, and goes into H
    # on leg 1; or passes G landing in three legs and is put back at the end
    "commute with a leg shift": ([(P, (2,), None), (G, (0, 1), (4,)), (H, (1,), None)], 2),
    "commute to the end": ([(P, (2,), None), (G, (0, 1), (2, 2, 2))], 2),
    # a flip is put back before a step, or a flip, on part of its legs
    "flush on partial overlap": ([(FLIP, (0, 1), None), (G, (1, 2), (4,))], 2),
    "flush before a carried step": ([(FLIP, (1, 2), None), (FLIP, (0, 1), None)], 2),
    # a carried step that meets no further step
    "flush at the end": ([(G, (1, 2), (4,)), (Q, (0,), None)], 2),
    # one entry per column but two on row 0: e_0 + e_1 + e_2 goes to e_1,
    # its e_0 and e_2 cancelling, so the next step meets e_1 alone; folded,
    # that step would meet e_0, e_1, e_2 and list its rows in another order
    "not carried: two columns on one row": (
        [(([[(0, 1), (1, 1), (2, 1)], [(1, 1)], [(2, 1)], [(3, 1)]], 1), (0,), None),
         (([[(0, 1)], [(1, 1)], [(0, -1)], [(3, 1)]], 1), (0,), None),
         (([[(1, 1)], [(0, 1), (1, 1)], [(2, 1)], [(3, 1)]], 1), (0,), None)], 3),
}


@pytest.mark.parametrize("branch", sorted(FOLD_BRANCHES))
def test_each_fold_branch_matches_one_step_at_a_time(branch):
    steps, planned = FOLD_BRANCHES[branch]
    assert math.prod(FOLD) >= linalg.FOLD_MIN_COLUMNS
    plan, out_dims, scale = linalg._plan(steps, FOLD)
    assert len(plan) == planned
    got, expected = composite_columns(steps, FOLD), composite_columns_by_column(steps, FOLD)
    assert same_columns(got, expected)
    if branch == "cancel":
        assert scale == got[1] == H[1]
    # the composite itself as one step, and that step with one entry changed
    whole = ((expected[0], expected[1]), (0, 1, 2), out_dims)
    assert first_differing_column(steps, [whole], FOLD) is None
    col = next(j for j, c in enumerate(expected[0]) if c)
    bumped = expected[0][:col] + [[(r, x + 1) for r, x in expected[0][col]]] + expected[0][col + 1:]
    rhs = [((bumped, expected[1]), (0, 1, 2), out_dims)]
    assert first_differing_column(steps, rhs, FOLD) == unflat_index(col, FOLD)
    assert first_differing_column_by_column(steps, rhs, FOLD) == unflat_index(col, FOLD)


@pytest.mark.parametrize("steps, message", [
    # 3 columns on a leg of dim 4, after two steps that would be folded
    ([(FLIP, (0, 1), None), (P, (2,), None), (([[(0, 1)]] * 3, 1), (1,), None)],
     "map with 3 columns on legs (1,) of (4, 4, 4)"),
    # the dims named are those the steps as given leave, P still carried
    ([(P, (2,), None), (G, (0, 1), (4,)), (P, (0, 1), None)],
     "map with 4 columns on legs (0, 1) of (4, 4)"),
    ([(P, (0,), None), (P, (3,), None)], "map with 4 columns on legs (3,) of (4, 4, 4)"),
])
def test_a_malformed_step_of_a_folded_composite_names_the_steps_as_given(steps, message):
    with pytest.raises(DimensionMismatch) as raised:
        first_differing_column(steps, [], FOLD)
    assert str(raised.value) == message


@pytest.mark.parametrize("steps", [
    # every column empty, so both steps have one entry per column at most,
    # on a leg that is 0-dimensional between them
    [(([[]] * 4, 1), (0,), (0,)), (([], 1), (0,), (4,))],
    # a 0-dimensional leg after the legs of a carried flip, inside the
    # block of the step it would go into
    [(FLIP, (0, 1), None), (([[]] * 4, 1), (2,), (0,)), (([], 1), (0, 1, 2), (4, 4, 0))],
])
def test_a_composite_through_a_zero_dimensional_leg_is_not_folded(steps):
    # a 64-column composite whose steps pass through a 0-dimensional leg
    # maps every column to 0, as the steps run one at a time do
    got = composite_columns(steps, FOLD)
    assert got == composite_columns_by_column(steps, FOLD) == ([[]] * 64, 1)
    assert first_differing_column(steps, steps, FOLD) is None


def test_insert_and_pair_columns_match_kron():
    u = Vector([1, Fraction(1, 2), 0])
    assert (composite_matrix([(insert_columns(u, 2), (0,), (3, 2))], (2,))
            == kron(u.as_column(), Matrix.identity(2)))
    f = Vector([2, 0, Fraction(-1, 3)])
    assert (composite_matrix([(pair_columns(f), (1,), ())], (2, 3))
            == kron(Matrix.identity(2), f.as_row()))


def test_sparse_columns_of_a_matrix_without_rows():
    assert sparse_columns(Matrix([], rows=0, cols=3)) == ([[], [], []], 1)


def test_converted_and_inverted_maps_are_kept():
    m = Matrix([[1, 2], [3, Fraction(1, 2)]])
    assert m.inv() is m.inv()
    assert sparse_columns(m) is sparse_columns(m)
    t = Tensor3([[[1, 0], [0, 2]], [[0, 3], [Fraction(1, 3), 0]]])
    assert product_columns(t) is product_columns(t)
    assert coproduct_columns(t) is coproduct_columns(t)
    # a filled cache leaves equality and hashing to the data
    fresh_m, fresh_t = Matrix([[1, 2], [3, Fraction(1, 2)]]), Tensor3(t.data)
    assert m == fresh_m and hash(m) == hash(fresh_m)
    assert t == fresh_t and hash(t) == hash(fresh_t)
    assert m.inv() == fresh_m.inv()
    assert m.inv() * m == Matrix.identity(2)


def test_singular_matrix_raises_on_every_call():
    m = Matrix([[1, 2], [2, 4]])
    for _ in range(3):
        with pytest.raises(SingularMatrix):
            m.inv()


@st.composite
def three_ways(draw):
    """One rational matrix built three ways: from dense rows of ints,
    Fractions and "p/q" strings; as composite_matrix of a step with a
    non-canonical scale and shuffled columns followed by a per_leg scaling;
    and by Matrix over a generator of row tuples of Fractions."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = draw(st.lists(st.lists(st.one_of(st.just(0), rationals), min_size=c, max_size=c),
                            min_size=r, max_size=r))

    def written(x):
        way = draw(st.sampled_from(("int", "fraction", "string")))
        if way == "int" and x.denominator == 1:
            return int(x)
        return "%d/%d" % (x.numerator, x.denominator) if way == "string" else x

    dense = Matrix([[written(x) for x in row] for row in entries], rows=r, cols=c)
    # M / f as int columns, scaled by k and shuffled, then f on the output leg
    f = draw(st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5))
    k = draw(st.integers(1, 6))
    d = math.lcm(*(Fraction(x).denominator for row in entries for x in row))
    cols = [draw(st.permutations([(i, int(x * d) * f.denominator * k)
                                  for i, x in enumerate(col) if x]))
            for col in (zip(*entries) if r else [()] * c)]
    composite = composite_matrix([((cols, d * f.numerator * k), (0,), (r,))]
                                 + per_leg(Matrix.diagonal([f] * r)), (c,))
    tuples = Matrix((tuple(Fraction(x) for x in row) for row in entries), r, c)
    return dense, composite, tuples


@settings(max_examples=80, deadline=None)
@given(three_ways())
def test_equal_entries_mean_equal_stored_columns(ways):
    first = ways[0]
    for m in ways:
        assert m == first and hash(m) == hash(first)
        assert sparse_columns(m) == sparse_columns(first)
        assert sparse_columns(m) == linalg.int_columns(dense_columns(m))
    for m in ways:
        assert m.data == first.data and m.to_json() == first.to_json()
        assert all(type(x) is Fraction for row in m.data for x in row)


# ---------------------------------------------------------------------------
# det, inv and solve_exact against sympy's exact matrices

mixed = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.data for x in row])


def from_sympy(values):
    return [Fraction(int(x.p), int(x.q)) for x in values]


@st.composite
def square_matrices(draw):
    """A square rational matrix with mixed denominators, n = 0 .. 5; about a
    third of them have a row that is a combination of two others, so the
    determinant vanishes, and some have two rows swapped, so it changes sign."""
    n = draw(st.integers(0, 5))
    rows = [[draw(mixed) for _ in range(n)] for _ in range(n)]
    if n >= 3 and draw(st.integers(0, 2)) == 0:
        a, b = draw(mixed), draw(mixed)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if n >= 2 and draw(st.booleans()):
        rows[0], rows[1] = rows[1], rows[0]
    return Matrix(rows, n, n)


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_det_and_inv_match_sympy(m):
    s = to_sympy(m)
    det = s.det()
    assert m.det() == Fraction(int(det.p), int(det.q))
    if det == 0:
        with pytest.raises(SingularMatrix):
            m.inv()
    else:
        assert m.inv() == Matrix([from_sympy(s.inv().row(i)) for i in range(m.rows)],
                                 m.rows, m.cols)


def test_det_signs_and_the_empty_matrix():
    assert Matrix([[0, 1], [1, 0]]).det() == -1
    assert Matrix([["1/2", "1/3"], ["1/4", "1/5"]]).det() == Fraction(1, 60)
    assert Matrix([[1, 2], [2, 4]]).det() == 0
    empty = Matrix([], rows=0, cols=0)
    assert empty.det() == to_sympy(empty).det() == 1
    assert empty.inv() == empty


@st.composite
def rectangular_systems(draw):
    """A rational m x n system, m, n = 0 .. 5 with mixed denominators, of
    rank at most r; b is A x0 (consistent) or drawn freely (often not)."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    r = draw(st.integers(0, min(m, n)))
    left = [[draw(mixed) for _ in range(r)] for _ in range(m)]
    right = [[draw(mixed) for _ in range(n)] for _ in range(r)]
    a = Matrix([[sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0))
                 for j in range(n)] for i in range(m)], m, n)
    if draw(st.booleans()):
        x0 = [draw(mixed) for _ in range(n)]
        b = [sum((a.data[i][j] * x0[j] for j in range(n)), Fraction(0)) for i in range(m)]
    else:
        b = [draw(mixed) for _ in range(m)]
    return a, Vector(b)


@settings(max_examples=150, deadline=None)
@given(rectangular_systems())
def test_solve_exact_matches_sympy(system):
    a, b = system
    sa = to_sympy(a)
    sb = sympy.Matrix(a.rows, 1, [sympy.Rational(x.numerator, x.denominator) for x in b])
    x = solve_exact(a, b)
    if sa.rank() != sa.row_join(sb).rank():
        assert x is None
        return
    assert x is not None and a.apply(x) == b
    # sympy's parametric solution with every parameter 0: the free unknowns
    # are 0, as in solve_exact
    if a.cols:
        sol, params = sa.gauss_jordan_solve(sb)
        sol = sol.subs({p: 0 for p in params})
        assert list(x) == from_sympy(sol)
