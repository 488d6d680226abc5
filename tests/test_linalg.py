import copy
import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from homlong import fixtures as fx, io as hio, linalg
from homlong.linalg import (Matrix, DimensionMismatch,
                            SingularMatrix, first_key, int_columns, move_legs, moved_columns,
                            unflat_index, scalar, solve_exact, sparse_columns)
from test_oracles import (HOPF_FIXTURES, apply3, column_of, columns_by_column, composite,
                          coproduct_map, coproduct_move, covector_move, dense_columns,
                          dense_entries, dense_nested, element_move, elimination_squares,
                          elimination_systems, first_difference, first_difference_by_column,
                          flat_index, flip_matrix, fraction_int_columns, inverse_map,
                          json_scalar, kron, kron_all, leg_flip, load_tensor_field,
                          perm_matrix, mul, permute_input_legs, permute_output_legs,
                          row_matrix, same_columns, tensor, zeros)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def rand_matrix(r, c):
    return st.lists(st.lists(rationals, min_size=c, max_size=c),
                    min_size=r, max_size=r).map(Matrix)


def test_scalar_parsing():
    assert scalar(3) == Fraction(3)
    assert scalar("2/4") == Fraction(1, 2)
    assert scalar("-7/3") == Fraction(-7, 3)
    assert scalar(" -7/3 ") == Fraction(-7, 3) and scalar("+2") == 2 and scalar("\t0\n") == 0
    assert Matrix([[Fraction(4, 2), Fraction(-1, 3)]]).to_json() == [[2, "-1/3"]]
    with pytest.raises(TypeError):
        scalar(1.5)
    with pytest.raises(TypeError):
        scalar(True)


@pytest.mark.parametrize("text", [
    "0.5", "1e-3", "1e4000000", "1_000", "1/2/3", "1 / 2", "/2", "2/", "--1", "1/-2",
    "inf", "nan", "", "٣", "0x10",
])
def test_scalar_refuses_other_strings_at_once(text):
    # Fraction would read the decimal, exponent and underscore forms, and
    # expand 1e4000000 as 10**4000000 for seconds before any check
    start = time.perf_counter()
    with pytest.raises(ValueError, match="is not an int or a p/q string") as raised:
        scalar(text)
    assert time.perf_counter() - start < 0.1
    assert repr(text) in str(raised.value)


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
    assert mul(m, column_of([1, 0, 0, 0])) == column_of([0, 0, 1, 0])


def test_kron_rectangular_shapes():
    a = Matrix([[1, 2, 3]])            # 1x3
    b = Matrix([[1], [2]])             # 2x1
    k = kron(a, b)
    assert (k.rows, k.cols) == (2, 3)
    assert k[1, 2] == 6


def test_invert_examples():
    assert Matrix.identity(4).inv() == Matrix.identity(4)
    assert Matrix([[2]]).inv() == Matrix([["1/2"]])
    m = Matrix([[1, 1], [0, 1]])
    assert m.inv() == Matrix([[1, -1], [0, 1]])
    assert mul(m, m.inv()) == Matrix.identity(2)
    with pytest.raises(SingularMatrix):
        Matrix([[1, 2], [2, 4]]).inv()


@settings(max_examples=60, deadline=None)
@given(rand_matrix(3, 3))
def test_invert_involution(m):
    try:
        inv = m.inv()
    except SingularMatrix:
        assert m.det() == 0
        return
    assert inv.inv() == m
    assert mul(m, inv) == Matrix.identity(3)


@settings(max_examples=40, deadline=None)
@given(rand_matrix(2, 3), rand_matrix(2, 2), rand_matrix(3, 2), rand_matrix(2, 3))
def test_kron_mixed_product(a, b, c, d):
    assert mul(kron(a, b), kron(c, d)) == kron(mul(a, c), mul(b, d))


@settings(max_examples=40, deadline=None)
@given(rand_matrix(3, 3))
def test_det_multiplicative(m):
    n = Matrix([[1, 2, 0], [0, 1, 5], [1, 0, 1]])
    assert mul(m, n).det() == m.det() * n.det()


def test_perm_matrix_and_flat_index():
    dims = [2, 3, 2]
    p = perm_matrix(dims, [2, 0, 1])
    src = flat_index((1, 2, 0), dims)
    dst = flat_index((0, 1, 2), [2, 2, 3])
    assert p[dst, src] == 1
    assert unflat_index(src, dims) == (1, 2, 0)
    assert mul(flip_matrix(2, 2), flip_matrix(2, 2)) == Matrix.identity(4)


def test_lazy_leg_permutations_match_matrices():
    dims = [2, 3, 2]
    perm = [2, 0, 1]
    p = perm_matrix(dims, perm)
    m = Matrix([[Fraction(3 * i - j, 2) for j in range(5)] for i in range(12)])
    assert permute_output_legs(m, dims, perm) == mul(p, m)
    mt = m.transpose()
    assert permute_input_legs(mt, dims, perm) == mul(mt, p)
    with pytest.raises(DimensionMismatch):
        permute_output_legs(Matrix.identity(5), dims, perm)


def test_solve_exact():
    a = Matrix([[1, 1], [1, -1], [2, 0]])
    b = Matrix([[3], [1], [4]])
    x = solve_exact(a, b)
    assert x == Matrix([[2], [1]])
    assert solve_exact(a, Matrix([[3], [1], [5]])) is None


@pytest.mark.parametrize("cols", [0, 2])
def test_solve_exact_refuses_a_rhs_that_is_not_one_column(cols):
    with pytest.raises(DimensionMismatch, match="rhs of shape 2x%d" % cols):
        solve_exact(Matrix.identity(2), zeros(2, cols))


def test_every_way_to_make_an_element_gives_one_column_matrix():
    # the entries 1/2, 0, -3, 2/3 as (index, int) pairs over the scale 6
    col = [(0, 3), (2, -18), (3, 4)]
    made = [
        Matrix([[Fraction(1, 2)], [0], [-3], ["2/3"]]),
        Matrix.from_int_columns([[(3, 8), (0, 6), (2, -36)]], 12, 4),
        hio.load_matrix(["1/2", 0, -3, "2/3"], nesting=1),
        solve_exact(Matrix.diagonal([2, 2, 2, 2]), column_of([1, 0, -6, Fraction(4, 3)])),
    ]
    for v in made:
        assert type(v) is Matrix and (v.rows, v.cols) == (4, 1)
        assert v == made[0] and hash(v) == hash(made[0])
        assert v.to_json() == [["1/2"], [0], [-3], ["2/3"]]
        assert [v[i] for i in range(4)] == [Fraction(1, 2), 0, -3, Fraction(2, 3)]
        assert v[-1] == Fraction(2, 3) and v[3] == v[3, 0]
        assert moved_columns(v, element_move(v)) == ([col], 6)
        assert moved_columns(v, covector_move(v)) == ([[(0, 3)], [], [(0, -18)], [(0, 4)]], 6)


@pytest.mark.parametrize("m, index", [
    (Matrix.identity(2), 0), (Matrix([[1, 2]]), 0), (zeros(3, 0), 0),
    (Matrix([[1, 2], [3, 4]]), (0, 1, 1))], ids=["m0", "m1", "m2", "m3"])
def test_one_index_reads_only_a_one_column_matrix(m, index):
    # and three indices, a three-leg map's old spelling, read no matrix
    with pytest.raises(TypeError, match="a %dx%d matrix takes an index pair" % (m.rows, m.cols)):
        m[index]
    with pytest.raises(IndexError):
        Matrix([[1], [2]])[2]


def small_tensors():
    """Nested data T[i][j][k] of dims 1-3 with small entries, one in three
    a Fraction."""
    entry = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    return st.tuples(*[st.integers(1, 3)] * 3).flatmap(lambda dims: st.lists(
        st.lists(st.lists(entry, min_size=dims[2], max_size=dims[2]),
                 min_size=dims[1], max_size=dims[1]), min_size=dims[0], max_size=dims[0]))


@settings(max_examples=60, deadline=None)
@given(small_tensors())
def test_from_tensor_reads_the_product_like_map(data):
    # nested T[i][j][k] reads as the Matrix of (i, j) -> sum_k T[i][j][k] e_k,
    # whose rows to_lists gives as Fractions, 0 and 1 the shared ZERO and
    # ONE; written back nested, it gives T again
    d0, d1, d2 = len(data), len(data[0]), len(data[0][0])
    t = Matrix.from_tensor(data)
    assert (t.rows, t.cols) == (d2, d0 * d1)
    rows = t.to_lists()
    assert rows == [[scalar(data[c // d1][c % d1][k]) for c in range(d0 * d1)]
                    for k in range(d2)]
    assert Matrix.from_tensor(data, (d0, d1, d2)) == t == Matrix(rows)
    assert hio.matrix_json(t, (d0, d1, d2)) == [[[json_scalar(scalar(x)) for x in row]
                                                 for row in plane] for plane in data]
    for x in sum(rows, []):
        assert type(x) is Fraction and (x is linalg.ZERO) == (x == 0)
        assert (x is linalg.ONE) == (x == 1)


@pytest.mark.parametrize("m", [Matrix.from_int_columns([[] for _ in range(3)], 1, 0),
                               Matrix.from_int_columns([], 1, 3)])
def test_a_matrix_with_an_empty_side_reads_back_given_its_shape(m):
    # 0 x 3 gives [], read as 0 x 0 when no shape is given
    assert Matrix(m.to_lists(), rows=m.rows, cols=m.cols) == m
    assert (Matrix(m.to_lists()) == m) == (m.rows > 0)


@pytest.mark.parametrize("dims", [(2, 0, 3), (0, 2, 3)])
def test_a_tensor_with_a_zero_dimensional_leg_reads_back_given_its_dims(dims):
    # the dims read off the lists end at the first empty list
    t = zeros(dims[2], dims[0] * dims[1])
    nested = hio.matrix_json(t, dims)
    assert Matrix.from_tensor(nested, dims=dims) == t
    assert Matrix.from_tensor(nested) != t


@pytest.mark.parametrize("data, dims, message", [
    ([[[1], [2]]], (2, 1, 1), "tensor is 1x2x1, expected 2x1x1"),
    ([[[1, 2]], [[3, 4]]], (2, 1, 1), "tensor is 2x1x2, expected 2x1x1"),
    ([[[1], [2]], [[3]]], None, "ragged tensor data"),
    ([[[1], [2]], [[3], [4, 5]]], (2, 2, 1), "ragged tensor data"),
])
def test_from_tensor_refuses_data_nested_otherwise(data, dims, message):
    # given dims, the same entries nested otherwise are refused, in the one
    # text of a misshaped map, even where rows x cols would agree
    with pytest.raises(DimensionMismatch, match="^%s$" % message):
        Matrix.from_tensor(data, dims)


@pytest.mark.parametrize("make, data", [
    (Matrix, ["10", "01"]),
    (Matrix, [[1, 0], "01"]),
    (Matrix, "10"),
    (Matrix.from_tensor, [["10", "01"], ["01", "10"]]),
    (Matrix.from_tensor, ["ab", [[1], [0]]]),
])
def test_a_row_or_plane_given_as_a_string_is_refused(make, data):
    # a string is not read as its characters: ["10", "01"] is not the
    # identity, nor the nested strings kz2's product; any other iterable of
    # entries is read
    with pytest.raises(TypeError, match="^expected a list, not the string "):
        make(data)
    assert Matrix(map(tuple, [[1, 0], [0, 1]])) == Matrix.identity(2)


@settings(max_examples=60, deadline=None)
@given(small_tensors())
def test_every_index_reads_the_entry_of_to_lists(data):
    # m[i, j] and a column's v[i], for every index in range, negative ones
    # included; any other index raises IndexError
    m = Matrix.from_tensor(data)
    rows = m.to_lists()
    for i, j in itertools.product(range(-m.rows, m.rows), range(-m.cols, m.cols)):
        assert m[i, j] == rows[i][j]
    v = Matrix([row[:1] for row in rows])
    assert [v[i] for i in range(-v.rows, v.rows)] == [row[0] for row in rows] * 2
    for bad in ((m.rows, 0), (0, m.cols), (-m.rows - 1, 0), (0, -m.cols - 1)):
        with pytest.raises(IndexError):
            m[bad]
    for bad in (v.rows, -v.rows - 1):
        with pytest.raises(IndexError):
            v[bad]


def test_tensor3_flatten_round_trip():
    t = tensor(2, 3, 2, lambda i, j, k: i + 10 * j + 100 * k)
    assert (t.rows, t.cols) == (2, 6)
    assert Matrix.from_int_columns(*_copied(t), 2) == t
    m2 = coproduct_map(t, 2)
    assert (m2.rows, m2.cols) == (6, 2)
    assert composite([(sparse_columns(m2), (0,), (3, 2))], (2,)).coproduct(3) == t


def _copied(m):
    """m's int columns (cols, scale) as new lists, for a call that takes
    them over."""
    cols, scale = sparse_columns(m)
    return [list(c) for c in cols], scale


def test_apply3():
    t = tensor(2, 2, 2, lambda i, j, k: i + j + k)
    assert apply3(t, 2, 0, Matrix.identity(2)) == t
    z = zeros(2, 4)
    assert apply3(z, 2, 1, Matrix([[1, 2], [3, 4]])) == z
    doubled = apply3(t, 2, 2, Matrix.diagonal([2, 2]))
    assert dense_entries(doubled) == [[2 * x for x in row] for row in dense_entries(t)]
    with pytest.raises(DimensionMismatch):
        apply3(t, 2, 1, Matrix([[1, 2, 3]]))


def test_zero_dim_edge_cases():
    e = Matrix([], rows=0, cols=0)
    assert kron(e, Matrix.identity(2)) == Matrix([], rows=0, cols=0)
    v = hio.load_matrix([], nesting=1)
    assert (v.rows, v.cols) == (0, 1) and v.to_json() == [] and sparse_columns(v) == ([[]], 1)
    t = Matrix.from_tensor([[], []], (2, 0, 0))
    assert sparse_columns(t) == ([], 1) and hio.matrix_json(t, (2, 0, 0)) == [[], []]


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        mul(Matrix([[1]]), Matrix([[1, 2], [3, 4]]))
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]]).det()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_single_step_composite_matches_kron(data):
    # a map on legs first..stop-1 is I (x) A (x) I on the flat tensor basis,
    # also when it changes the number of legs or their dims
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    first = data.draw(st.integers(0, len(dims) - 1))
    stop = data.draw(st.integers(first + 1, len(dims)))
    out_dims = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
    blk = math.prod(dims[first:stop])
    a = data.draw(rand_matrix(math.prod(out_dims), blk))
    full = kron_all(Matrix.identity(math.prod(dims[:first])), a,
                    Matrix.identity(math.prod(dims[stop:])))
    cols, scale = composite([(sparse_columns(a), tuple(range(first, stop)), out_dims)],
                            dims).columns()
    assert Matrix.from_int_columns(cols, scale, full.rows) == full


def test_single_step_composite_rejects_bad_legs():
    step = sparse_columns(Matrix.identity(2))
    with pytest.raises(DimensionMismatch):
        composite([(step, (0, 2), None)], (2, 1, 1))
    with pytest.raises(DimensionMismatch):
        composite([(step, (0,), None)], (3, 2))


def test_first_differing_column_scales_and_witness():
    # (2 id) (x) (1/2 id) equals the identity although the int columns differ
    two, half = (sparse_columns(Matrix.diagonal([2, 2])),
                 sparse_columns(Matrix.diagonal([Fraction(1, 2)] * 3)))
    assert first_difference([(two, (0,), None), (half, (1,), None)], [], (2, 3)) is None
    # the flip differs from the identity first on e_0 (x) e_1
    flip = sparse_columns(flip_matrix(2, 2))
    assert first_difference([(flip, (0, 1), None)], [], (2, 2)) == (0, 1)
    with pytest.raises(DimensionMismatch):
        first_difference([(sparse_columns(Matrix([[1, 1]])), (0,), ())], [], (2,))


def test_first_key_refuses_composites_on_other_input_dims():
    # a key j * rows + r reads column j on the input legs of both sides
    with pytest.raises(DimensionMismatch) as err:
        first_key(composite([], (2, 3)), composite([], (3, 2)))
    assert str(err.value) == "composites on legs of dims (2, 3) and (3, 2)"


# on legs (2, 2): e_0 -> e_0 + e_1 and e_1 -> e_0 on leg 0, then the
# covector (1, -1) on leg 0, which cancels e_0 + e_1, then a map on both legs
CANCELLING = [(([[(0, 1), (1, 1)], [(0, 1)]], 1), (0,), None),
              (([[(0, 1)], [(0, -1)]], 1), (0,), (1,)),
              (([[(0, 2), (1, 1)], [(1, 3)]], 1), (0, 1), None)]
CANCELLED_COLUMNS = [[], [], [(0, 2), (1, 1)], [(1, 3)]]


def test_a_step_that_cancels_leaves_no_zero():
    dims = (2, 2)
    plan = composite(CANCELLING, dims)._plan
    batch = {j * 4 + j: 1 for j in range(4)}
    for k in range(len(plan) + 1):
        for vec in ({0: 1}, batch):
            assert 0 not in linalg._run(plan[:k], vec).values()
    # column 0 reaches the covector as e_0 + e_1, so it cancels there
    assert linalg._run(plan[:2], {0: 1}) == {}
    assert linalg._run(plan, {0: 1}) == {}
    assert composite(CANCELLING, dims).columns() == (CANCELLED_COLUMNS, 1)
    assert columns_by_column(CANCELLING, dims) == (CANCELLED_COLUMNS, 1)
    same = [((CANCELLED_COLUMNS, 1), (0, 1), (2,))]
    off = [(([[], [(0, 1)]] + CANCELLED_COLUMNS[2:], 1), (0, 1), (2,))]
    for rhs, witness in ((same, None), (off, (0, 1))):
        assert first_difference(CANCELLING, rhs, dims) == witness
        assert first_difference_by_column(CANCELLING, rhs, dims) == witness


@pytest.mark.parametrize("batch", [3, linalg.BATCH_COLUMNS])
@pytest.mark.parametrize("d", [1, 5, 256, 257, 600])
def test_runs_per_composite_are_one_per_batch(d, batch):
    # each side of a passing comparison, and a composite built as columns,
    # runs once per batch of `batch` columns from column 0; a comparison
    # failing at column 0 runs the first batch alone
    steps = [(([[(j, 1)] for j in range(d)], 1), (0,), None)]
    batches = -(-d // batch)
    run = mock.Mock(side_effect=linalg._run)
    with mock.patch.object(linalg, "BATCH_COLUMNS", batch), \
            mock.patch.object(linalg, "_run", run):
        assert first_difference(steps, [], (d,)) is None
        assert run.call_count == 2 * batches
        run.reset_mock()
        composite(steps, (d,)).columns()
        assert run.call_count == batches
        run.reset_mock()
        doubled = [(([[(j, 2 if j == 0 else 1)] for j in range(d)], 1), (0,), None)]
        assert first_difference(steps, doubled, (d,)) == (0,)
        assert [len(vec) for (_, vec), _ in run.call_args_list] == [min(d, batch)] * 2


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
        expected = mul(kron_all(Matrix.identity(math.prod(d[:first])), a,
                                Matrix.identity(math.prod(d[stop:]))), expected)
        d = d[:first] + out + d[stop:]
    got = composite(steps, dims).matrix()
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
        first_difference([good, bad], [], dims)
    with pytest.raises(DimensionMismatch):
        first_difference([], [good, bad], dims)
    with pytest.raises(DimensionMismatch):
        composite([good, bad], dims).matrix()


# chains on legs of CUBE (64 columns): P and its inverse, Q and the flip
# have one entry per column on distinct rows, G and H two entries per column
CUBE = (4, 4, 4)
P = [[(1, 2)], [(2, -1)], [(3, 3)], [(0, 1)]], 3
Q = [[(3, 1)], [], [(0, -2)], [(1, 1)]], 2
FLIP = leg_flip(4, 4)


def _two_entries(rows, cols, scale=1):
    return [[(j % rows, 1), ((j + 1) % rows, j + 2)] for j in range(cols)], scale


G, H = _two_entries(4, 16, 2), _two_entries(4, 4)
ONE_ENTRY_CHAINS = {
    # P on leg 1, then G, whose block holds leg 1
    "P inside the next block": [(P, (1,), None), (G, (0, 1), (4,)), (H, (0,), None)],
    "P then Q on one leg": [(P, (2,), None), (Q, (2,), None), (G, (0, 1), (4,))],
    # P then its inverse on leg 0 is the identity, with a step between
    "P then its inverse": [(P, (0,), None), (H, (1,), None), (inverse_map(*P), (0,), None)],
    # P on leg 2 past G, which makes legs 0 and 1 one leg, then H on leg 1;
    # or past G landing in three legs
    "P past a step that merges legs": [(P, (2,), None), (G, (0, 1), (4,)), (H, (1,), None)],
    "P past a step that splits legs": [(P, (2,), None), (G, (0, 1), (2, 2, 2))],
    # a flip, then a step or a flip on part of its legs
    "a flip, then a step on part of its legs": [(FLIP, (0, 1), None), (G, (1, 2), (4,))],
    "two flips on overlapping legs": [(FLIP, (1, 2), None), (FLIP, (0, 1), None)],
    "Q last, on legs no step reads": [(G, (1, 2), (4,)), (Q, (0,), None)],
    # one entry per column but two on row 0: e_0 + e_1 + e_2 goes to e_1,
    # its e_0 and e_2 cancelling, so the next step meets e_1 alone
    "two columns on one row": [
        (([[(0, 1), (1, 1), (2, 1)], [(1, 1)], [(2, 1)], [(3, 1)]], 1), (0,), None),
        (([[(0, 1)], [(1, 1)], [(0, -1)], [(3, 1)]], 1), (0,), None),
        (([[(1, 1)], [(0, 1), (1, 1)], [(2, 1)], [(3, 1)]], 1), (0,), None)],
}


@pytest.mark.parametrize("chain", sorted(ONE_ENTRY_CHAINS))
def test_each_one_entry_chain_matches_one_step_at_a_time(chain):
    steps = ONE_ENTRY_CHAINS[chain]
    built = composite(steps, CUBE)
    got, expected = built.columns(), columns_by_column(steps, CUBE)
    assert same_columns(got, expected)
    assert got[1] == math.prod(m[1] for m, _, _ in steps)
    # the composite itself as one step, and that step with one entry changed
    whole = ((expected[0], expected[1]), (0, 1, 2), built.out_dims)
    assert first_difference(steps, [whole], CUBE) is None
    col = next(j for j, c in enumerate(expected[0]) if c)
    bumped = expected[0][:col] + [[(r, x + 1) for r, x in expected[0][col]]] + expected[0][col + 1:]
    rhs = [((bumped, expected[1]), (0, 1, 2), built.out_dims)]
    assert first_difference(steps, rhs, CUBE) == unflat_index(col, CUBE)
    assert first_difference_by_column(steps, rhs, CUBE) == unflat_index(col, CUBE)


@pytest.mark.parametrize("steps, message", [
    # 3 columns on a leg of dim 4, after two steps of one entry per column
    ([(FLIP, (0, 1), None), (P, (2,), None), (([[(0, 1)]] * 3, 1), (1,), None)],
     "map with 3 columns on legs (1,) of (4, 4, 4)"),
    # the dims named are those the steps as given leave
    ([(P, (2,), None), (G, (0, 1), (4,)), (P, (0, 1), None)],
     "map with 4 columns on legs (0, 1) of (4, 4)"),
    ([(P, (0,), None), (P, (3,), None)], "map with 4 columns on legs (3,) of (4, 4, 4)"),
])
def test_a_malformed_step_of_a_composite_names_the_steps_as_given(steps, message):
    with pytest.raises(DimensionMismatch) as raised:
        first_difference(steps, [], CUBE)
    assert str(raised.value) == message


@pytest.mark.parametrize("steps", [
    # every column empty, so both steps have one entry per column at most,
    # on a leg that is 0-dimensional between them
    [(([[]] * 4, 1), (0,), (0,)), (([], 1), (0,), (4,))],
    # a 0-dimensional leg after the legs of a flip, inside the block of the
    # next step
    [(FLIP, (0, 1), None), (([[]] * 4, 1), (2,), (0,)), (([], 1), (0, 1, 2), (4, 4, 0))],
])
def test_a_composite_through_a_zero_dimensional_leg_is_zero(steps):
    # a 64-column composite whose steps pass through a 0-dimensional leg
    # maps every column to 0, as the steps run one at a time do
    got = composite(steps, CUBE).columns()
    assert got == columns_by_column(steps, CUBE) == ([[]] * 64, 1)
    assert first_difference(steps, steps, CUBE) is None


def _column_lists(steps):
    """Copies of the column lists of every step, to see they stay as given."""
    return [[list(c) for c in cols] for (cols, _), _, _ in steps]


@pytest.mark.parametrize("dims, steps, other", [
    ((2, 2), CANCELLING, [(([[], [(0, 1)]] + CANCELLED_COLUMNS[2:], 1), (0, 1), (2,))]),
    (CUBE, ONE_ENTRY_CHAINS["P then its inverse"], ONE_ENTRY_CHAINS["two flips on overlapping legs"]),
    (CUBE, ONE_ENTRY_CHAINS["P inside the next block"],
     ONE_ENTRY_CHAINS["P past a step that merges legs"]),
], ids=["cancelling", "inverse pair", "cube"])
def test_a_composite_built_once_answers_every_reading_alike(dims, steps, other):
    # checked and planned once, a Composite runs its plan afresh on every
    # call: the same columns and matrix each time, as first_key gives the
    # same witness; every step's column lists stay as they were given
    before = _column_lists(steps + other)
    built = composite(steps, dims)
    answers = [(built.columns(), built.matrix(), first_difference(steps, other, dims))
               for _ in range(2)]
    assert answers[0] == answers[1]
    assert answers[0][0] == composite(steps, dims).columns()
    assert answers[0][2] == first_difference_by_column(steps, other, dims)
    assert _column_lists(steps + other) == before


def test_insert_and_pair_columns_match_kron():
    # u lands on a last leg of dim 1, then moves before x
    u = column_of([1, Fraction(1, 2), 0])
    assert (composite([(moved_columns(u, element_move(u)), (1,), (3, 1)),
                       (leg_flip(2, 3), (0, 1), (3, 2))], (2, 1)).matrix()
            == kron(u, Matrix.identity(2)))
    f = column_of([2, 0, Fraction(-1, 3)])
    assert (composite([(moved_columns(f, covector_move(f)), (1,), ())], (2, 3)).matrix()
            == kron(Matrix.identity(2), row_matrix(f)))


def test_sparse_columns_of_a_matrix_without_rows():
    assert sparse_columns(Matrix([], rows=0, cols=3)) == ([[], [], []], 1)


tensor_data = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda d: st.lists(st.lists(st.lists(rationals, min_size=d[2], max_size=d[2]),
                                min_size=d[1], max_size=d[1]), min_size=d[0], max_size=d[0]))


def _fresh_coproduct_columns(data):
    return int_columns([x for row in plane for x in row] for plane in data)


@settings(max_examples=60, deadline=None)
@given(tensor_data)
def test_every_tensor3_construction_gives_one_stored_form(data):
    # each way of making a three-leg map gives the Matrix of its
    # product-like map: equal, equally hashed and written, with a
    # coproduct-like reading equal to a fresh conversion
    d0, d1, d2 = len(data), len(data[0]), len(data[0][0])
    ref = Matrix.from_tensor(data)
    prod = Matrix([[data[c // d1][c % d1][k] for c in range(d0 * d1)] for k in range(d2)])
    cop = Matrix([[data[i][r // d2][r % d2] for i in range(d0)] for r in range(d1 * d2)])
    made = [Matrix.from_tensor(data), tensor(d0, d1, d2, lambda i, j, k: data[i][j][k]),
            linalg.Tensor3.from_function(d0, d1, d2, lambda i, j, k: data[i][j][k]),
            Matrix.from_int_columns(*_copied(prod), d2),
            Matrix.from_int_columns(*int_columns(r for plane in data for r in plane), d2),
            composite([(sparse_columns(prod), (0, 1), (d2,))], (d0, d1)).matrix(),
            composite([(sparse_columns(cop), (0,), (d1, d2))], (d0,)).coproduct(d1),
            load_tensor_field(hio.matrix_json(ref, (d0, d1, d2)))]
    for t in made:
        assert t == ref and ref == t and hash(t) == hash(ref)
        assert (t.rows, t.cols) == (d2, d0 * d1)
        assert t.to_json() == ref.to_json()
        assert dense_nested(t, d0, d1) == [[list(row) for row in plane] for plane in data]
        assert moved_columns(t, coproduct_move(t, d0)) == _fresh_coproduct_columns(data)


def test_loaded_mult_and_comult_fields_equal_the_built_tensors():
    # the loader stores product-like columns alone; the coproduct-like
    # reading is made on first ask and equals a fresh conversion
    for h in (fx.kz2(), fx.kz4_twisted(), fx.sweedler_scaled_twisted(2)):
        obj = hio.algebra_to_json(h)
        for field in ("mult", "comult"):
            t, built = load_tensor_field(obj[field]), getattr(h, field)
            assert t == built and hash(t) == hash(built)
            assert hio.matrix_json(t, (h.dim,) * 3) == obj[field]
            assert t.to_lists() == built.to_lists()
            assert t._moved is None
            nested = dense_nested(t, h.dim, h.dim)
            move = coproduct_move(t, h.dim)
            assert moved_columns(t, move) == _fresh_coproduct_columns(nested) \
                == moved_columns(built, move)


@pytest.mark.parametrize("build", HOPF_FIXTURES, ids=lambda f: f.__name__)
def test_fixture_tensors_built_from_int_columns_equal_the_built_ones(build):
    # every fixture's mult and comult, built from nested data and from int
    # columns: its product-like columns converted entry by entry, and the
    # product-like and coproduct-like maps as composites
    h = build()
    n = h.dim
    for t in (h.mult, h.comult):
        data = dense_nested(t, n, n)
        made = [Matrix.from_tensor(data),
                Matrix.from_int_columns(*fraction_int_columns(
                    row for plane in data for row in plane), n),
                composite([(sparse_columns(t), (0, 1), (n,))], (n, n)).matrix(),
                composite([(sparse_columns(coproduct_map(t, n)), (0,), (n, n))],
                          (n,)).coproduct(n)]
        for m in made:
            assert m == t and hash(m) == hash(t) and m.to_json() == t.to_json()
            assert moved_columns(m, coproduct_move(m, n)) == moved_columns(t, coproduct_move(t, n))


def test_three_leg_maps_compare_as_their_product_like_matrix():
    # a three-leg map is the Matrix of its product-like map, its split read
    # where it is used: nestings with the same rows and columns are one map
    assert Matrix.from_tensor([[[0]] * 3] * 2) == Matrix.from_tensor([[[0]] * 2] * 3)
    t = Matrix.from_tensor([[[1, "1/2"], [0, 3]], [[0, 0], [-1, 0]]])
    cols, scale = sparse_columns(t)
    m = Matrix.from_int_columns([list(c) for c in cols], scale, t.rows)
    assert m == t and hash(m) == hash(t) and m.to_json() == t.to_json()


def test_the_coproduct_reading_is_kept_for_the_dim_it_was_read_with():
    # the same move again, or an equal one, returns the kept columns;
    # another move (another first-leg dim, a flat reading) replaces them
    # with exactly what move_legs gives, over the Matrix's scale
    t = tensor(2, 3, 1, lambda i, j, k: Fraction(i + 10 * j, 2))
    move = coproduct_move(t, 2)
    first = moved_columns(t, move)
    assert moved_columns(t, move) is first and moved_columns(t, tuple(list(move))) is first
    assert t._moved == (move, first)
    cols, scale = sparse_columns(t)
    for other in (coproduct_move(t, 3), element_move(t), covector_move(t), move):
        read = moved_columns(t, other)
        assert read == (move_legs(cols, *other), scale) and t._moved == (other, read)
    assert read is not first and read == first
    assert moved_columns(t, coproduct_move(t, 3)) == _fresh_coproduct_columns(
        dense_nested(t, 3, 2))


def test_converted_and_inverted_maps_are_kept():
    m = Matrix([[1, 2], [3, Fraction(1, 2)]])
    assert m.inv() is m.inv()
    assert sparse_columns(m) is sparse_columns(m)
    t = Matrix.from_tensor([[[1, 0], [0, 2]], [[0, 3], [Fraction(1, 3), 0]]])
    assert sparse_columns(t) is sparse_columns(t)
    assert moved_columns(t, coproduct_move(t, 2)) is moved_columns(t, coproduct_move(t, 2))
    # a filled cache leaves equality and hashing to the data
    fresh_m, fresh_t = Matrix([[1, 2], [3, Fraction(1, 2)]]), Matrix(t.to_lists())
    assert m == fresh_m and hash(m) == hash(fresh_m)
    assert t == fresh_t and hash(t) == hash(fresh_t)
    assert m.inv() == fresh_m.inv()
    assert mul(m.inv(), m) == Matrix.identity(2)


def test_singular_matrix_raises_on_every_call():
    m = Matrix([[1, 2], [2, 4]])
    for _ in range(3):
        with pytest.raises(SingularMatrix):
            m.inv()


@st.composite
def three_ways(draw):
    """One rational matrix built three ways: from dense rows of ints,
    Fractions and "p/q" strings; as the Composite matrix of a step with a
    non-canonical scale and shuffled columns followed by a scaling step;
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
    built = composite([((cols, d * f.numerator * k), (0,), (r,))]
                      + [(sparse_columns(Matrix.diagonal([f] * r)), (0,), (r,))], (c,)).matrix()
    tuples = Matrix((tuple(Fraction(x) for x in row) for row in entries), r, c)
    return dense, built, tuples


@settings(max_examples=80, deadline=None)
@given(three_ways())
def test_equal_entries_mean_equal_stored_columns(ways):
    first = ways[0]
    for m in ways:
        assert m == first and hash(m) == hash(first)
        assert sparse_columns(m) == sparse_columns(first)
        assert sparse_columns(m) == linalg.int_columns(dense_columns(m))
    for m in ways:
        assert m.to_lists() == first.to_lists() and m.to_json() == first.to_json()
        assert all(type(x) is Fraction for row in m.to_lists() for x in row)


# ---------------------------------------------------------------------------
# det, inv and solve_exact against sympy's exact matrices

def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.to_lists() for x in row])


def from_sympy(values):
    return [Fraction(int(x.p), int(x.q)) for x in values]


@settings(max_examples=150, deadline=None)
@given(elimination_squares())
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


@settings(max_examples=150, deadline=None)
@given(elimination_systems())
def test_solve_exact_matches_sympy(system):
    a, b = system
    sa = to_sympy(a)
    sb = sympy.Matrix(a.rows, 1, [sympy.Rational(x.numerator, x.denominator) for x in b])
    x = solve_exact(a, b)
    if sa.rank() != sa.row_join(sb).rank():
        assert x is None
        return
    assert x is not None and mul(a, x) == b
    # sympy's parametric solution with every parameter 0: the free unknowns
    # are 0, as in solve_exact
    if a.cols:
        sol, params = sa.gauss_jordan_solve(sb)
        sol = sol.subs({p: 0 for p in params})
        assert list(x) == from_sympy(sol)


@pytest.mark.parametrize("method", ["transpose", "is_identity", "det", "inv"])
def test_a_three_leg_map_reads_as_one_matrix(method):
    # d0 * d1 = d2, so its product-like matrix is square and inverts: it is
    # that Matrix, read as any other
    t = tensor(2, 2, 4, lambda i, j, k: int(k == 2 * i + j) + i)
    assert getattr(t, method)() == getattr(Matrix.from_int_columns(*_copied(t), 4), method)()
