import copy
import itertools
import json
import pathlib
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from homlong import fixtures as fx
from homlong import linalg, longeq
from homlong.linalg import (Matrix, Composite, DimensionMismatch, SingularMatrix,
                            sparse_columns)
from homlong.longdimod import canonical_dimodule, validate_long_dimodule
from homlong.longeq import (OperatorOnTensorSquare, SearchSpaceTooLarge,
                            check_invertible_iff, check_long_equation,
                            comodule_extension, coordinate_criterion,
                            coords_to_operator, diagonal_solution,
                            dimodule_solution, module_extension,
                            operator_to_coords, search_solutions, tau_transforms)
from homlong.repmod import Carrier, MismatchedBase
from homlong.report import compose
from test_oracles import (composite, dense_columns, first_difference, flip_matrix, kron, leg12,
                          leg23, leg_flip, longeq_first_failing_column, mul)

nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(lambda x: x != 0)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def halpha_sign(kz2):
    d = fx.sign_dimodule()
    return Carrier(kz2, kz2, 1, d.action, d.coaction, d.mu, d.basis, "halpha-dimodule")


def test_scalar_operator_passes():
    op = OperatorOnTensorSquare(1, Matrix([["7/3"]]), Matrix([[2]]))
    assert check_long_equation(op).ok


def test_flip_witness_is_genuine():
    mu = Matrix.diagonal([1, 2])
    op = OperatorOnTensorSquare(2, flip_matrix(2, 2), mu)
    rep = check_long_equation(op)
    assert not rep.ok
    u, v, w = rep.check("hom-long-eq").witness
    # re-check the witness independently: the two composites differ there
    col = u * 4 + v * 2 + w
    lhs = mul(leg12(op.matrix, mu), leg23(op.matrix, mu))
    rhs = mul(leg23(op.matrix, mu), leg12(op.matrix, mu))
    assert dense_columns(lhs)[col] != dense_columns(rhs)[col]


@settings(max_examples=50, deadline=None)
@given(st.lists(nonzero_rationals, min_size=2, max_size=3),
       st.data())
def test_diagonal_family_always_solves(a, data):
    n = len(a)
    b = Matrix([[data.draw(rationals) for _ in range(n)] for _ in range(n)])
    op = diagonal_solution(a, b)
    assert check_long_equation(op).ok
    assert op.structure_map.is_identity() == all(x == 1 for x in a)


def test_diagonal_rejects_zero():
    # a zero entry makes mu singular, which the operator refuses
    with pytest.raises(SingularMatrix, match="structure map is singular"):
        diagonal_solution([1, 0], Matrix.identity(2))


def test_invertible_iff():
    ds = diagonal_solution([1, 2], Matrix([[1, 3], [5, 7]]))
    rep = check_invertible_iff(ds)
    assert rep.passed("R-longeq") and rep.passed("Rinv-longeq")
    assert rep.flags["iff-consistent"]
    bad = OperatorOnTensorSquare(2, flip_matrix(2, 2), Matrix.diagonal([1, 2]))
    rep = check_invertible_iff(bad)
    assert not rep.passed("R-longeq") and not rep.passed("Rinv-longeq")
    assert rep.flags["iff-consistent"]
    singular = OperatorOnTensorSquare(1, Matrix([[0]]), Matrix([[1]]))
    with pytest.raises(SingularMatrix):
        check_invertible_iff(singular)


def test_invertible_iff_names_the_first_failing_triples():
    # demo 08's flip over mu = diag(1, 2): R and R^-1 both fail, each at
    # the triple its own operator keeps
    op = OperatorOnTensorSquare(2, flip_matrix(2, 2), Matrix.diagonal([1, 2]))
    rep = check_invertible_iff(op)
    inv = OperatorOnTensorSquare(2, op.matrix.inv(), op.structure_map)
    assert rep.check("R-longeq").witness == op.first_failing_triple() == (0, 0, 1)
    assert rep.check("Rinv-longeq").witness == inv.first_failing_triple() == (0, 0, 1)
    assert rep.flags["iff-consistent"]


def test_coordinate_criterion_scalar_case():
    x = [[[[Fraction(3)]]]]
    y = [[[[Fraction(5)]]]]
    rep = coordinate_criterion(x, y, Matrix([[2]]))
    assert rep.passed("index-identity") and rep.passed("operator-identity")
    assert rep.flags["agreement"]


def diagonal_coords(b, a):
    n, rows = len(a), b.to_lists()
    return [[[[rows[k][l] * a[l] if (i == k and j == l) else Fraction(0)
               for j in range(n)] for i in range(n)]
             for l in range(n)] for k in range(n)]


def test_coordinate_criterion_diagonal_family():
    a = [Fraction(1), Fraction(2)]
    b = Matrix([[2, 3], [4, 5]])
    x = diagonal_coords(b, a)
    rep = coordinate_criterion(x, x, Matrix.diagonal(a))
    assert rep.passed("index-identity") and rep.passed("operator-identity")
    assert rep.flags["agreement"] and rep.flags["self-case"]
    assert rep.flags["mu-equivariant"]
    # the encoded operator is the diagonal solution itself
    op = coords_to_operator(x, Matrix.diagonal(a))
    assert op.matrix == diagonal_solution(a, b).matrix


def test_coordinate_criterion_forced_failure():
    z = Matrix.diagonal([1, 2])
    flip_x = [[[[Fraction(1) if (i == l and j == k) else Fraction(0)
                 for j in range(2)] for i in range(2)]
               for l in range(2)] for k in range(2)]
    rep = coordinate_criterion(flip_x, flip_x, z)
    assert not rep.passed("operator-identity")
    assert not rep.passed("index-identity")
    assert rep.flags["agreement"]


# the operators on the {0,1} grid at mu = diag(1,2) whose coordinates pass
# the index identity while the operator identity fails (rows of R as bits);
# a sweep of all 65 536 finds exactly these
README_CRITERION_DISAGREEMENTS = (
    ("0000", "0000", "1000", "0100"), ("0000", "0000", "1000", "1100"),
    ("0000", "1000", "0000", "0010"), ("0000", "1100", "0000", "0011"),
    ("0010", "0001", "0000", "0000"), ("0011", "0001", "0000", "0000"),
    ("0100", "0000", "0001", "0000"), ("0100", "0100", "0001", "0001"),
    ("0100", "1000", "0001", "0010"), ("0100", "1100", "0001", "0011"),
    ("1000", "1000", "0010", "0010"), ("1000", "1100", "0010", "0011"),
    ("1100", "0000", "0011", "0000"), ("1100", "0100", "0011", "0001"),
    ("1100", "1000", "0011", "0010"), ("1100", "1100", "0011", "0011"),
)


def test_readme_coordinate_criterion_finding():
    mu = Matrix.diagonal([1, 2])
    assert len(set(README_CRITERION_DISAGREEMENTS)) == 16
    for bits in README_CRITERION_DISAGREEMENTS:
        op = OperatorOnTensorSquare(2, Matrix([[int(b) for b in row] for row in bits]), mu)
        x = operator_to_coords(op)
        rep = coordinate_criterion(x, x, mu)
        assert rep.passed("index-identity") and not rep.passed("operator-identity"), bits
        assert not rep.flags["agreement"] and not rep.flags["mu-equivariant"], bits


def test_criterion_and_transforms_form_no_dense_products(monkeypatch):
    # both run on int columns: no Fraction matrix of a composite
    def refuse(*args):
        raise AssertionError("dense product")

    for reading in ("matrix", "coproduct"):
        monkeypatch.setattr(Composite, reading, refuse)
    rnd = random.Random(3)
    mu = Matrix([[1, 2], [-1, "1/2"]])
    op = OperatorOnTensorSquare(2, Matrix([[rnd.randint(-1, 1) for _ in range(4)]
                                           for _ in range(4)]), mu)
    x = operator_to_coords(op)
    y = [[[[e + 1 for e in c] for c in b] for b in a] for a in x]
    coordinate_criterion(x, y, mu)
    tau_transforms(op)


def test_coords_round_trip():
    rnd = random.Random(5)
    z = Matrix.diagonal([1, 2])
    mat = Matrix([[Fraction(rnd.randint(-3, 3)) for _ in range(4)] for _ in range(4)])
    op = OperatorOnTensorSquare(2, mat, z)
    x = operator_to_coords(op)
    assert coords_to_operator(x, z).matrix == mat


def test_tau_transform_verdicts_agree_random():
    rnd = random.Random(7)
    for k in range(60):
        n = 2
        mu = Matrix.diagonal([rnd.choice([1, 2, 3, -1]) for _ in range(n)])
        if k % 2 == 0:
            op = diagonal_solution([mu[i, i] for i in range(n)],
                                   Matrix([[Fraction(rnd.randint(-3, 3))
                                            for _ in range(n)] for _ in range(n)]))
        else:
            op = OperatorOnTensorSquare(
                n, Matrix([[Fraction(rnd.randint(-2, 2)) for _ in range(n * n)]
                           for _ in range(n * n)]), mu)
        transforms, rep = tau_transforms(op)
        assert rep.flags["all-agree"], k
        assert transforms["U"].matrix == mul(flip_matrix(n, n), op.matrix)
        assert transforms["T"].matrix == mul(op.matrix, flip_matrix(n, n))
        assert transforms["W"].matrix == mul(flip_matrix(n, n), op.matrix, flip_matrix(n, n))


def test_tau_transform_scalar():
    op = OperatorOnTensorSquare(1, Matrix([[4]]), Matrix([[3]]))
    _, rep = tau_transforms(op)
    assert rep.ok


@st.composite
def grid_mus(draw, n):
    """An identity, diagonal or unipotent structure map, as the search grids
    use them."""
    kind = draw(st.sampled_from(("identity", "diagonal", "unipotent")))
    entry = st.sampled_from((1, -1, 2, 3, Fraction(1, 2)))
    if kind == "identity":
        return Matrix.identity(n)
    if kind == "diagonal":
        return Matrix.diagonal([draw(entry) for _ in range(n)])
    return Matrix([[1 if i == j else (draw(st.sampled_from((0, 1, -2))) if j > i else 0)
                    for j in range(n)] for i in range(n)])


@st.composite
def grid_or_arbitrary_operators(draw, n):
    """An operator on M (x) M with entries on a {0, 1} or {-1, 0, 1} grid
    (full or diagonal), or arbitrary small rationals."""
    n2 = n * n
    kind = draw(st.sampled_from(("full grid", "diagonal grid", "arbitrary")))
    entry = (st.sampled_from((0, 1)) if draw(st.booleans()) else st.sampled_from((-1, 0, 1))) \
        if kind != "arbitrary" else rationals
    return Matrix([[draw(entry) if kind != "diagonal grid" or r == c else 0
                    for c in range(n2)] for r in range(n2)])


def _int_columns_matrix(step, rows):
    """The Matrix of a composite's int columns (cols, scale), its lists
    copied."""
    cols, scale = step
    return Matrix.from_int_columns([list(c) for c in cols], scale, rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabelled_legs_match_leg_step_composites(data):
    # tau writes the U- and T-equations on R itself, relabelling its legs;
    # each side equals the composite that applies X12 = x (x) mu,
    # X13 = P X12 P (P the flip of the last two legs), X23 = mu (x) x and
    # the cycle x (x) y (x) z -> z (x) x (x) y as leg steps, for x = U and
    # T, and each check names the first triple on which those composites
    # differ
    n = data.draw(st.sampled_from((1, 2, 3)))
    mu = data.draw(grid_mus(n))
    op = OperatorOnTensorSquare(n, data.draw(grid_or_arbitrary_operators(n)), mu)
    spy = mock.Mock(side_effect=longeq.Identity)
    with mock.patch.object(longeq, "Identity", spy):
        transforms, rep = tau_transforms(op)
    identities = {c.args[0]: c.args for c in spy.call_args_list}
    dims, m, flip = (n, n, n), sparse_columns(mu), leg_flip(n, n)
    cyc = leg_flip(n * n, n), (0, 1, 2), None
    for key in ("U", "T"):
        x = sparse_columns(transforms[key].matrix)
        x12 = (composite([(x, (0, 1), None), (m, (2,), None)], dims).columns(), (0, 1, 2), None)
        x13 = (composite([(flip, (1, 2), None), (x, (0, 1), None), (m, (2,), None),
                          (flip, (1, 2), None)], dims).columns(), (0, 1, 2), None)
        x23 = (composite([(m, (0,), None), (x, (1, 2), None)], dims).columns(), (0, 1, 2), None)
        # U13 U23 = cycle U13 U12 and T12 T13 = T23 T13 cycle
        lhs, rhs = ([x23, x13], [x12, x13, cyc]) if key == "U" else ([x13, x12], [cyc, x13, x23])
        axiom, legs, named_lhs, named_rhs = identities["transform-" + key]
        assert legs == dict(x=range(n), y=range(n), z=range(n))
        for named, steps in ((named_lhs, lhs), (named_rhs, rhs)):
            got = compose(legs, named, "x y z").columns()
            assert (_int_columns_matrix(got, n ** 3)
                    == _int_columns_matrix(composite(steps, dims).columns(), n ** 3))
        witness = first_difference(lhs, rhs, dims)
        assert rep.check(axiom) == (axiom, witness is None, witness)


def test_flip_transforms_and_criterion_cost():
    # tau_transforms runs no Composite: its equations are Identities on R,
    # which read R's columns with no leg moved, and R and W are each
    # decided once; the only legs it moves are those of the matrices U, T
    # and W, one move each; coordinate_criterion reads each coordinate
    # tensor once, and y not at all when it is x, runs R's columns once a
    # call and moves no legs: both its identities are kernel runs
    mu = Matrix([[1, 1, 0], [0, 1, -2], [0, 0, 1]])
    op = search_solutions(mu, [0, 1], "diagonal")[-1]
    undecided = OperatorOnTensorSquare(op.carrier_dim, op.matrix, mu)
    runs = mock.Mock(side_effect=Composite.columns)
    kernel = mock.Mock(side_effect=longeq._first_failing_column)
    moves = mock.Mock(side_effect=linalg.move_legs)
    with mock.patch.object(Composite, "columns", autospec=True, side_effect=runs), \
            mock.patch.object(longeq, "_first_failing_column", kernel), \
            mock.patch.object(longeq, "move_legs", moves), \
            mock.patch.object(linalg, "move_legs", moves):
        transforms, rep = tau_transforms(undecided)
        assert rep.ok and kernel.call_count == 2 and moves.call_count == 3
        assert transforms["W"].first_failing_triple() is None
        assert undecided.first_failing_triple() is None
    assert runs.call_count == 0 and kernel.call_count == 2
    x = operator_to_coords(op)
    reads = mock.Mock(side_effect=longeq.int_columns)
    moves.reset_mock()
    with mock.patch.object(longeq, "int_columns", reads), \
            mock.patch.object(Composite, "columns", autospec=True, side_effect=runs), \
            mock.patch.object(longeq, "move_legs", moves), \
            mock.patch.object(linalg, "move_legs", moves):
        for call in range(3):
            runs.reset_mock()
            coordinate_criterion(x, x, Matrix(mu.to_lists()))
            # R's columns, on every call
            assert runs.call_count == 1, call
        assert reads.call_count == 3
        reads.reset_mock()
        coordinate_criterion(x, copy.deepcopy(x), mu)
        assert reads.call_count == 2
    assert moves.call_count == 0


def _kernel_runs(f, *args):
    """f(*args) and the number of runs of the Hom-Long kernel it made."""
    runs = mock.Mock(side_effect=longeq._first_failing_column)
    with mock.patch.object(longeq, "_first_failing_column", runs):
        out = f(*args)
    return out, runs.call_count


# a cyclic permutation of four basis vectors: a monomial mu, whose grid
# solutions have one entry per column, so the single-term kernel decides them
CYCLE4 = Matrix([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])


@pytest.mark.parametrize("mu, values, shape, count", [
    (Matrix([[1, 1], [0, 1]]), (0, 1), "full", 19),
    (Matrix([[1, 1, 0], [0, 1, -2], [0, 0, 1]]), (0, 1), "diagonal", 14),
    (CYCLE4, (1, -1), "diagonal", 8),
])
def test_search_results_come_back_decided(mu, values, shape, count):
    # the search's re-check decides each solution; check_long_equation and
    # the base check of tau_transforms read that verdict, and only W, a new
    # operator, is decided there, and comes back decided
    single = mock.Mock(side_effect=longeq._first_single_term_difference)
    with mock.patch.object(longeq, "_first_single_term_difference", single):
        sols, runs = _kernel_runs(search_solutions, mu, list(values), shape)
    assert len(sols) == count and runs >= count
    assert (single.call_count >= count) == (mu.rows >= 4)
    for s in sols:
        rep, runs = _kernel_runs(check_long_equation, s)
        assert rep.ok and runs == 0
        (transforms, rep), runs = _kernel_runs(tau_transforms, s)
        assert rep.ok and rep.flags["all-agree"] and runs == 1
        w = transforms["W"]
        assert _kernel_runs(check_long_equation, w) == (check_long_equation(replace(w)), 0)


def test_check_invertible_iff_decides_r_once():
    op = OperatorOnTensorSquare(2, flip_matrix(2, 2), Matrix.diagonal([1, 2]))
    fresh, runs = _kernel_runs(check_invertible_iff, op)
    assert runs == 2        # R and R^-1
    assert _kernel_runs(check_invertible_iff, op) == (fresh, 1)
    assert _kernel_runs(check_long_equation, op)[1] == 0
    other = replace(op)
    check_long_equation(other)
    assert _kernel_runs(check_invertible_iff, other) == (fresh, 1)


@pytest.mark.parametrize("rows, mu", [
    ([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], [[1, 0], [0, 1]]),
    ([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], [[1, 0], [0, 2]]),
    ([["1/2", 0, 0, 0], [0, 3, 0, 0], [0, 0, -1, 0], [0, 0, 0, 2]], [[1, 0], [0, "2/3"]]),
])
def test_a_kept_verdict_is_not_a_field(rows, mu):
    # a decided operator equals, hashes and prints as an undecided equal one;
    # replace gives an undecided operator, and a copy or a pickle keeps the
    # verdict
    decided, undecided = (OperatorOnTensorSquare(2, Matrix(rows), Matrix(mu)) for _ in range(2))
    rep = check_long_equation(decided)
    assert decided == undecided and hash(decided) == hash(undecided)
    assert repr(decided) == repr(undecided)
    assert {decided: 1}[undecided] == 1
    assert _kernel_runs(check_long_equation, replace(decided)) == (rep, 1)
    for kept in (copy.copy(decided), copy.deepcopy(decided),
                 pickle.loads(pickle.dumps(decided))):
        assert kept == decided
        assert _kernel_runs(check_long_equation, kept) == (rep, 0)
    assert _kernel_runs(check_long_equation, pickle.loads(pickle.dumps(undecided))) == (rep, 1)


@pytest.mark.parametrize("entries", [
    [[1, "1/2", 0], [0, 2, 0], [0, 0, -1]],
    [[2, 0, 0], [1, 1, 0], [0, "-3/2", 1]],
])
def test_equal_structure_maps_give_equal_criteria(entries):
    # equal but distinct mu objects, read from ints, Fractions and "p/q"
    # strings, give byte-identical criterion reports and equal operators,
    # whether or not the Matrix has its inverse kept from an earlier call
    mu = Matrix(entries)
    ops = search_solutions(mu, [0, 1], "diagonal")
    xs = [operator_to_coords(s) for s in ops[:4]]
    xs.append([[[[Fraction(k + l - i * j, 1 + i) for j in range(3)] for i in range(3)]
                for l in range(3)] for k in range(3)])
    fresh = [json.dumps(_report_json(coordinate_criterion(x, x, Matrix(entries)))) for x in xs]
    for twin in (Matrix([[Fraction(e) for e in row] for row in entries]),
                 Matrix([[str(Fraction(e)) for e in row] for row in entries]), mu):
        assert twin == mu and hash(twin) == hash(mu)
        for x, want in zip(xs, fresh):
            assert json.dumps(_report_json(coordinate_criterion(x, x, twin))) == want
            assert coords_to_operator(x, twin) == coords_to_operator(x, mu)


def test_criterion_refuses_mis_shaped_coordinates():
    # a larger, a smaller and a ragged tensor are refused where they enter,
    # naming the n x n x n x n shape, not read in part
    mu3 = Matrix([[1, 1, 0], [0, 1, -2], [0, 0, 1]])
    x3 = operator_to_coords(search_solutions(mu3, [0, 1], "diagonal")[-1])
    x2 = operator_to_coords(OperatorOnTensorSquare(2, flip_matrix(2, 2), Matrix.identity(2)))
    ragged = copy.deepcopy(x2)
    ragged[1][0][1].append(0)
    short = copy.deepcopy(x2)
    del short[0][1][0][1]
    missing = copy.deepcopy(x2)
    missing[1].pop()
    cases = [(x3, Matrix.identity(2), "2x2x2x2"), (x2, mu3, "3x3x3x3"),
             (ragged, Matrix.identity(2), "2x2x2x2"), (short, Matrix.identity(2), "2x2x2x2"),
             (missing, Matrix.identity(2), "2x2x2x2"), (x2[:1], Matrix.identity(2), "2x2x2x2")]
    for x, mu, shape in cases:
        for call in (lambda: coordinate_criterion(x, x, mu),
                     lambda: coordinate_criterion(x2 if mu.rows == 2 else x3, x, mu),
                     lambda: coords_to_operator(x, mu)):
            with pytest.raises(DimensionMismatch, match="coordinate tensor is not " + shape):
                call()


def _mixed(x):
    """The coordinates x written as ints where integral, otherwise as
    Fractions and "p/q" strings in turn."""
    turn = itertools.count()
    return [[[[int(e) if e.denominator == 1 else
               e if next(turn) % 2 else "%d/%d" % (e.numerator, e.denominator)
               for e in c] for c in b] for b in a] for a in x]


@pytest.mark.parametrize("rows, mu", [
    ([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], [[1, 0], [0, "1/2"]]),
    ([[2, "1/2", 0, 0], [0, 1, 0, 0], [0, 0, "-3/2", 0], [0, 0, 0, 1]], [[1, 1], [0, 1]]),
    ([["1/3", 0, 1, 0], [0, 2, 0, 0], [0, 0, 1, "5/2"], [1, 0, 0, 4]], [[2, 0], [0, "1/2"]]),
])
def test_criterion_reads_equal_coordinates_alike(rows, mu):
    # y is x, an equal copy of x, and the same values as ints, Fractions and
    # "p/q" strings: one report; a bool or a float entry is refused
    mu = Matrix(mu)
    x = operator_to_coords(OperatorOnTensorSquare(2, Matrix(rows), mu))
    y = _mixed(x)
    assert any(type(e) is str for a in y for b in a for c in b for e in c)
    reports = [_report_json(coordinate_criterion(x, other, mu))
               for other in (x, copy.deepcopy(x), y)]
    assert reports[0]["flags"]["self-case"]
    assert reports[1] == reports[0] and reports[2] == reports[0]
    for bad in (True, 1.0):
        y[1][0][1][1] = bad
        with pytest.raises(TypeError):
            coordinate_criterion(x, y, mu)
        with pytest.raises(TypeError):
            coordinate_criterion(y, y, mu)


def test_halpha_sign(kz2):
    d = halpha_sign(kz2)
    assert validate_long_dimodule(d).ok
    sol = dimodule_solution(d)
    assert sol.matrix == Matrix([[-1]])
    assert check_long_equation(sol).ok


def test_halpha_trivial(kz2):
    from homlong.longdimod import trivial_dimodule
    t = trivial_dimodule(kz2, kz2, Matrix.diagonal([1, 2]))
    d = replace(t, kind="halpha-dimodule")
    assert validate_long_dimodule(d).ok
    sol = dimodule_solution(d)
    # unit coaction: R(m (x) n) = 1.m (x) mu(n)-ish, here mu (x) mu
    assert sol.matrix == kron(t.mu, t.mu)
    assert check_long_equation(sol).ok


def test_halpha_dimodule_is_a_long_dimodule_over_h_h(kz2):
    sd = fx.sign_dimodule()
    d = halpha_sign(kz2)
    assert d.B is d.H is kz2 and d.kind == "halpha-dimodule"
    assert d == halpha_sign(kz2) and hash(d) == hash(halpha_sign(kz2))
    # the kind is kept, so it never equals the same data as a long-dimodule
    same = Carrier(kz2, kz2, 1, sd.action, sd.coaction, sd.mu, sd.basis)
    assert same.kind == "long-dimodule"
    assert d != same and same != d
    assert validate_long_dimodule(d) == validate_long_dimodule(same)
    # replace keeps the kind, and so refuses a second structure
    assert replace(d, mu=Matrix([[2]])).kind == "halpha-dimodule"
    with pytest.raises(MismatchedBase, match="^a halpha-dimodule lives over one structure"):
        replace(d, B=replace(kz2, basis=("e", "f")))


def test_halpha_bad_coaction(kz2):
    d = Carrier(kz2, kz2, 1, Matrix.from_tensor([[[1]], [[-1]]]), Matrix.from_tensor([[[1], [1]]]),
                Matrix.identity(1), kind="halpha-dimodule")
    assert not validate_long_dimodule(d).ok


def test_extensions_validate_and_solve(kz2, kz4t):
    cases = [
        module_extension(kz2, fx.sign_module()),
        module_extension(kz4t, fx.regular_module(kz4t)),
        comodule_extension(kz2, fx.sign_comodule()),
        comodule_extension(kz4t, fx.regular_comodule(kz4t)),
    ]
    for d in cases:
        assert validate_long_dimodule(d).ok
        assert check_long_equation(dimodule_solution(d)).ok


def test_extension_small_cases():
    k1 = fx.field_hopf()
    m = fx.regular_module(k1)
    e = module_extension(k1, m)
    assert e.dim == 1 and validate_long_dimodule(e).ok
    c = fx.regular_comodule(k1)
    e2 = comodule_extension(k1, c)
    assert e2.dim == 1 and validate_long_dimodule(e2).ok


def test_canonical_as_halpha_solution(kz2):
    cd = canonical_dimodule(kz2, kz2)
    d = replace(cd, kind="halpha-dimodule")
    assert validate_long_dimodule(d).ok
    assert check_long_equation(dimodule_solution(d)).ok


def test_search_diagonal_identity():
    sols = search_solutions(Matrix.identity(2), [0, 1], "diagonal")
    assert len(sols) == 16
    for s in sols:
        assert check_long_equation(s).ok


def test_search_diagonal_n3():
    sols = search_solutions(Matrix.diagonal([1, 2, 3]), [0, 1], "diagonal")
    assert len(sols) == 2 ** 9     # every diagonal candidate solves


def test_search_empty_set():
    # an empty grid has nothing to search, so the full shape at n >= 3 is not
    # refused as too large
    for n in (1, 2, 3, 4):
        for shape in ("diagonal", "full"):
            assert search_solutions(Matrix.identity(n), [], shape) == []


def test_search_deduplicates_grid():
    sols = search_solutions(Matrix.identity(2), [0, 1, 1, "2/2"], "diagonal")
    assert len(sols) == 16


def test_search_caps():
    with pytest.raises(SearchSpaceTooLarge) as exc:
        search_solutions(Matrix.identity(3), [0, 1], "full")
    assert exc.value.cardinality == 2 ** 81
    with pytest.raises(SearchSpaceTooLarge):
        search_solutions(Matrix.identity(4), [0, 1, 2], "diagonal")
    with pytest.raises(SingularMatrix):
        search_solutions(Matrix.zeros(2, 2), [0, 1], "diagonal")


def test_search_full_small_grid():
    # {0,1} over mu = I2: results agree with the one-by-one checker
    sols = search_solutions(Matrix.identity(2), [0], "full")
    assert len(sols) == 1          # the zero operator solves trivially
    assert sols[0].matrix == Matrix.zeros(sols[0].matrix.rows, sols[0].matrix.cols)


@pytest.mark.parametrize("mu, count", [([[1, 0], [0, 1]], 665), ([[1, 0], [0, 2]], 109),
                                       ([[1, 1], [0, 1]], 111)])
def test_search_full_over_signs(mu, count):
    # 3^16 candidates, above SEARCH_CAP, so the search runs on the node budget
    full = [s.matrix.to_lists() for s in search_solutions(Matrix(mu), [-1, 0, 1], "full")]
    assert len(full) == count
    assert full == sorted(full)    # grid order: -1, 0, 1 is ascending
    for rows in full:
        assert longeq_first_failing_column(rows, rows, mu) is None
    diagonal = search_solutions(Matrix(mu), [-1, 0, 1], "diagonal")
    assert diagonal and all(s.matrix.to_lists() in full for s in diagonal)


def test_search_budget_covers_derivation():
    # deriving the constraints for 64 unknowns at n = 8 takes 2^21 kernel
    # evaluations, over the budget: refused before it starts
    with pytest.raises(SearchSpaceTooLarge) as exc:
        search_solutions(Matrix.identity(8), [0, 1], "diagonal")
    assert exc.value.cardinality == 2 ** 64
    # one value: a single candidate, decided by the kernel alone
    sols = search_solutions(Matrix.identity(16), ["3/3"], "diagonal")
    assert len(sols) == 1 and sols[0].matrix == Matrix.identity(256)


# the structure maps of the search-grid benchmark: full n = 2 over {0,1} and
# diagonal n = 3 over {0,1,2}
LONGEQ_FAMILIES = ([("full", [[1, 0], [0, a]], (0, 1)) for a in (2, 3)]
                   + [("full", [[1, b], [0, 1]], (0, 1)) for b in (0, 1, -1)]
                   + [("diagonal", [[1, b, 0], [0, 1, c], [0, 0, 1]], (0, 1, 2))
                      for b in (1, 2) for c in (1, 2)])


def _report_json(rep):
    return {"checks": ["%s %s %r" % c.as_tuple() for c in rep.checks], "flags": rep.flags}


def _rows_json(m):
    return "; ".join(" ".join(map(str, row)) for row in m.to_json())


def longeq_reports():
    """{"<mu> <kind> <i>": ...} the coordinate_criterion and tau_transforms
    reports, with the U, T and W matrices, of every solution of each search
    family, and of three one-entry perturbations per family (each also as y
    against its solution's x, and as x against its y)."""
    out = {}
    for f, (shape, mu_rows, values) in enumerate(LONGEQ_FAMILIES):
        mu = Matrix(mu_rows)
        n = mu.rows
        label = _rows_json(mu).replace("; ", ";").replace(" ", ",")
        sols = search_solutions(mu, list(values), shape)
        rng = random.Random(f)
        cases = [("solution", i, s, None) for i, s in enumerate(sols)]
        for i in sorted(rng.sample(range(len(sols)), 3)):
            rows = sols[i].matrix.to_lists()
            r, c = rng.randrange(n * n), rng.randrange(n * n)
            rows[r][c] += rng.choice((-2, -1, 1, 2, Fraction(1, 2)))
            cases.append(("perturbed", i, OperatorOnTensorSquare(n, Matrix(rows), mu),
                          sols[i]))
        for kind, i, op, base in cases:
            x = operator_to_coords(op)
            transforms, rep = tau_transforms(op)
            entry = {"operator": _rows_json(op.matrix),
                     "criterion": _report_json(coordinate_criterion(x, x, mu)),
                     "tau": _report_json(rep)}
            entry.update((k, _rows_json(t.matrix)) for k, t in transforms.items())
            if base is not None:
                xb = operator_to_coords(base)
                entry["criterion-y"] = _report_json(coordinate_criterion(xb, x, mu))
                entry["criterion-x"] = _report_json(coordinate_criterion(x, xb, mu))
            out["%s %s %03d" % (label, kind, i)] = entry
    return out


def test_longeq_reports_match_golden():
    expected = (pathlib.Path(__file__).resolve().parent / "data"
                / "longeq_reports.json").read_text()
    assert json.dumps(longeq_reports(), indent=2, sort_keys=True) + "\n" == expected
