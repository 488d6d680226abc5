import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homlong import fixtures as fx
from homlong.linalg import Matrix, Tensor3, SingularMatrix
from homlong.longdimod import canonical_dimodule
from homlong.longeq import (HAlphaLongDimodule, OperatorOnTensorSquare,
                            SearchSpaceTooLarge, ZeroDiagonal,
                            check_invertible_iff, check_long_equation,
                            comodule_extension, coordinate_criterion,
                            coords_to_operator, diagonal_solution,
                            dimodule_solution, module_extension,
                            operator_to_coords, search_solutions, tau_transforms,
                            validate_halpha_dimodule)
from test_oracles import flip_matrix, leg12, leg23

nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(lambda x: x != 0)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def halpha_sign(kz2):
    d = fx.sign_dimodule()
    return HAlphaLongDimodule(kz2, 1, d.action, d.coaction, d.mu, d.basis)


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
    lhs = leg12(op.matrix, mu) * leg23(op.matrix, mu)
    rhs = leg23(op.matrix, mu) * leg12(op.matrix, mu)
    assert lhs.column(col) != rhs.column(col)


@settings(max_examples=50, deadline=None)
@given(st.lists(nonzero_rationals, min_size=2, max_size=3),
       st.data())
def test_diagonal_family_always_solves(a, data):
    n = len(a)
    b = Matrix([[data.draw(rationals) for _ in range(n)] for _ in range(n)])
    op = diagonal_solution(a, b)
    assert check_long_equation(op).ok
    assert op.classical == all(x == 1 for x in a)


def test_diagonal_rejects_zero():
    with pytest.raises(ZeroDiagonal):
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


def test_coordinate_criterion_scalar_case():
    x = [[[[Fraction(3)]]]]
    y = [[[[Fraction(5)]]]]
    rep = coordinate_criterion(x, y, Matrix([[2]]))
    assert rep.passed("index-identity") and rep.passed("operator-identity")
    assert rep.flags["agreement"]


def diagonal_coords(b, a):
    n = len(a)
    return [[[[b.data[k][l] * a[l] if (i == k and j == l) else Fraction(0)
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
            op = diagonal_solution([mu.data[i][i] for i in range(n)],
                                   Matrix([[Fraction(rnd.randint(-3, 3))
                                            for _ in range(n)] for _ in range(n)]))
        else:
            op = OperatorOnTensorSquare(
                n, Matrix([[Fraction(rnd.randint(-2, 2)) for _ in range(n * n)]
                           for _ in range(n * n)]), mu)
        transforms, rep = tau_transforms(op)
        assert rep.flags["all-agree"], k
        assert transforms["U"].matrix == flip_matrix(n, n) * op.matrix
        assert transforms["T"].matrix == op.matrix * flip_matrix(n, n)
        assert transforms["W"].matrix == flip_matrix(n, n) * op.matrix * flip_matrix(n, n)


def test_tau_transform_scalar():
    op = OperatorOnTensorSquare(1, Matrix([[4]]), Matrix([[3]]))
    _, rep = tau_transforms(op)
    assert rep.ok


def test_halpha_sign(kz2):
    d = halpha_sign(kz2)
    assert validate_halpha_dimodule(d).ok
    sol = dimodule_solution(d)
    assert sol.matrix == Matrix([[-1]])
    assert check_long_equation(sol).ok


def test_halpha_trivial(kz2):
    from homlong.longdimod import trivial_dimodule
    t = trivial_dimodule(kz2, kz2, Matrix.diagonal([1, 2]))
    d = HAlphaLongDimodule(kz2, t.dim, t.action, t.coaction, t.mu, t.basis)
    assert validate_halpha_dimodule(d).ok
    sol = dimodule_solution(d)
    # unit coaction: R(m (x) n) = 1.m (x) mu(n)-ish, here mu (x) mu
    assert sol.matrix == t.mu.kron(t.mu)
    assert check_long_equation(sol).ok


def test_halpha_bad_coaction(kz2):
    d = HAlphaLongDimodule(kz2, 1, Tensor3([[[1]], [[-1]]]),
                           Tensor3([[[1], [1]]]), Matrix.identity(1))
    assert not validate_halpha_dimodule(d).ok


def test_extensions_validate_and_solve(kz2, kz4t):
    cases = [
        module_extension(kz2, fx.sign_module()),
        module_extension(kz4t, fx.regular_module(kz4t)),
        comodule_extension(kz2, fx.sign_comodule()),
        comodule_extension(kz4t, fx.regular_comodule(kz4t)),
    ]
    for d in cases:
        assert validate_halpha_dimodule(d).ok
        assert check_long_equation(dimodule_solution(d)).ok


def test_extension_small_cases():
    k1 = fx.field_hopf()
    m = fx.regular_module(k1)
    e = module_extension(k1, m)
    assert e.dim == 1 and validate_halpha_dimodule(e).ok
    c = fx.regular_comodule(k1)
    e2 = comodule_extension(k1, c)
    assert e2.dim == 1 and validate_halpha_dimodule(e2).ok


def test_canonical_as_halpha_solution(kz2):
    cd = canonical_dimodule(kz2, kz2)
    d = HAlphaLongDimodule(kz2, cd.dim, cd.action, cd.coaction, cd.mu, cd.basis)
    assert validate_halpha_dimodule(d).ok
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
    assert search_solutions(Matrix.identity(2), [], "diagonal") == []


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
    assert sols[0].matrix.is_zero()
