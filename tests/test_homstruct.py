import re
from dataclasses import replace

import pytest

from homlong import fixtures as fx
from homlong.linalg import DimensionMismatch, Matrix
from homlong.longdimod import base_parts, dimodule_morphism_report
from homlong.longeq import (OperatorOnTensorSquare, coordinate_criterion, coords_to_operator,
                            diagonal_solution, search_solutions)
from homlong.homstruct import (NotAutomorphism,
                               opposite_algebra, dual_hopf, tensor_hopf,
                               validate_all, validate_coquasitriangular,
                               validate_hom_algebra, validate_hom_bialgebra,
                               validate_hom_coalgebra, validate_hom_hopf,
                               validate_quasitriangular, yau_twist)

from test_oracles import tensor


def test_tower_passes_on_fixtures(kz2, kz4, kz4t, sweedler, sweedler_t):
    for h in (kz2, kz4, kz4t, sweedler, sweedler_t, fx.field_hopf(),
              fx.kz5_twisted(), fx.klein_hopf()):
        assert validate_all(h).ok


def test_algebra_mutation_witness(kz2):
    bad = replace(kz2.algebra, gamma=Matrix([[1, 0], [0, 2]]))
    rep = validate_hom_algebra(bad)
    assert not rep.passed("HA1-mult")
    assert rep.check("HA1-mult").witness == ("g", "g")


def test_coalgebra_mutation_witness(kz2):
    # counit sending g to 0 breaks the twisted counit law at g
    bad = replace(kz2.coalgebra, counit=Matrix([[1], [0]]))
    rep = validate_hom_coalgebra(bad)
    assert not rep.passed("HC2-counit")
    assert rep.check("HC2-counit").witness[1] == "g"


def test_bialgebra_mutation_witness(kz2):
    # scale g*g to 2: delta-mult then gives 2 vs 4 at (g, g)
    mult = tensor(2, 2, 2,
                                 lambda i, j, k: (2 if (i, j) == (1, 1) else 1)
                                 if k == (i + j) % 2 else 0)
    bad = replace(kz2, mult=mult, antipode=None)
    rep = validate_hom_bialgebra(bad)
    assert not rep.passed("delta-mult")
    assert rep.check("delta-mult").witness == ("g", "g")


def test_grouplike_to_skew_mutation(kz2):
    # redefining the coproduct of g as g (x) 1 leaves all four bialgebra
    # compatibility identities intact; the defect lives in the coalgebra
    # axioms (the twisted counit law fails at g)
    comult = tensor(2, 2, 2,
                                   lambda i, j, k: 1 if (i, j, k) in ((0, 0, 0), (1, 1, 0)) else 0)
    mutant = replace(kz2, comult=comult, antipode=None)
    assert validate_hom_bialgebra(mutant).ok
    rep = validate_hom_coalgebra(mutant.coalgebra)
    assert not rep.passed("HC2-counit")
    assert rep.check("HC2-counit").witness[1] == "g"


def test_hopf_mutation_witness(kz2):
    bad = replace(kz2, antipode=Matrix.zeros(2, 2))
    rep = validate_hom_hopf(bad)
    assert not rep.passed("antipode-left")
    assert rep.check("antipode-left").witness == ("1",)
    assert not rep.flags["antipode-invertible"]


# ---------------------------------------------------------------------------
# one structure type

def test_kind_follows_from_the_parts_set(kz2):
    assert kz2.kind == "hom-hopf"
    assert replace(kz2, antipode=None).kind == "hom-bialgebra"
    assert kz2.algebra.kind == "hom-algebra"
    assert kz2.coalgebra.kind == "hom-coalgebra"


def test_projections_clear_the_other_part_and_the_antipode(kz2):
    alg, coa = kz2.algebra, kz2.coalgebra
    assert (alg.mult, alg.unit, alg.comult, alg.counit, alg.antipode) == (
        kz2.mult, kz2.unit, None, None, None)
    assert (coa.mult, coa.unit, coa.comult, coa.counit, coa.antipode) == (
        None, None, kz2.comult, kz2.counit, None)
    for part in (alg, coa):
        assert (part.dim, part.gamma, part.basis) == (kz2.dim, kz2.gamma, kz2.basis)
    # a projection of a projection is itself
    assert alg.algebra == alg and coa.coalgebra == coa


def test_projections_of_equal_structures_are_equal_and_hash_equally(kz2):
    other = fx.kz2()
    assert other is not kz2 and other == kz2 and hash(other) == hash(kz2)
    for a, b in ((other.algebra, kz2.algebra), (other.coalgebra, kz2.coalgebra)):
        assert a == b and hash(a) == hash(b)
    assert kz2.algebra != kz2.coalgebra
    assert fx.kz4().algebra != fx.kz4_twisted().algebra


@pytest.mark.parametrize("change, message", [
    (dict(unit=None), "mult needs unit"),
    (dict(counit=None), "comult needs counit"),
    (dict(mult=None, unit=None, comult=None, counit=None, antipode=None),
     "needs gamma, and mult or comult"),
    (dict(gamma=None), "needs gamma"),
    (dict(mult=None, unit=None), "antipode needs both"),
    (dict(comult=None, counit=None), "antipode needs both"),
    (dict(mult=Matrix.zeros(3, 4)), "mult is 3x4, expected 2x4"),
    (dict(comult=Matrix.zeros(2, 6)), "comult is 2x6, expected 2x4"),
    (dict(unit=Matrix([[1], [0], [0]])), "unit is 3x1, expected 2x1"),
    (dict(counit=Matrix([[1]])), "counit is 1x1, expected 2x1"),
    (dict(unit=Matrix.identity(2)), "unit is 2x2, expected 2x1"),
    (dict(counit=Matrix([[1, 1]])), "counit is 1x2, expected 2x1"),
    (dict(gamma=Matrix.identity(3)), "gamma is 3x3"),
    (dict(antipode=Matrix.zeros(2, 3)), "antipode is 2x3"),
    # a three-leg map where a two-leg one is due, and the reverse: each is
    # refused by its rows x cols, the product-like map's for a three-leg one
    (dict(gamma=fx.kz2().mult), "gamma is 2x4, expected 2x2"),
    (dict(unit=fx.kz2().comult), "unit is 2x4, expected 2x1"),
    (dict(mult=Matrix.identity(2)), "mult is 2x2, expected 2x4"),
    (dict(basis=("1",)), "1 basis names for dim 2"),
])
def test_structure_refuses_incomplete_or_misshaped_fields(kz2, change, message):
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        replace(kz2, **change)


ZERO_COORDS = [[[[0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]

# each entry point that takes a map, beyond a structure's own maps (above)
# and a carrier's (test_longdimod.MISFITS), given one of the wrong shape or
# a three-leg map where a two-leg one is due, and its one refusal text
SHAPE_REFUSALS = {
    "phi": (lambda kz2: yau_twist(fx.kz4(), Matrix.identity(3)), "phi is 3x3, expected 4x4"),
    "phi-kind": (lambda kz2: yau_twist(fx.kz4(), fx.kz4().mult), "phi is 4x16, expected 4x4"),
    "R": (lambda kz2: validate_quasitriangular(kz2, Matrix.zeros(2, 3)), "R is 2x3, expected 2x2"),
    "R-kind": (lambda kz2: validate_quasitriangular(kz2, kz2.mult), "R is 2x4, expected 2x2"),
    "form": (lambda kz2: validate_coquasitriangular(kz2, Matrix.zeros(3, 2)),
             "form is 3x2, expected 2x2"),
    "morphism": (lambda kz2: dimodule_morphism_report(fx.sign_dimodule(), fx.sign_dimodule(),
                                                      Matrix.zeros(1, 2)),
                 "morphism is 1x2, expected 1x1"),
    "morphism-kind": (lambda kz2: dimodule_morphism_report(
        fx.sign_dimodule(), fx.sign_dimodule(), fx.sign_dimodule().action),
        "morphism is 1x2, expected 1x1"),
    "operator": (lambda kz2: OperatorOnTensorSquare(2, Matrix.identity(3), Matrix.identity(2)),
                 "operator matrix is 3x3, expected 4x4"),
    "operator-kind": (lambda kz2: OperatorOnTensorSquare(2, kz2.mult, Matrix.identity(2)),
                      "operator matrix is 2x4, expected 4x4"),
    "operator-mu": (lambda kz2: OperatorOnTensorSquare(2, Matrix.identity(4), Matrix.zeros(2, 3)),
                    "structure map is 2x3, expected 2x2"),
    "diagonal": (lambda kz2: diagonal_solution([1, 2], Matrix.identity(3)),
                 "coefficient matrix is 3x3, expected 2x2"),
    "search-mu": (lambda kz2: search_solutions(Matrix.zeros(2, 3), [0, 1], "diagonal"),
                  "structure map is 2x3, expected 2x2"),
    "coords-mu": (lambda kz2: coords_to_operator(ZERO_COORDS, Matrix.zeros(2, 3)),
                  "structure map is 2x3, expected 2x2"),
    "criterion-mu": (lambda kz2: coordinate_criterion(ZERO_COORDS, ZERO_COORDS,
                                                      Matrix.zeros(2, 3)),
                     "structure map is 2x3, expected 2x2"),
}


@pytest.mark.parametrize("case", sorted(SHAPE_REFUSALS))
def test_every_map_taking_entry_point_refuses_a_misshaped_map_in_one_text(kz2, case):
    build, message = SHAPE_REFUSALS[case]
    with pytest.raises(DimensionMismatch, match="^%s$" % re.escape(message)):
        build(kz2)


def test_base_parts_ignore_the_antipode(kz2):
    plain = replace(kz2, antipode=None)
    d = fx.sign_dimodule(kz2, kz2)
    assert base_parts(d) == base_parts(replace(d, H=plain, B=plain))
    assert base_parts(d) != base_parts(replace(d, B=replace(plain, basis=("a", "b"))))
    assert base_parts(d) != base_parts(replace(d, H=replace(kz2, gamma=Matrix.diagonal([1, -1]))))


def test_yau_twist_identity_returns_input(kz4):
    assert yau_twist(kz4, Matrix.identity(4)) == kz4


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 3), (5, 2), (5, 3), (6, 5)])
def test_yau_twist_group_automorphisms(n, k):
    # every unit k mod n gives a Hopf automorphism g -> g^k; the twist passes
    h = fx.group_hopf(n)
    phi = Matrix.from_function(n, n, lambda i, j: 1 if i == (k * j) % n else 0)
    assert validate_all(yau_twist(h, phi)).ok


@pytest.mark.parametrize("c", ["2", "-3", "1/2"])
def test_sweedler_scaled_twist(c):
    # an infinite-order twist on a noncommutative, noncocommutative base
    t = fx.sweedler_scaled_twisted(c)
    from test_oracles import mul
    assert not mul(t.gamma, t.gamma).is_identity()
    assert validate_all(t).ok
    d = dual_hopf(t)
    assert validate_all(d).ok
    dd = dual_hopf(d)
    assert dd.mult == t.mult and dd.comult == t.comult and dd.gamma == t.gamma


def test_yau_twist_rejects_non_automorphism(kz4):
    with pytest.raises(NotAutomorphism):
        yau_twist(kz4, Matrix.diagonal([1, 2, 1, 1]))
    with pytest.raises(NotAutomorphism):
        yau_twist(kz4, Matrix.zeros(4, 4))


def test_yau_twist_requires_classical_base(kz4t):
    with pytest.raises(NotAutomorphism):
        yau_twist(kz4t, fx.kz4_twist_map())


def test_twisted_structures_are_nontrivial(kz4t, sweedler_t):
    assert not kz4t.gamma.is_identity()
    assert not sweedler_t.gamma.is_identity()
    assert validate_all(kz4t).ok
    assert validate_all(sweedler_t).ok


def test_dual_hopf_of_group_algebra(kz2):
    d = dual_hopf(kz2)
    assert validate_all(d).ok
    # delta functions multiply pointwise: f^a * f^b = delta_ab f^a
    for a in range(2):
        for b in range(2):
            for k in range(2):
                expect = 1 if (a == b == k) else 0
                assert d.mult[k, a * 2 + b] == expect
    # unit of the dual is the counit vector
    assert d.unit == Matrix([[1], [1]])


def test_dual_hopf_one_dimensional():
    k = fx.field_hopf()
    d = dual_hopf(k)
    assert d.dim == 1 and validate_all(d).ok


def test_dual_hopf_twisted(kz4t):
    d = dual_hopf(kz4t)
    assert validate_all(d).ok
    assert d.gamma == fx.kz4_twist_map().inv().transpose()


def test_double_dual_is_original(kz2, kz4t, sweedler_t):
    for h in (kz2, kz4t, sweedler_t):
        dd = dual_hopf(dual_hopf(h))
        assert dd.mult == h.mult
        assert dd.comult == h.comult
        assert dd.unit == h.unit
        assert dd.counit == h.counit
        assert dd.gamma == h.gamma
        assert dd.antipode == h.antipode


def test_tensor_hopf(kz2, kz4t):
    klein = tensor_hopf(kz2, kz2)
    assert klein.dim == 4 and validate_all(klein).ok

    # matches the group algebra of the product group (Klein four group)
    def idx(a, b):
        return a * 2 + b
    for a1 in range(2):
        for b1 in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    out = idx((a1 + a2) % 2, (b1 + b2) % 2)
                    assert klein.mult[out, idx(a1, b1) * klein.dim + idx(a2, b2)] == 1
    tw = tensor_hopf(kz4t, kz2)
    assert validate_all(tw).ok
    from test_oracles import kron
    assert tw.gamma == kron(fx.kz4_twist_map(), Matrix.identity(2))


def test_dual_and_tensor_of_bialgebras_without_antipode(kz2, kz4t):
    # the antipode is passed through only when every factor has one
    bi2, bi4 = replace(kz2, antipode=None), replace(kz4t, antipode=None)
    d = dual_hopf(bi4)
    assert d.antipode is None and d.kind == "hom-bialgebra" and validate_all(d).ok
    assert d.mult == dual_hopf(kz4t).mult and d.comult == dual_hopf(kz4t).comult
    for h, b in ((bi2, kz4t), (kz2, bi4), (bi2, bi4)):
        t = tensor_hopf(h, b)
        assert t.antipode is None and validate_all(t).ok
        assert t.mult == tensor_hopf(kz2, kz4t).mult


def test_tensor_with_field_is_isomorphic(kz2):
    t = tensor_hopf(fx.field_hopf(), kz2)
    assert t.dim == kz2.dim
    assert t.mult == kz2.mult and t.comult == kz2.comult


def test_opposite_algebra(kz2, kz4t):
    # commutative: opposite equals itself
    assert opposite_algebra(kz2.algebra) == kz2.algebra
    op = opposite_algebra(dual_hopf(kz4t).algebra)
    assert validate_hom_algebra(op).ok
    assert opposite_algebra(op) == dual_hopf(kz4t).algebra
    sw = fx.sweedler_hopf().algebra
    assert opposite_algebra(sw) != sw
    assert opposite_algebra(opposite_algebra(sw)) == sw


def test_quasitriangular_rt(kz2):
    rep = validate_quasitriangular(kz2, fx.kz2_rmatrix())
    assert rep.ok
    assert rep.flags["triangular"] and rep.flags["convolution-invertible"]


def test_quasitriangular_unit_element(kz2, kz4t):
    for h in (kz2, kz4t):
        rep = validate_quasitriangular(h, fx.trivial_rmatrix(h))
        assert rep.ok and rep.flags["triangular"]


def test_quasitriangular_counterexample(kz2):
    # R = 1 (x) g: eps(R1) R2 = g != 1
    rep = validate_quasitriangular(kz2, Matrix([[0, 1], [0, 0]]))
    assert not rep.passed("QHA1")


def test_flip_invertibility_symmetry(kz2):
    # flip(R) is convolution-invertible iff R is, on the fixture set
    from test_oracles import col_to_matrix, element_col, flip_matrix, mul
    for r in (fx.kz2_rmatrix(), fx.trivial_rmatrix(kz2), Matrix([[0, 1], [0, 0]])):
        flipped = col_to_matrix(mul(flip_matrix(2, 2), element_col(r)), 2, 2)
        a = validate_quasitriangular(kz2, r).flags["convolution-invertible"]
        b = validate_quasitriangular(kz2, flipped).flags["convolution-invertible"]
        assert a == b


def test_coquasitriangular_form(kz2):
    rep = validate_coquasitriangular(kz2, fx.kz2_form())
    assert rep.ok and rep.flags["cotriangular"]


def test_coquasitriangular_counit_form(kz2, kz4t):
    for b in (kz2, kz4t):
        rep = validate_coquasitriangular(b, fx.trivial_form(b))
        assert rep.ok and rep.flags["cotriangular"]


def test_coquasitriangular_degenerate(kz2):
    rep = validate_coquasitriangular(kz2, Matrix([[1, 1], [1, 0]]))
    assert rep.passed("CHA4")
    assert not rep.flags["cotriangular"]


def test_validator_counts(kz2):
    assert len(validate_hom_algebra(kz2.algebra)) == 5
    assert len(validate_hom_coalgebra(kz2.coalgebra)) == 4
    assert len(validate_hom_bialgebra(kz2)) == 4
    assert len(validate_hom_hopf(kz2)) == 4
