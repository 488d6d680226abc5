import pytest

from homlong import braidcat, fixtures as fx
from homlong.linalg import Matrix
from homlong.homstruct import tensor_hopf
from homlong.repmod import check_yd, validate_hom_comodule, validate_hom_module
from homlong.longdimod import (MismatchedBase, canonical_dimodule, trivial_dimodule,
                               validate_long_dimodule)
from homlong.braidcat import (BraidingContext, DimoduleMorphism, InvalidContext,
                              NotAMorphism, check_braid_morphism,
                              check_braiding_compatibility, check_hexagons,
                              check_naturality, check_qybe, check_symmetry,
                              comodule_as_dimodule, hb_yd_structure, long_braiding,
                              long_braiding_inverse, module_as_dimodule)
from test_oracles import (dense_comodule_family_braiding, dense_module_family_braiding,
                          flip_matrix, mul, scaled)


@pytest.fixture(scope="module")
def roster(dimodules, scaled):
    return {**dimodules, "sign-x2": scaled["sign-x2"]}


def test_context_flags(ctx):
    assert ctx.valid and ctx.triangular and ctx.cotriangular


def test_invalid_context_rejected(kz2, dimodules):
    bad = BraidingContext(kz2, Matrix([[0, 1], [0, 0]]), kz2, fx.kz2_form())
    with pytest.raises(InvalidContext):
        long_braiding(bad, dimodules["sign"], dimodules["sign"])


def test_braiding_frozen_values(ctx, roster):
    # sign against sign: (-1 from the form) * (-1 from the action) = +1
    assert long_braiding(ctx, roster["sign"], roster["sign"]).matrix == Matrix([[1]])
    # scaled sign: the mu^-2 legs cancel against the scaled pairing, still +1
    assert long_braiding(ctx, roster["sign-x2"], roster["sign-x2"]).matrix == Matrix([[1]])


def test_braiding_trivial_context_is_flip():
    k1 = fx.field_hopf()
    ctx0 = BraidingContext(k1, Matrix([[1]]), k1, Matrix([[1]]))
    m = trivial_dimodule(k1, k1, Matrix.diagonal([1, 2]))
    n = trivial_dimodule(k1, k1, Matrix.diagonal([1, 3, 5]))
    assert long_braiding(ctx0, m, n).matrix == flip_matrix(2, 3)
    inv = long_braiding_inverse(ctx0, m, n)
    assert inv.matrix == flip_matrix(3, 2)


def test_sign_module_r_side_only(kz2):
    # B = field: only the quasitriangular side acts; C(v (x) v) = -v (x) v
    k1 = fx.field_hopf()
    ctxr = BraidingContext(kz2, fx.kz2_rmatrix(), k1, Matrix([[1]]))
    m = module_as_dimodule(kz2, fx.sign_module(), k1)
    assert long_braiding(ctxr, m, m).matrix == Matrix([[-1]])


def test_sign_comodule_form_side_only(kz2):
    # H = field: only the form acts; C(v (x) v) = <g|g> v (x) v = -v (x) v
    k1 = fx.field_hopf()
    ctxf = BraidingContext(k1, Matrix([[1]]), kz2, fx.kz2_form())
    m = comodule_as_dimodule(kz2, fx.sign_comodule(), k1)
    assert long_braiding(ctxf, m, m).matrix == Matrix([[-1]])


def test_inverse_is_matrix_inverse(ctx, roster):
    for nm, m in roster.items():
        for nn, n in roster.items():
            c = long_braiding(ctx, m, n)
            ci = long_braiding_inverse(ctx, m, n)
            eye_mn = Matrix.identity(m.dim * n.dim)
            eye_nm = Matrix.identity(n.dim * m.dim)
            assert mul(ci.matrix, c.matrix) == eye_mn, (nm, nn)
            assert mul(c.matrix, ci.matrix) == eye_nm, (nm, nn)
            assert ci.matrix == c.matrix.inv(), (nm, nn)


def test_braiding_is_dimodule_morphism(ctx, roster):
    for nm, m in roster.items():
        for nn, n in roster.items():
            assert check_braid_morphism(long_braiding(ctx, m, n)).ok, (nm, nn)


def test_naturality(ctx, dimodules):
    can, sign = dimodules["canonical"], dimodules["sign"]
    f = DimoduleMorphism(can, can, can.mu)
    g = DimoduleMorphism(sign, sign, sign.mu)
    assert check_naturality(ctx, f, g).ok
    ident = DimoduleMorphism(can, can, Matrix.identity(4))
    assert check_naturality(ctx, ident, g).ok


def test_naturality_rejects_non_morphism(ctx, dimodules):
    sign, triv = dimodules["sign"], dimodules["trivial"]
    with pytest.raises(NotAMorphism):
        check_naturality(ctx, DimoduleMorphism(sign, triv, Matrix([[1]])),
                         DimoduleMorphism(sign, sign, sign.mu))


def test_hexagons(ctx, dimodules):
    names = list(dimodules)
    for nu in names:
        for nv in names:
            for nw in names:
                rep = check_hexagons(ctx, dimodules[nu], dimodules[nv], dimodules[nw])
                assert rep.ok, (nu, nv, nw)


def test_hexagons_build_each_factors_mu2_inverse_once(ctx, dimodules, monkeypatch):
    # C_{U,V (x) W} and C_{U (x) V,W} take mu^-2 of their tensor factors
    # from the three that C_{U,V}, C_{U,W} and C_{V,W} built: three builds,
    # not five (test_oracles checks the verdicts against dense hexagons)
    u, v, w = dimodules["sign"], dimodules["canonical"], dimodules["trivial"]
    built, mu2_inverse = [], braidcat._mu2_inverse
    monkeypatch.setattr(braidcat, "_mu2_inverse", lambda t: built.append(t) or mu2_inverse(t))
    assert check_hexagons(ctx, u, v, w).ok
    assert built == [u, v, w]


def test_hexagon_fails_with_corrupted_r(kz2, dimodules):
    # drop the 1/2 normalization: QHA axioms fail, the context refuses
    bad_r = scaled(fx.kz2_rmatrix(), 2)
    bad = BraidingContext(kz2, bad_r, kz2, fx.kz2_form())
    assert not bad.valid
    with pytest.raises(InvalidContext):
        check_hexagons(bad, dimodules["sign"], dimodules["sign"], dimodules["sign"])


def test_qybe(ctx, dimodules):
    names = list(dimodules)
    for nu in names:
        for nv in names:
            for nw in names:
                rep = check_qybe(ctx, dimodules[nu], dimodules[nv], dimodules[nw])
                assert rep.ok, (nu, nv, nw)


def test_embedding_validations(ctx, roster):
    for nm, m in roster.items():
        yd = hb_yd_structure(ctx, m)
        assert validate_hom_module(yd).ok, nm
        assert validate_hom_comodule(yd).ok, nm
        assert check_yd(yd).ok, nm


def test_prebraiding_matches_braiding(ctx, roster):
    for nm, m in roster.items():
        for nn, n in roster.items():
            assert check_braiding_compatibility(ctx, m, n).ok, (nm, nn)


def test_module_as_dimodule(ctx, kz2):
    m = module_as_dimodule(kz2, fx.sign_module(), kz2)
    assert validate_long_dimodule(m).ok
    assert long_braiding(ctx, m, m).matrix == dense_module_family_braiding(ctx, m, m)
    assert long_braiding(ctx, m, m).matrix == Matrix([[-1]])
    reg = module_as_dimodule(kz2, fx.regular_module(kz2), kz2)
    assert validate_long_dimodule(reg).ok
    assert long_braiding(ctx, reg, reg).matrix == dense_module_family_braiding(ctx, reg, reg)


def test_comodule_as_dimodule(ctx, kz2):
    m = comodule_as_dimodule(kz2, fx.sign_comodule(), kz2)
    assert validate_long_dimodule(m).ok
    assert long_braiding(ctx, m, m).matrix == dense_comodule_family_braiding(ctx, m, m)
    assert long_braiding(ctx, m, m).matrix == Matrix([[-1]])
    reg = comodule_as_dimodule(kz2, fx.regular_comodule(kz2), kz2)
    assert validate_long_dimodule(reg).ok
    assert long_braiding(ctx, reg, reg).matrix == dense_comodule_family_braiding(ctx, reg, reg)


def test_symmetry(ctx, roster, kz2):
    families = dict(roster)
    families["mod-sign"] = module_as_dimodule(kz2, fx.sign_module(), kz2)
    families["comod-sign"] = comodule_as_dimodule(kz2, fx.sign_comodule(), kz2)
    for nm, m in families.items():
        for nn, n in families.items():
            rep = check_symmetry(ctx, m, n)
            assert rep.ok and rep.flags["hypothesis-met"], (nm, nn)


def test_symmetry_frozen_sign_value(ctx, dimodules):
    # C^2(v (x) v) = (+1)^2 v (x) v via (-1)(-1) on each pass
    rep = check_symmetry(ctx, dimodules["sign"], dimodules["sign"])
    assert rep.ok


def test_symmetry_refuses_unverified(kz2, dimodules):
    degenerate = BraidingContext(kz2, fx.kz2_rmatrix(), kz2, Matrix([[1, 1], [1, 0]]))
    with pytest.raises(InvalidContext):
        check_symmetry(degenerate, dimodules["sign"], dimodules["sign"])


def test_twisted_context_braiding(kz4t, kz2):
    ctx2 = BraidingContext(kz4t, fx.trivial_rmatrix(kz4t), kz2, fx.kz2_form())
    assert ctx2.valid and ctx2.triangular and ctx2.cotriangular
    can8 = canonical_dimodule(kz4t, kz2)
    tr = trivial_dimodule(kz4t, kz2, Matrix.diagonal([1, 2]))
    for m in (can8, tr):
        for n in (can8, tr):
            c = long_braiding(ctx2, m, n)
            ci = long_braiding_inverse(ctx2, m, n)
            assert mul(ci.matrix, c.matrix) == Matrix.identity(m.dim * n.dim)
            assert check_symmetry(ctx2, m, n).ok
            assert check_braiding_compatibility(ctx2, m, n).ok
    assert check_hexagons(ctx2, tr, tr, can8).ok
    assert check_qybe(ctx2, tr, can8, tr).ok


def test_twisted_embedding_validations(kz4t, kz2):
    # the negative twist powers in the induced action and coaction only show
    # up over a twisted pair, so run the full embedding checks there
    ctx2 = BraidingContext(kz4t, fx.trivial_rmatrix(kz4t), kz2, fx.kz2_form())
    t = tensor_hopf(ctx2.H, ctx2.B)
    assert not t.gamma.is_identity()
    can8 = canonical_dimodule(kz4t, kz2)
    tr = trivial_dimodule(kz4t, kz2, Matrix.diagonal([1, 2]))
    for m in (can8, tr):
        yd = hb_yd_structure(ctx2, m)
        assert yd.H == yd.B == t and yd.kind == "yd-module"
        assert validate_hom_module(yd).ok
        assert validate_hom_comodule(yd).ok
        rep = check_yd(yd)
        assert rep.ok and rep.flags["hyd-consistent"]


def test_twisted_b_side_inverse_braiding(kz2, kz4t):
    # B twisted: the inverse formula runs through S_B^-1 and beta^-1 != id
    ctx5 = BraidingContext(kz2, fx.kz2_rmatrix(), kz4t, fx.trivial_form(kz4t))
    assert ctx5.valid and ctx5.triangular and ctx5.cotriangular
    assert not ctx5.B.antipode.is_identity()
    can = canonical_dimodule(kz2, kz4t)
    tr = trivial_dimodule(kz2, kz4t, Matrix.diagonal([1, 2]))
    for m in (can, tr):
        for n in (can, tr):
            c = long_braiding(ctx5, m, n)
            ci = long_braiding_inverse(ctx5, m, n)
            assert mul(ci.matrix, c.matrix) == Matrix.identity(m.dim * n.dim)
            assert mul(c.matrix, ci.matrix) == Matrix.identity(n.dim * m.dim)
            assert check_braid_morphism(c).ok
            assert check_symmetry(ctx5, m, n).ok
    assert check_hexagons(ctx5, tr, can, tr).ok
    assert check_qybe(ctx5, can, tr, tr).ok


def test_fully_twisted_context_flip(kz4t):
    ctx3 = BraidingContext(kz4t, fx.trivial_rmatrix(kz4t), kz4t, fx.trivial_form(kz4t))
    m = trivial_dimodule(kz4t, kz4t, Matrix.diagonal([1, 2]))
    c = long_braiding(ctx3, m, m)
    assert c.matrix == flip_matrix(2, 2)
    assert check_symmetry(ctx3, m, m).ok


def test_non_triangular_context_diagnose():
    klein = fx.klein_hopf()
    ctx = BraidingContext(klein, fx.klein_rmatrix(), klein, fx.trivial_form(klein))
    assert ctx.valid
    assert not ctx.triangular and ctx.cotriangular
    reg = module_as_dimodule(klein, fx.regular_module(klein), klein)
    assert validate_long_dimodule(reg).ok
    # refusal without the diagnostic mode
    with pytest.raises(InvalidContext):
        check_symmetry(ctx, reg, reg)
    # diagnose computes the composite anyway: here it genuinely differs from id
    rep = check_symmetry(ctx, reg, reg, diagnose=True)
    assert not rep.flags["hypothesis-met"]
    assert not rep.passed("symmetry")
    # the braiding itself is still braided: invertible, hexagons, Yang-Baxter
    c = long_braiding(ctx, reg, reg)
    assert long_braiding_inverse(ctx, reg, reg).matrix == c.matrix.inv()
    assert check_hexagons(ctx, reg, reg, reg).ok
    assert check_qybe(ctx, reg, reg, reg).ok
    assert check_braiding_compatibility(ctx, reg, reg).ok


def test_sweedler_scaled_context_full_sweep(kz2):
    # the most adversarial rational fixture available: noncommutative and
    # noncocommutative H with an infinite-order twist, antipode != id
    swt = fx.sweedler_scaled_twisted(2)
    ctx = BraidingContext(swt, fx.sweedler_rmatrix(), kz2, fx.kz2_form())
    assert ctx.valid and ctx.triangular and ctx.cotriangular
    assert not mul(swt.gamma, swt.gamma).is_identity()
    assert not swt.antipode.is_identity()
    can = canonical_dimodule(swt, kz2)          # dim 8
    tr = trivial_dimodule(swt, kz2, Matrix.diagonal([1, 3]))
    from homlong.longdimod import (left_dual, right_dual, check_snake,
                                   to_smash_module, from_smash_module,
                                   validate_long_dimodule as vld)
    for m in (can, tr):
        assert vld(m).ok
        for n in (can, tr):
            c = long_braiding(ctx, m, n)
            ci = long_braiding_inverse(ctx, m, n)
            assert mul(ci.matrix, c.matrix) == Matrix.identity(m.dim * n.dim)
            assert check_braid_morphism(c).ok
            assert check_symmetry(ctx, m, n).ok
            assert check_braiding_compatibility(ctx, m, n).ok
        for dual in (left_dual(m), right_dual(m)):
            assert vld(dual.dual).ok
            assert check_snake(m, dual).ok
        smash = to_smash_module(m)
        assert validate_hom_module(smash).ok
        back = from_smash_module(smash, m.H, m.B)
        assert back.action == m.action and back.coaction == m.coaction
    assert check_hexagons(ctx, tr, can, tr).ok
    assert check_qybe(ctx, tr, tr, can).ok
    # the full-weight triple: associators, twist powers and the antipode all
    # nontrivial at once
    assert check_hexagons(ctx, can, can, can).ok
    assert check_qybe(ctx, can, can, can).ok
    t = tensor_hopf(ctx.H, ctx.B)
    for m in (can, tr):
        yd = hb_yd_structure(ctx, m)
        assert yd.H == yd.B == t and yd.kind == "yd-module"
        assert validate_hom_module(yd).ok
        assert validate_hom_comodule(yd).ok
        rep = check_yd(yd)
        assert rep.ok and rep.flags["hyd-consistent"]


def test_sweedler_scaled_as_b_side():
    # B noncommutative is impossible for a coquasitriangular form, but the
    # dual pairing: B must be "almost commutative"; the counit form needs
    # commutativity, so CHA3 fails on the 4-dim algebra
    swt = fx.sweedler_scaled_twisted(2)
    from homlong.homstruct import validate_coquasitriangular
    rep = validate_coquasitriangular(swt, fx.trivial_form(swt))
    assert not rep.passed("CHA3")


def test_triangular_flags_of_the_validators(kz2):
    from homlong.homstruct import validate_quasitriangular, validate_coquasitriangular
    q = validate_quasitriangular(kz2, fx.kz2_rmatrix())
    assert q.ok and q.flags["triangular"]
    c = validate_coquasitriangular(kz2, fx.kz2_form())
    assert c.ok and c.flags["cotriangular"]
    assert not validate_quasitriangular(kz2, Matrix([[0, 1], [0, 0]])).ok
    q2 = validate_quasitriangular(fx.klein_hopf(), fx.klein_rmatrix())
    assert q2.ok and not q2.flags["triangular"]


BRAIDINGS = [long_braiding, long_braiding_inverse]


@pytest.mark.parametrize("braiding", BRAIDINGS)
def test_braidings_refuse_a_failing_context(kz2, dimodules, braiding):
    # over kz2, this R fails QHA1-QHA3 and this form CHA1-CHA2
    bad = BraidingContext(kz2, Matrix([[1, 1], [1, -1]]), kz2, Matrix([[1, 1], [1, 0]]))
    with pytest.raises(InvalidContext, match="^context axioms fail: QHA1, QHA2, QHA3, CHA1, CHA2$"):
        braiding(bad, dimodules["sign"], dimodules["sign"])


@pytest.mark.parametrize("braiding", BRAIDINGS)
def test_braidings_refuse_a_dimodule_over_another_pair(kz4t, kz2, braiding):
    ctx2 = BraidingContext(kz4t, fx.trivial_rmatrix(kz4t), kz2, fx.kz2_form())
    ours, klein = trivial_dimodule(kz4t, kz2), trivial_dimodule(fx.klein_hopf(), kz2)
    assert braiding(ctx2, ours, ours).matrix == Matrix([[1]])
    for m, n in ((klein, ours), (ours, klein)):
        with pytest.raises(MismatchedBase, match="dimodule lives over a different algebra pair"):
            braiding(ctx2, m, n)


def test_as_dimodule_refuses_a_carrier_over_another_structure(kz4t, kz2):
    # Klein and kz4t have the same dimension, so only the check tells them apart
    klein = fx.klein_hopf()
    with pytest.raises(MismatchedBase, match="module lives over another algebra than H"):
        module_as_dimodule(klein, fx.trivial_module(kz4t), kz2)
    with pytest.raises(MismatchedBase, match="comodule lives over another coalgebra than B"):
        comodule_as_dimodule(klein, fx.regular_comodule(kz4t), kz2)
