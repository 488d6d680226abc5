import re
from dataclasses import replace

import pytest

from homlong import fixtures as fx, longdimod
from homlong.linalg import DimensionMismatch, Matrix, per_leg_matrix
from homlong.homstruct import dual_hopf, validate_hom_algebra
from homlong.repmod import validate_hom_module
from homlong.longdimod import (AntipodeNotInvertible, MismatchedBase, associator_legs,
                               canonical_dimodule,
                               check_coherence, check_snake, dimodule_morphism_report,
                               from_smash_module, left_dual, right_dual,
                               smash_product_algebra, tensor_dimodule,
                               to_smash_module, trivial_dimodule, unit_dimodule,
                               validate_long_dimodule)
from homlong.braidcat import (check_braiding_compatibility, check_hexagons, check_qybe,
                               check_symmetry, hb_yd_structure, long_braiding)
from homlong.longeq import check_long_equation, comodule_extension, dimodule_solution
from homlong.repmod import Carrier
from homlong.report import compose
from test_oracles import coproduct_map, kron, mul, scaled, tensor, zeros


def associator(u, v, w):
    """The associator (u (x) v) (x) w -> u (x) (v (x) w) as a matrix."""
    return compose(dict(x=u.dim, y=v.dim, z=w.dim), associator_legs(u, w, "x z"),
                   "x y z").matrix()


def test_standard_fixtures_valid(dimodules, scaled):
    for d in {**dimodules, **scaled}.values():
        assert validate_long_dimodule(d).ok


def test_sign_dimodule_compatibility_value(kz2, dimodules):
    # rho(g.v) = -(g (x) v) = beta(v_-1) (x) alpha(g).v_0
    d = dimodules["sign"]
    rep = validate_long_dimodule(d)
    assert rep.passed("compat-2.1")


def test_trivial_dimodule_any_module(kz2, kz4t):
    # any counit action with unit coaction is a dimodule, over any pair
    for h, b in [(kz2, kz2), (kz4t, kz2), (kz2, kz4t), (kz4t, kz4t)]:
        d = trivial_dimodule(h, b, Matrix.diagonal([1, 2]))
        assert validate_long_dimodule(d).ok


def test_compat_failure_witness(kz2):
    # regular action with regular coaction: parts valid, compatibility fails
    # at (g, 1) since rho(g.1) = g (x) g but beta(1_-1) (x) g.1_0 = 1 (x) g
    d = Carrier(kz2, kz2, 2, kz2.mult, kz2.comult, Matrix.identity(2), kz2.basis)
    rep = validate_long_dimodule(d)
    assert rep.passed("module:HM2-unit")
    assert rep.passed("comodule:HCM2")
    assert not rep.passed("compat-2.1")
    assert rep.check("compat-2.1").witness == ("g", "1")


def test_canonical_dimodule(kz2, kz4t):
    for h, b in [(fx.field_hopf(), fx.field_hopf()), (kz2, kz2),
                 (kz4t, kz2), (kz2, kz4t)]:
        d = canonical_dimodule(h, b)
        assert d.dim == h.dim * b.dim
        assert validate_long_dimodule(d).ok
    assert canonical_dimodule(kz4t, kz2).mu == kron(fx.kz4_twist_map(), Matrix.identity(2))


def test_tensor_dimodule(dimodules):
    can = dimodules["canonical"]
    t = tensor_dimodule(can, can)
    assert t.dim == 16
    assert validate_long_dimodule(t).ok


def test_tensor_with_unit(kz2, dimodules):
    d = dimodules["sign"]
    unit = unit_dimodule(kz2, kz2)
    t = tensor_dimodule(d, unit)
    assert validate_long_dimodule(t).ok
    assert t.mu == d.mu


def test_triple_tensor_mu_inverts_leg_by_leg(kz2):
    # the 512 x 512 mu of (can (x) can) (x) can has one entry per column;
    # its inverse is the tensor product of the factors' inverses and its
    # determinant det(mu)^(3 * 64)
    can = canonical_dimodule(fx.sweedler_scaled_twisted(2), kz2)
    t3 = tensor_dimodule(tensor_dimodule(can, can), can)
    assert t3.mu.rows == 512
    assert t3.mu.inv() == per_leg_matrix(*[can.mu.inv()] * 3)
    assert t3.mu.det() == can.mu.det() ** 192


def test_tensor_mismatched_base(kz2, kz4t, dimodules):
    other = trivial_dimodule(kz4t, kz2)
    with pytest.raises(MismatchedBase):
        tensor_dimodule(dimodules["sign"], other)


def test_coherence_mismatched_base(kz2, dimodules):
    # B* = (kZ2)* has kZ2's dimensions, so the leg steps alone would run
    # with u's coproduct against w's action; the pair decides first
    other = canonical_dimodule(kz2, dual_hopf(kz2))
    u = dimodules["sign"]
    for v, w in ((u, other), (other, u), (other, other)):
        with pytest.raises(MismatchedBase):
            check_coherence(u, v, w)


def test_coherence_refuses_x_over_another_pair(kz2, dimodules):
    # x enters only the pentagon, and on the legs alone a dimodule over
    # another pair may fit: it is refused the way v and w are
    u = dimodules["sign"]
    kz3 = fx.group_hopf(3)
    for x in (trivial_dimodule(kz3, kz3), canonical_dimodule(kz2, dual_hopf(kz2))):
        with pytest.raises(MismatchedBase):
            check_coherence(u, u, u, x)
    assert check_coherence(u, u, u, u).ok


def test_tensor_propagates_defect(kz2, dimodules):
    bad = Carrier(kz2, kz2, 2, kz2.mult, kz2.comult, Matrix.identity(2), kz2.basis)
    assert not validate_long_dimodule(bad).ok
    t = tensor_dimodule(dimodules["trivial"], bad)
    assert not validate_long_dimodule(t).ok


def test_monoidal_constraints_trivial(kz2, dimodules):
    sign = dimodules["sign"]
    # the associator is mu^-1 (x) id (x) omega; both unit constraints are mu
    assert associator(sign, sign, sign) == Matrix.identity(1)
    d2 = fx.scaled_dimodules(kz2, kz2)["trivial-x2"]
    assert associator(d2, d2, d2) == Matrix.identity(1)  # 2^-1 * 2 = 1 on a line


def test_associator_is_morphism(dimodules):
    u, v, w = (dimodules[k] for k in ("trivial", "sign", "canonical"))
    a = associator(u, v, w)
    src = tensor_dimodule(tensor_dimodule(u, v), w)
    tgt = tensor_dimodule(u, tensor_dimodule(v, w))
    assert dimodule_morphism_report(src, tgt, a).ok


def test_coherence_standard(dimodules):
    u, v, w = (dimodules[k] for k in ("trivial", "sign", "canonical"))
    rep = check_coherence(u, v, w)
    assert rep.ok
    assert rep.flags["naturality-morphisms"] == "structure-maps"


def test_coherence_tests_each_distinct_structure_map_once(dimodules, monkeypatch):
    tr, can = dimodules["trivial"], dimodules["canonical"]
    equal_tr = replace(tr)
    reports = {uvw: check_coherence(*uvw) for uvw in
               ((tr, can, tr), (can, tr, tr), (tr, tr, tr), (tr, equal_tr, can))}
    tested = []
    real = longdimod.dimodule_morphism_report

    def counted(m, n, f):
        if m is n and f is m.mu:
            tested.append(m)
        return real(m, n, f)

    monkeypatch.setattr(longdimod, "dimodule_morphism_report", counted)
    for uvw, rep in reports.items():
        tested.clear()
        assert check_coherence(*uvw) == rep
        assert tested == [t for k, t in enumerate(uvw) if t not in uvw[:k]]
    assert tested == [tr, can]


def test_coherence_triangle_finding(scaled):
    d = scaled["trivial-diag12"]
    rep = check_coherence(d, d, d)
    assert rep.passed("pentagon")
    assert rep.passed("naturality-a")
    assert not rep.passed("triangle")


def test_tensor_coaction_power_is_the_right_one():
    # every power b^k(m_-1 n_-1) (x) m_0 (x) n_0 gives a valid dimodule, but
    # only k = -2 makes the associator B-colinear once the twist has infinite
    # order; the alternative power 1 is a valid object outside the monoidal
    # structure
    from test_oracles import permute_output_legs, power
    kz2 = fx.kz2()
    swt = fx.sweedler_scaled_twisted(2)

    def tensor_variant(m, n, k):
        bb = m.B
        nb = bb.dim
        d = m.dim * n.dim
        base = tensor_dimodule(m, n)
        co_mat = mul(kron(mul(power(bb.gamma, k), bb.mult),
                          Matrix.identity(d)),
                     permute_output_legs(kron(coproduct_map(m.coaction, m.dim),
                                              coproduct_map(n.coaction, n.dim)),
                                         [nb, m.dim, nb, n.dim], [0, 2, 1, 3]))
        return Carrier(m.H, m.B, d, base.action,
                       tensor(d, nb, d, lambda i, j, l: co_mat[j * d + l, i]),
                       base.mu, base.basis)

    u = canonical_dimodule(kz2, swt)
    v = trivial_dimodule(kz2, swt, Matrix.diagonal([1, 2]))
    w = trivial_dimodule(kz2, swt)
    for k, expect in [(-2, True), (1, False)]:
        uv, vw = tensor_variant(u, v, k), tensor_variant(v, w, k)
        src = tensor_variant(uv, w, k)
        tgt = tensor_variant(u, vw, k)
        assert validate_long_dimodule(src).ok
        rep = dimodule_morphism_report(src, tgt, associator(u, v, w))
        assert rep.passed("B-colinear") == expect, k
    # the library's tensor_dimodule is the k = -2 variant
    assert tensor_variant(u, v, -2).coaction == tensor_dimodule(u, v).coaction


def test_coherence_corrupted_associator():
    # dropping the mu^-1 leg from the associator breaks the pentagon
    d = fx.scaled_dimodules()["sign-x2"]
    good = associator(d, d, d)
    corrupt = kron(kron(d.mu, Matrix.identity(1)), d.mu)   # mu instead of mu^-1
    assert good != corrupt
    rep = check_coherence(d, d, d)
    assert rep.passed("pentagon")
    uv = tensor_dimodule(d, d)
    genuine = mul(associator(d, d, uv), associator(uv, d, d))
    assert genuine != mul(corrupt, corrupt)


def test_coherence_unit_morphism_finding_kz5():
    kz5t = fx.kz5_twisted()
    can5 = canonical_dimodule(kz5t, kz5t)
    u1 = trivial_dimodule(kz5t, kz5t)
    rep = check_coherence(u1, can5, u1, x=u1)
    assert rep.passed("pentagon")
    assert rep.passed("assoc-H-linear") and rep.passed("assoc-B-colinear")
    assert not rep.passed("left-unit-H-linear")
    assert not rep.passed("triangle")


def test_left_dual_sign(dimodules):
    sd = left_dual(dimodules["sign"])
    assert sd.dual.action == Matrix.from_tensor([[[1]], [[-1]]])
    assert sd.dual.coaction == Matrix.from_tensor([[[0], [1]]])
    assert validate_long_dimodule(sd.dual).ok


def test_right_dual_sign(dimodules):
    rd = right_dual(dimodules["sign"])
    assert rd.dual.action == Matrix.from_tensor([[[1]], [[-1]]])
    assert validate_long_dimodule(rd.dual).ok


def test_duals_validate_and_snake(dimodules, scaled):
    roster = {**dimodules, **scaled}
    for name, d in roster.items():
        for dual in (left_dual(d), right_dual(d)):
            assert validate_long_dimodule(dual.dual).ok, name
            rep = check_snake(d, dual)
            assert rep.ok, (name, dual.side)


def test_dual_over_twisted_pair(kz4t, kz2):
    d = canonical_dimodule(kz4t, kz2)
    for dual in (left_dual(d), right_dual(d)):
        assert validate_long_dimodule(dual.dual).ok
        assert check_snake(d, dual).ok


def test_double_dual_identification(dimodules):
    can = dimodules["canonical"]
    dd = right_dual(left_dual(can).dual)
    assert dd.dual.action == can.action
    assert dd.dual.coaction == can.coaction
    assert dd.dual.mu == can.mu


def test_snake_fails_on_scaled_ev(dimodules):
    d = dimodules["sign"]
    dual = left_dual(d)
    from homlong.longdimod import DualityData
    corrupted = DualityData(dual.dual, scaled(dual.ev, 2), dual.coev, "left")
    rep = check_snake(d, corrupted)
    assert not rep.passed("snake-object") and not rep.passed("snake-dual")


def test_dual_requires_hopf(kz2):
    d = trivial_dimodule(replace(kz2, antipode=None), replace(kz2, antipode=None))
    with pytest.raises(AntipodeNotInvertible):
        left_dual(d)


def test_smash_algebra_and_module(kz2, dimodules):
    alg = smash_product_algebra(kz2, kz2)
    assert validate_hom_algebra(alg).ok
    for name, d in dimodules.items():
        n = to_smash_module(d)
        assert validate_hom_module(n).ok, name


def test_smash_action_value(dimodules):
    # (delta_g (x) 1) . v = delta_g(g) 1.v = v on the sign carrier
    n = to_smash_module(dimodules["sign"])
    assert n.action[0, 2] == 1


def test_smash_trivial_dimodule_reduces(kz2):
    # with unit coaction, (p (x) h) . m = p(1_B) h . m
    d = trivial_dimodule(kz2, kz2, Matrix.diagonal([1, 2]))
    n = to_smash_module(d)
    p = mul(d.action, kron(Matrix.identity(2 * 2), Matrix.identity(1)))
    for pp in range(2):
        for hh in range(2):
            for i in range(2):
                for j in range(2):
                    expect = d.action[j, hh * 2 + i] if pp == 0 else 0
                    assert n.action[j, (pp * 2 + hh) * 2 + i] == expect


def test_round_trip_both_ways(kz2, kz4t, dimodules):
    roster = dict(dimodules)
    roster["canonical-B4"] = canonical_dimodule(kz2, kz4t)
    roster["trivial-B4"] = trivial_dimodule(kz2, kz4t, Matrix.diagonal([1, 2]))
    for name, d in roster.items():
        n = to_smash_module(d)
        back = from_smash_module(n, d.H, d.B)
        assert back.action == d.action, name
        assert back.coaction == d.coaction, name
        assert back.mu == d.mu, name
        again = to_smash_module(back)
        assert again.action == n.action and again.mu == n.mu, name


def test_round_trip_preserves_morphisms(kz2, dimodules):
    # an H-linear B-colinear map commutes with the conversions
    sign = dimodules["sign"]
    f = Matrix([[5]])
    assert dimodule_morphism_report(sign, sign, f).ok
    n = to_smash_module(sign)
    # same matrix is a module morphism on the smash side
    lhs = mul(f, n.action)
    rhs = mul(n.action, kron(Matrix.identity(n.H.dim), f))
    assert lhs == rhs


def test_from_smash_module_refuses_a_module_over_another_algebra(kz2, kz4t):
    # only a module over B*op (x) H is read back as a dimodule over (H, B):
    # a module of the right dimension over another algebra, the smash
    # action over kz4 among them, or a comodule, is refused
    smash = to_smash_module(canonical_dimodule(kz2, kz2))
    assert from_smash_module(smash, kz2, kz2) == canonical_dimodule(kz2, kz2)
    for n, h, b in ((to_smash_module(fx.sign_dimodule()), kz2, kz4t),
                    (fx.regular_module(fx.kz4()), kz2, kz2),
                    (replace(smash, H=fx.kz4().algebra), kz2, kz2),
                    (fx.sign_comodule(), kz2, kz2)):
        with pytest.raises(MismatchedBase,
                           match=r"^module lives over another algebra than B\*op \(x\) H$"):
            from_smash_module(n, h, b)


def test_zero_dimensional_dimodule_validates_and_snakes(kz2):
    # coev of the zero carrier is a 0 x 1 matrix: one column, no entries
    z = Carrier(kz2, kz2, 0, zeros(0, 0), zeros(0, 0),
                Matrix([], rows=0, cols=0))
    assert validate_long_dimodule(z).ok
    for dual in (left_dual(z), right_dual(z)):
        assert check_snake(z, dual).ok


def test_zero_dimensional_carriers_combine_with_the_others(kz2, ctx):
    # its coaction is a 0 x 0 Matrix, read on a leg of dim 0 with no
    # column: a step on it is not checked, so every construction and check
    # on a 0-dimensional carrier gives the 0-dimensional result
    z, sign = trivial_dimodule(kz2, kz2, zeros(0, 0)), fx.sign_dimodule()
    for m, n in ((z, z), (z, sign), (sign, z)):
        assert tensor_dimodule(m, n).dim == 0
        assert long_braiding(ctx, m, n).matrix == zeros(0, 0)
        assert check_hexagons(ctx, m, n, sign).ok and check_qybe(ctx, n, m, n).ok
        assert check_symmetry(ctx, m, n).ok and check_braiding_compatibility(ctx, m, n).ok
    n = to_smash_module(z)
    assert n.dim == 0 and from_smash_module(n, kz2, kz2) == z
    assert hb_yd_structure(ctx, z).dim == 0
    assert check_long_equation(dimodule_solution(replace(z, kind="halpha-dimodule"))).ok
    comodule = Carrier(None, kz2.coalgebra, 0, None, z.coaction, z.mu)
    assert comodule_extension(kz2, comodule).dim == 0


@pytest.mark.parametrize("side", ["H", "B"])
@pytest.mark.parametrize("part", ["algebra", "coalgebra"])
def test_dimodule_refuses_a_base_without_both_parts(kz2, side, part):
    # a structure with one part validates as a dimodule's module or comodule
    # part, but its other maps are needed by the duals and the smash module
    sd = fx.sign_dimodule()
    bases = dict(H=kz2, B=kz2)
    bases[side] = getattr(kz2, part)
    with pytest.raises(DimensionMismatch, match="%s needs mult and comult" % side):
        Carrier(bases["H"], bases["B"], 1, sd.action, sd.coaction, sd.mu, sd.basis)


def _carrier(kind, fields):
    """The maker of a carrier of kind over h from its dim and the maps
    fields names, and fields."""
    def make(h, dim, *maps):
        parts = dict(zip(fields, maps))
        return Carrier(h if "action" in parts else None, h if "coaction" in parts else None,
                       dim, parts.get("action"), parts.get("coaction"), parts["mu"], kind=kind)
    return make, fields


# each kind of carrier with the maps it is built from
BOTH_PARTS = ("action", "coaction", "mu")
CARRIERS = {
    "long-dimodule": _carrier("long-dimodule", BOTH_PARTS),
    "yd-module": _carrier("yd-module", BOTH_PARTS),
    "halpha-dimodule": _carrier("halpha-dimodule", BOTH_PARTS),
    "hom-module": _carrier("hom-module", ("action", "mu")),
    "hom-comodule": _carrier("hom-comodule", ("coaction", "mu")),
}

# case -> (field, misfit map, refusal); a "-kind" case gives a two-leg map
# for a three-leg one or a three-leg map for a two-leg one, each refused by
# its rows x cols, a three-leg map's being those of its product-like map
MISFITS = {
    "action": ("action", zeros(2, 2), "action is 2x2, expected 1x2"),
    "coaction": ("coaction", zeros(1, 4), "coaction is 1x4, expected 1x2"),
    "mu": ("mu", Matrix.identity(2), "structure map is 2x2, expected 1x1"),
    "action-kind": ("action", Matrix.identity(1), "action is 1x1, expected 1x2"),
    "coaction-kind": ("coaction", Matrix.identity(1), "coaction is 1x1, expected 1x2"),
    "mu-kind": ("mu", Matrix.from_tensor([[[1]], [[-1]]]), "structure map is 1x2, expected 1x1"),
}


@pytest.mark.parametrize("case, carrier", [
    pytest.param(case, carrier, id="%s-%s" % (case, carrier)) for case in MISFITS
    for carrier in sorted(CARRIERS) if MISFITS[case][0] in CARRIERS[carrier][1]])
def test_carriers_check_their_shapes(kz2, case, carrier):
    # every kind refuses a misfit map with one message per map
    make, fields = CARRIERS[carrier]
    sd = fx.sign_dimodule()
    parts = dict(action=sd.action, coaction=sd.coaction, mu=sd.mu)
    field, bad, message = MISFITS[case]
    with pytest.raises(DimensionMismatch, match="^%s$" % re.escape(message)):
        make(kz2, 1, *[bad if f == field else parts[f] for f in fields])
    assert make(kz2, 1, *[parts[f] for f in fields]).basis == ("m0",)


def test_morphism_report_refuses_dimodules_over_two_pairs(kz4t, kz2):
    m, n = trivial_dimodule(kz4t, kz2), trivial_dimodule(fx.klein_hopf(), kz2)
    assert dimodule_morphism_report(m, m, Matrix.identity(1)).ok
    with pytest.raises(MismatchedBase):
        dimodule_morphism_report(m, n, Matrix.identity(1))
