from dataclasses import replace

import pytest

from homlong import fixtures as fx
from homlong.linalg import Matrix, Tensor3
from homlong.homstruct import validate_hom_algebra
from homlong.repmod import validate_hom_module
from homlong.longdimod import (AntipodeNotInvertible, HomLongDimodule,
                               MismatchedBase, associator, canonical_dimodule,
                               check_coherence, check_snake, dimodule_morphism_report,
                               from_smash_module, is_dimodule_morphism, left_dual,
                               monoidal_constraints, right_dual,
                               smash_product_algebra, tensor_dimodule,
                               to_smash_module, trivial_dimodule, unit_dimodule,
                               validate_long_dimodule)


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
    d = HomLongDimodule(kz2, kz2, 2, kz2.mult, kz2.comult,
                        Matrix.identity(2), kz2.basis)
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
    assert canonical_dimodule(kz4t, kz2).mu == fx.kz4_twist_map().kron(Matrix.identity(2))


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


def test_tensor_mismatched_base(kz2, kz4t, dimodules):
    other = trivial_dimodule(kz4t, kz2)
    with pytest.raises(MismatchedBase):
        tensor_dimodule(dimodules["sign"], other)


def test_tensor_propagates_defect(kz2, dimodules):
    bad = HomLongDimodule(kz2, kz2, 2, kz2.mult, kz2.comult,
                          Matrix.identity(2), kz2.basis)
    assert not validate_long_dimodule(bad).ok
    t = tensor_dimodule(dimodules["trivial"], bad)
    assert not validate_long_dimodule(t).ok


def test_monoidal_constraints_trivial(kz2, dimodules):
    sign = dimodules["sign"]
    c = monoidal_constraints(sign, sign, sign)
    assert c["assoc"] == Matrix.identity(1)
    assert c["left_unit"] == sign.mu and c["right_unit"] == sign.mu
    d2 = fx.scaled_dimodules(kz2, kz2)["trivial-x2"]
    c = monoidal_constraints(d2, d2, d2)
    assert c["assoc"] == Matrix.identity(1)  # 2^-1 * 2 = 1 on a line


def test_associator_is_morphism(dimodules):
    u, v, w = (dimodules[k] for k in ("trivial", "sign", "canonical"))
    a = associator(u, v, w)
    src = tensor_dimodule(tensor_dimodule(u, v), w)
    tgt = tensor_dimodule(u, tensor_dimodule(v, w))
    assert is_dimodule_morphism(src, tgt, a)


def test_coherence_standard(dimodules):
    u, v, w = (dimodules[k] for k in ("trivial", "sign", "canonical"))
    rep = check_coherence(u, v, w)
    assert rep.ok
    assert rep.flags["naturality-morphisms"] == "structure-maps"


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
    from homlong.linalg import kron
    from test_oracles import permute_output_legs
    kz2 = fx.kz2()
    swt = fx.sweedler_scaled_twisted(2)

    def tensor_variant(m, n, power):
        bb = m.B
        nb = bb.dim
        d = m.dim * n.dim
        base = tensor_dimodule(m, n)
        co_mat = (kron((bb.gamma ** power) * bb.mult.flatten_in2_out1(), Matrix.identity(d))
                  * permute_output_legs(kron(m.coaction_map, n.coaction_map),
                                        [nb, m.dim, nb, n.dim], [0, 2, 1, 3]))
        return HomLongDimodule(m.H, m.B, d, base.action,
                               Tensor3.from_in1_out2(co_mat, nb, d),
                               base.mu, base.basis)

    u = canonical_dimodule(kz2, swt)
    v = trivial_dimodule(kz2, swt, Matrix.diagonal([1, 2]))
    w = trivial_dimodule(kz2, swt)
    for power, expect in [(-2, True), (1, False)]:
        uv, vw = tensor_variant(u, v, power), tensor_variant(v, w, power)
        src = tensor_variant(uv, w, power)
        tgt = tensor_variant(u, vw, power)
        assert validate_long_dimodule(src).ok
        rep = dimodule_morphism_report(src, tgt, associator(u, v, w))
        assert rep.passed("B-colinear") == expect, power
    # the library's tensor_dimodule is the k = -2 variant
    assert tensor_variant(u, v, -2).coaction == tensor_dimodule(u, v).coaction


def test_coherence_corrupted_associator():
    # dropping the mu^-1 leg from the associator breaks the pentagon
    d = fx.scaled_dimodules()["sign-x2"]
    good = associator(d, d, d)
    corrupt = d.mu.kron(Matrix.identity(1)).kron(d.mu)   # mu instead of mu^-1
    assert good != corrupt
    rep = check_coherence(d, d, d)
    assert rep.passed("pentagon")
    uv = tensor_dimodule(d, d)
    genuine = associator(d, d, uv) * associator(uv, d, d)
    assert genuine != corrupt * corrupt


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
    assert sd.dual.action == Tensor3([[[1]], [[-1]]])
    assert sd.dual.coaction == Tensor3([[[0], [1]]])
    assert validate_long_dimodule(sd.dual).ok


def test_right_dual_sign(dimodules):
    rd = right_dual(dimodules["sign"])
    assert rd.dual.action == Tensor3([[[1]], [[-1]]])
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
    corrupted = DualityData(dual.dual, dual.ev.scale(2), dual.coev, "left")
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
        assert validate_hom_module(n.over, n).ok, name


def test_smash_action_value(dimodules):
    # (delta_g (x) 1) . v = delta_g(g) 1.v = v on the sign carrier
    n = to_smash_module(dimodules["sign"])
    assert n.action[2, 0, 0] == 1


def test_smash_trivial_dimodule_reduces(kz2):
    # with unit coaction, (p (x) h) . m = p(1_B) h . m
    d = trivial_dimodule(kz2, kz2, Matrix.diagonal([1, 2]))
    n = to_smash_module(d)
    p = d.action_map * Matrix.identity(2 * 2).kron(Matrix.identity(1))
    for pp in range(2):
        for hh in range(2):
            for i in range(2):
                for j in range(2):
                    expect = d.action[hh, i, j] if pp == 0 else 0
                    assert n.action[pp * 2 + hh, i, j] == expect


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
        assert again.action == n.action and again.nu == n.nu, name


def test_round_trip_preserves_morphisms(kz2, dimodules):
    # an H-linear B-colinear map commutes with the conversions
    sign = dimodules["sign"]
    f = Matrix([[5]])
    assert is_dimodule_morphism(sign, sign, f)
    n = to_smash_module(sign)
    # same matrix is a module morphism on the smash side
    lhs = f * n.action_map
    rhs = n.action_map * Matrix.identity(n.over.dim).kron(f)
    assert lhs == rhs


def test_zero_dimensional_dimodule_validates_and_snakes(kz2):
    # coev of the zero carrier is a 0 x 1 matrix: one column, no entries
    z = HomLongDimodule(kz2, kz2, 0, Tensor3.zeros(2, 0, 0), Tensor3.zeros(0, 2, 0),
                        Matrix([], rows=0, cols=0))
    assert validate_long_dimodule(z).ok
    for dual in (left_dual(z), right_dual(z)):
        assert check_snake(z, dual).ok
