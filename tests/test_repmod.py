import functools
import re
from dataclasses import replace

import pytest

import homlong
from homlong import fixtures as fx, longdimod
from homlong.braidcat import hb_yd_structure
from homlong.linalg import Matrix, DimensionMismatch
from homlong.repmod import (Carrier, MismatchedBase, check_yd, validate_hom_comodule,
                            validate_hom_module, yd_prebraiding)
from test_oracles import dense_part, flip_matrix, tensor, yd_module, zeros


def sign_yd(kz2):
    return yd_module(kz2, 1, Matrix.from_tensor([[[1]], [[-1]]]), Matrix.from_tensor([[[0], [1]]]),
                     Matrix.identity(1), ("v",))


def test_regular_module_is_module(kz2, kz4t):
    for h in (kz2, kz4t):
        m = fx.regular_module(h)
        assert validate_hom_module(m).ok


def test_sign_module(kz2):
    assert validate_hom_module(fx.sign_module()).ok
    assert validate_hom_module(fx.sign_module(scale=2)).ok


def test_sign_module_wrong_nu(kz2):
    bad = Carrier(kz2.algebra, None, 1, Matrix.from_tensor([[[1]], [[-1]]]), None,
                  Matrix([[3]]), ("v",))
    rep = validate_hom_module(bad)
    assert not rep.passed("HM2-unit")
    assert rep.check("HM2-unit").witness == ("v",)


def test_module_shape_mismatch(kz2, kz4t):
    m = fx.sign_module()
    with pytest.raises(DimensionMismatch, match=re.escape(
            "action is 1x2, expected 1x4")):
        replace(m, H=kz4t.algebra)


# the refusal of a carrier over the part of kz2 that lacks what it needs
MISSING = {("module", "coalgebra"): "H needs mult, not a hom-coalgebra",
           ("comodule", "algebra"): "B needs comult, not a hom-algebra",
           ("yd", "algebra"): "H needs mult and comult, not a hom-algebra",
           ("yd", "coalgebra"): "H needs mult and comult, not a hom-coalgebra"}


@pytest.mark.parametrize("kind, part", sorted(MISSING))
def test_carrier_refuses_a_structure_without_the_part_it_needs(kz2, kind, part):
    # refused where it is built, not later inside a validator
    m = dict(module=fx.sign_module(), comodule=fx.sign_comodule(), yd=sign_yd(kz2))[kind]
    sides = dict(module="H", comodule="B", yd="HB")[kind]
    with pytest.raises(DimensionMismatch, match="^%s$" % re.escape(MISSING[kind, part])):
        replace(m, **dict.fromkeys(sides, getattr(kz2, part)))


def test_every_carrier_refuses_a_basis_of_the_wrong_length(kz2):
    # refused where it is built, in the words HomStructure refuses it with
    sd = fx.sign_dimodule()
    makers = [functools.partial(replace, m)
              for m in (fx.sign_module(), fx.sign_comodule(), sign_yd(kz2), sd)]
    makers.append(functools.partial(Carrier, kz2, kz2, 1, sd.action, sd.coaction, sd.mu,
                                    kind="halpha-dimodule"))
    for make in makers:
        with pytest.raises(DimensionMismatch, match="^3 basis names for dim 1$"):
            make(basis=("a", "b", "c"))
        assert make(basis=None).basis == ("m0",) and make(basis=("v",)).basis == ("v",)


def test_regular_comodule(kz2, kz4t):
    for c in (kz2, kz4t):
        m = fx.regular_comodule(c)
        assert validate_hom_comodule(m).ok


def test_trivial_comodule(kz2):
    # rho(m) = 1 (x) mu(m)
    mu = Matrix.diagonal([1, 2])
    m = Carrier(None, kz2.coalgebra, 2, None,
                tensor(2, 2, 2, lambda i, a, j: kz2.unit[a] * mu[j, i]), mu)
    assert validate_hom_comodule(m).ok


def test_sign_comodule_and_counit_mutation(kz2):
    assert validate_hom_comodule(fx.sign_comodule()).ok
    broken = replace(kz2.coalgebra, counit=Matrix([[1], [0]]))
    rep = validate_hom_comodule(replace(fx.sign_comodule(kz2), B=broken))
    assert not rep.passed("HCM1-b")


def test_yd_sign_module(kz2):
    rep = check_yd(sign_yd(kz2))
    assert rep.ok
    assert rep.flags["hyd-consistent"]


def test_yd_trivial(kz2):
    mu = Matrix.diagonal([1, 2])
    act = tensor(2, 2, 2, lambda h, i, j: kz2.counit[h] * mu[j, i])
    coact = tensor(2, 2, 2, lambda i, a, j: kz2.unit[a] * mu[j, i])
    yd = yd_module(kz2, 2, act, coact, mu)
    rep = check_yd(yd)
    assert rep.passed("HYD") and rep.passed("HYD-prime")


def test_yd_regular_fails_with_witness(sweedler):
    yd = yd_module(sweedler, 4, sweedler.mult, sweedler.comult, Matrix.identity(4),
                   sweedler.basis)
    rep = check_yd(yd)
    assert not rep.passed("HYD")
    assert rep.flags["hyd-consistent"]     # the reformulation fails too
    # re-verify the reported witness independently: both sides differ there
    assert rep.check("HYD").witness is not None


def test_yd_spec_counterexample_is_invalid_comodule(kz2):
    # the coaction 1 (x) v + g (x) v fails the comodule counit law, so it
    # never reaches the compatibility check
    bad = Carrier(None, kz2.coalgebra, 1, None, Matrix.from_tensor([[[1], [1]]]),
                  Matrix.identity(1))
    rep = validate_hom_comodule(bad)
    assert not rep.passed("HCM1-b")


def test_yd_over_twisted(kz4t):
    # trivial action/coaction with arbitrary invertible structure map
    mu = Matrix.diagonal([1, 2])
    act = tensor(4, 2, 2, lambda h, i, j: kz4t.counit[h] * mu[j, i])
    coact = tensor(2, 4, 2, lambda i, a, j: kz4t.unit[a] * mu[j, i])
    yd = yd_module(kz4t, 2, act, coact, mu)
    rep = check_yd(yd)
    assert rep.ok and rep.flags["hyd-consistent"]


def test_prebraiding_trivial_coaction_is_flip(kz2):
    mu = Matrix.diagonal([1, 2])
    act = tensor(2, 2, 2, lambda h, i, j: kz2.counit[h] * mu[j, i])
    coact = tensor(2, 2, 2, lambda i, a, j: kz2.unit[a] * mu[j, i])
    m = yd_module(kz2, 2, act, coact, mu)
    n = sign_yd(kz2)
    assert yd_prebraiding(m, n) == flip_matrix(2, 1)


def test_prebraiding_sign(kz2):
    yd = sign_yd(kz2)
    assert yd_prebraiding(yd, yd) == Matrix([[-1]])


def test_prebraiding_zero_dim(kz2):
    yd = sign_yd(kz2)
    empty = yd_module(kz2, 0, zeros(0, 0), zeros(0, 0),
                      Matrix([], rows=0, cols=0))
    c = yd_prebraiding(yd, empty)
    assert (c.rows, c.cols) == (0, 0)


def test_prebraiding_refuses_modules_over_different_bialgebras(kz2):
    # refused as every other base mismatch is, with one exception class
    assert homlong.MismatchedBase is longdimod.MismatchedBase is MismatchedBase
    other = replace(kz2, basis=("e", "f"))
    n = replace(sign_yd(kz2), H=other, B=other)
    with pytest.raises(MismatchedBase, match="^pre-braiding of modules over different "
                                             "bialgebras$"):
        yd_prebraiding(sign_yd(kz2), n)


def test_prebraiding_refuses_a_carrier_whose_b_is_not_its_h(kz2, kz4t):
    # kz4t and Klein have the same dimension, so only the structures tell
    # this carrier apart from one over a single structure; it is no
    # yd-module, and its pre-braiding would act by H's twist on a leg over B;
    # a module has no B at all
    m = longdimod.canonical_dimodule(kz4t, fx.klein_hopf())
    assert not check_yd(m).ok
    for pair in ((m, m), (sign_yd(kz2), m), (m, sign_yd(kz2)),
                 (sign_yd(kz2), fx.sign_module())):
        with pytest.raises(MismatchedBase,
                           match="^pre-braiding of a carrier whose B is not its H$"):
            yd_prebraiding(*pair)
    # a long dimodule over two equal structures is over one
    sign = fx.sign_dimodule()
    assert sign.H is not sign.B
    assert yd_prebraiding(sign, sign) == yd_prebraiding(sign_yd(kz2), sign_yd(kz2))


def test_check_yd_decides_over_the_carriers_own_structure(ctx, kz2):
    # the yd-module a kz2 (x) kz2 context induces lives over the Hopf
    # algebra kz2 (x) kz2, so check_yd runs (HYD)' too, and a failure's
    # witness is named in that algebra's basis
    yd = hb_yd_structure(ctx, longdimod.canonical_dimodule(kz2, kz2))
    rep = check_yd(yd)
    assert rep.passed("HYD") and rep.passed("HYD-prime") and rep.flags["hyd-consistent"]
    planes = dense_part(yd, "action")
    planes[1][0][0] += 1
    bad = check_yd(replace(yd, action=Matrix.from_tensor(planes)))
    assert not bad.passed("HYD")
    assert bad.check("HYD").witness[0] in yd.H.basis


def test_the_kind_follows_from_the_parts(kz2):
    sd = fx.sign_dimodule()
    assert fx.sign_module().kind == "hom-module"
    assert fx.sign_comodule().kind == "hom-comodule"
    assert sd.kind == "long-dimodule"
    for kind in ("yd-module", "halpha-dimodule"):
        assert replace(sd, kind=kind).kind == kind


# a kind the parts contradict, over kz2 with the sign maps, and its refusal
CONTRADICTIONS = {
    "module-as-dimodule": (("action",), "long-dimodule", "a hom-module is not a long-dimodule"),
    "module-as-comodule": (("action",), "hom-comodule", "a hom-module is not a hom-comodule"),
    "comodule-as-yd": (("coaction",), "yd-module", "a hom-comodule is not a yd-module"),
    "dimodule-as-module": (("action", "coaction"), "hom-module",
                           "a long-dimodule is not a hom-module"),
    "unknown": (("action", "coaction"), "context", "a long-dimodule is not a context"),
    "no-parts": ((), None, "a carrier needs an action or a coaction"),
}


@pytest.mark.parametrize("case", sorted(CONTRADICTIONS))
def test_carrier_refuses_a_kind_its_parts_contradict(kz2, case):
    parts, kind, message = CONTRADICTIONS[case]
    sd = fx.sign_dimodule()
    maps = {name: getattr(sd, name) if name in parts else None
            for name in ("action", "coaction")}
    with pytest.raises(DimensionMismatch, match="^%s$" % re.escape(message)):
        Carrier(kz2 if "action" in parts else None, kz2 if "coaction" in parts else None, 1,
                maps["action"], maps["coaction"], sd.mu, kind=kind)


@pytest.mark.parametrize("side", ["H", "B"])
def test_carrier_refuses_a_structure_without_its_map(kz2, side):
    # H comes with the action and B with the coaction
    m = fx.sign_module() if side == "B" else fx.sign_comodule()
    with pytest.raises(DimensionMismatch, match="^%s and the %s come together$"
                       % (side, "action" if side == "H" else "coaction")):
        replace(m, **{side: kz2})


@pytest.mark.parametrize("kind", ["yd-module", "halpha-dimodule"])
def test_one_structure_kinds_refuse_two(kz2, kind):
    sd = fx.sign_dimodule()
    assert replace(sd, kind=kind).H == replace(sd, kind=kind).B
    with pytest.raises(MismatchedBase, match="^a %s lives over one structure, not a pair$"
                       % kind):
        replace(sd, B=replace(kz2, basis=("e", "f")), kind=kind)
