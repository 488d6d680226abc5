"""Acceptance suite: one test per criterion, each printing its verdict line.

Every check is an exact rational identity; there are no tolerances.  Run
`pytest -s tests/test_acceptance.py` to see one line per criterion, or
`python tests/test_acceptance.py` to run the suite standalone.
"""

import random
import sys
from dataclasses import replace
from fractions import Fraction

from homlong import fixtures as fx
from homlong.linalg import Matrix
from homlong.homstruct import (validate_all,
                               validate_coquasitriangular, validate_hom_algebra,
                               validate_hom_bialgebra, validate_hom_coalgebra,
                               validate_hom_hopf, validate_quasitriangular)
from homlong.repmod import check_yd, validate_hom_comodule, validate_hom_module
from homlong.longdimod import (canonical_dimodule, check_coherence, check_snake,
                               from_smash_module, left_dual, right_dual,
                               to_smash_module, trivial_dimodule,
                               validate_long_dimodule)
from homlong.braidcat import (BraidingContext, DimoduleMorphism,
                              check_braid_morphism, check_braiding_compatibility,
                              check_hexagons, check_naturality, check_qybe,
                              check_symmetry, comodule_as_dimodule,
                              hb_yd_structure, long_braiding,
                              long_braiding_inverse, module_as_dimodule)
from homlong.longeq import (check_long_equation,
                            comodule_extension, coordinate_criterion, coords_to_operator,
                            diagonal_solution, dimodule_solution,
                            module_extension, operator_to_coords,
                            search_solutions, tau_transforms)
from test_oracles import grid_search_oracle, kron, mul, tensor

RESULTS = []


def verdict(number, label, ok):
    line = "ACCEPTANCE %2d %-52s %s" % (number, label, "PASS" if ok else "FAIL")
    print(line)
    RESULTS.append((number, label, ok))
    assert ok, line


def context():
    kz2 = fx.kz2()
    return BraidingContext(kz2, fx.kz2_rmatrix(), kz2, fx.kz2_form())


def fixture_dimodules():
    return fx.standard_dimodules()


# ---------------------------------------------------------------------------

def test_criterion_1_axiom_tower():
    kz2, kz4t, swt = fx.kz2(), fx.kz4_twisted(), fx.sweedler_twisted()
    ok = all(validate_all(h).ok for h in (kz2, kz4t, swt))

    # mutated copies must fail with a correct witness
    mut_alg = replace(kz2.algebra, gamma=Matrix([[1, 0], [0, 2]]))
    rep = validate_hom_algebra(mut_alg)
    ok = ok and not rep.passed("HA1-mult") and rep.check("HA1-mult").witness == ("g", "g")

    mut_coa = replace(kz2.coalgebra, counit=Matrix([[1], [0]]))
    rep = validate_hom_coalgebra(mut_coa)
    ok = ok and not rep.passed("HC2-counit") and rep.check("HC2-counit").witness[1] == "g"

    mult = tensor(2, 2, 2,
                                 lambda i, j, k: (2 if (i, j) == (1, 1) else 1)
                                 if k == (i + j) % 2 else 0)
    mut_bi = replace(kz2, mult=mult, antipode=None)
    rep = validate_hom_bialgebra(mut_bi)
    ok = ok and not rep.passed("delta-mult") and rep.check("delta-mult").witness == ("g", "g")

    mut_hopf = replace(kz2, antipode=Matrix.zeros(2, 2))
    rep = validate_hom_hopf(mut_hopf)
    ok = ok and not rep.passed("antipode-left") and rep.check("antipode-left").witness == ("1",)

    verdict(1, "axiom tower + mutation witnesses", ok)


def test_criterion_2_quasitriangular():
    kz2 = fx.kz2()
    qrep = validate_quasitriangular(kz2, fx.kz2_rmatrix())
    crep = validate_coquasitriangular(kz2, fx.kz2_form())
    ok = (qrep.ok and qrep.flags["triangular"]
          and crep.ok and crep.flags["cotriangular"])
    verdict(2, "QHA1-5 triangular; CHA1-5 cotriangular", ok)


def test_criterion_3_braided_structure():
    ctx = context()
    dims = fixture_dimodules()
    ok = True
    for m in dims.values():
        for n in dims.values():
            c = long_braiding(ctx, m, n)
            ci = long_braiding_inverse(ctx, m, n)
            ok = ok and check_braid_morphism(c).ok
            ok = ok and mul(ci.matrix, c.matrix) == Matrix.identity(m.dim * n.dim)
            ok = ok and mul(c.matrix, ci.matrix) == Matrix.identity(n.dim * m.dim)
            f = DimoduleMorphism(m, m, m.mu)
            g = DimoduleMorphism(n, n, n.mu)
            ok = ok and check_naturality(ctx, f, g).ok
    for u in dims.values():
        for v in dims.values():
            for w in dims.values():
                ok = ok and check_hexagons(ctx, u, v, w).ok
    verdict(3, "braiding: morphism, inverse, naturality, hexagons", ok)


def test_criterion_4_qybe():
    ctx = context()
    dims = fixture_dimodules()
    ok = all(check_qybe(ctx, u, v, w).ok
             for u in dims.values() for v in dims.values() for w in dims.values())
    verdict(4, "quantum Yang-Baxter composite", ok)


def test_criterion_5_embedding():
    ctx = context()
    dims = fixture_dimodules()
    ok = True
    for m in dims.values():
        yd = hb_yd_structure(ctx, m)
        ok = ok and validate_hom_module(yd).ok
        ok = ok and validate_hom_comodule(yd).ok
        ok = ok and check_yd(yd).ok
    for m in dims.values():
        for n in dims.values():
            ok = ok and check_braiding_compatibility(ctx, m, n).ok
    verdict(5, "Yetter-Drinfeld embedding + pre-braiding equality", ok)


def test_criterion_6_autonomy():
    dims = fixture_dimodules()
    ok = True
    for m in dims.values():
        for dual in (left_dual(m), right_dual(m)):
            ok = ok and validate_long_dimodule(dual.dual).ok
            ok = ok and check_snake(m, dual).ok
    verdict(6, "left and right snake identities", ok)


def test_criterion_7_smash_equivalence():
    kz2, kz4t = fx.kz2(), fx.kz4_twisted()
    roster = dict(fixture_dimodules())
    roster["canonical-B4"] = canonical_dimodule(kz2, kz4t)
    roster["trivial-B4"] = trivial_dimodule(kz2, kz4t, Matrix.diagonal([1, 2]))
    ok = True
    for d in roster.values():
        n = to_smash_module(d)
        ok = ok and validate_hom_module(n).ok
        back = from_smash_module(n, d.H, d.B)
        ok = ok and back.action == d.action and back.coaction == d.coaction \
            and back.mu == d.mu
        again = to_smash_module(back)
        ok = ok and again.action == n.action and again.mu == n.mu
    verdict(7, "smash-module equivalence round trips", ok)


def test_criterion_8_symmetry():
    ctx = context()
    kz2 = fx.kz2()
    roster = dict(fixture_dimodules())
    roster["mod-sign"] = module_as_dimodule(kz2, fx.sign_module(), kz2)
    roster["mod-reg"] = module_as_dimodule(kz2, fx.regular_module(kz2), kz2)
    roster["comod-sign"] = comodule_as_dimodule(kz2, fx.sign_comodule(), kz2)
    roster["comod-reg"] = comodule_as_dimodule(kz2, fx.regular_comodule(kz2), kz2)
    ok = ctx.triangular and ctx.cotriangular
    for m in roster.values():
        ok = ok and validate_long_dimodule(m).ok
        for n in roster.values():
            ok = ok and check_symmetry(ctx, m, n).ok
    verdict(8, "symmetry C_NM o C_MN = id incl. restricted families", ok)


def test_criterion_9_hom_long_toolkit():
    rnd = random.Random(20240811)
    ok = True

    # 100 randomized diagonal instances at n in {2, 3}
    for n in (2, 3):
        for _ in range(50):
            a = [Fraction(rnd.randint(1, 9), rnd.randint(1, 9)) * rnd.choice([1, -1])
                 for _ in range(n)]
            b = Matrix([[Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))
                         for _ in range(n)] for _ in range(n)])
            ok = ok and check_long_equation(diagonal_solution(a, b)).ok

    # 100 randomized coordinate instances at n = 2, incl. forced failures,
    # with the index verdict agreeing with the operator oracle, and the four
    # flip-transform verdicts coinciding on the same instances
    n = 2
    for k in range(100):
        z = Matrix.diagonal([rnd.choice([1, 2, 3]) for _ in range(n)])
        if k % 5 == 0:
            bb = [[Fraction(rnd.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            zz = z.to_lists()
            x = [[[[bb[kk][ll] * zz[ll][ll] if (i == kk and j == ll) else Fraction(0)
                    for j in range(n)] for i in range(n)]
                  for ll in range(n)] for kk in range(n)]
            y = x
        elif k % 5 == 1:
            z = Matrix.diagonal([1, 2])
            x = [[[[Fraction(1) if (i == ll and j == kk) else Fraction(0)
                    for j in range(n)] for i in range(n)]
                  for ll in range(n)] for kk in range(n)]
            y = x
        else:
            x = [[[[Fraction(rnd.randint(-2, 2)) for j in range(n)] for i in range(n)]
                  for ll in range(n)] for kk in range(n)]
            y = [[[[Fraction(rnd.randint(-2, 2)) for j in range(n)] for i in range(n)]
                  for ll in range(n)] for kk in range(n)]
        rep = coordinate_criterion(x, y, z)
        ok = ok and rep.flags["agreement"]
        op = coords_to_operator(x, z)
        _, trep = tau_transforms(op)
        ok = ok and trep.flags["all-agree"]

    # induced solutions from every valid single-algebra dimodule fixture
    kz2, kz4t = fx.kz2(), fx.kz4_twisted()
    sd = fx.sign_dimodule()
    cd = canonical_dimodule(kz2, kz2)
    tr = trivial_dimodule(kz2, kz2, Matrix.diagonal([1, 2]))
    halphas = [
        replace(sd, kind="halpha-dimodule"),
        replace(cd, kind="halpha-dimodule"),
        replace(tr, kind="halpha-dimodule"),
        module_extension(kz2, fx.sign_module()),
        module_extension(kz4t, fx.regular_module(kz4t)),
        comodule_extension(kz2, fx.sign_comodule()),
        comodule_extension(kz4t, fx.regular_comodule(kz4t)),
    ]
    for d in halphas:
        ok = ok and validate_long_dimodule(d).ok
        ok = ok and check_long_equation(dimodule_solution(d)).ok

    verdict(9, "Hom-Long toolkit randomized + induced solutions", ok)


def test_criterion_10_search_cross_check():
    mu = Matrix.diagonal([1, 2])
    found = search_solutions(mu, [0, 1], "full")
    # independent oracle: filter the full grid with the elementwise evaluator,
    # which shares no code with the search; the same list in the same order
    oracle = grid_search_oracle(mu.to_lists(), [0, 1], "full")
    ok = oracle == [s.matrix.to_lists() for s in found]
    for s in found:
        x = operator_to_coords(s)
        rep = coordinate_criterion(x, x, mu)
        ok = ok and rep.passed("operator-identity") and rep.passed("index-identity")
        ok = ok and rep.flags["agreement"]
    verdict(10, "exhaustive search equals oracle; criterion passes", ok)


def test_criterion_11_coherence_report():
    dims = dict(fixture_dimodules())
    dims.update(fx.scaled_dimodules())
    findings = []
    ok = True
    for nu, u in dims.items():
        for nv, v in dims.items():
            for nw, w in dims.items():
                rep = check_coherence(u, v, w)
                for c in rep.checks:
                    if not c.passed:
                        findings.append((nu, nv, nw, c.axiom))
                # the constraints were proved compatible except the triangle,
                # which requires mu_U^-2 (x) nu_V^2 = id; record accordingly
                expected_triangle = kron(
                    mul(u.mu.inv(), u.mu.inv()), mul(v.mu, v.mu)).is_identity()
                ok = ok and rep.passed("pentagon")
                ok = ok and rep.passed("naturality-a")
                ok = ok and rep.passed("assoc-H-linear") and rep.passed("assoc-B-colinear")
                ok = ok and rep.passed("triangle") == expected_triangle
                for axiom in ("left-unit-H-linear", "left-unit-B-colinear",
                              "right-unit-H-linear", "right-unit-B-colinear"):
                    ok = ok and rep.passed(axiom)
    # surface the documented findings rather than hiding them
    triangle_failures = [f for f in findings if f[3] == "triangle"]
    others = [f for f in findings if f[3] != "triangle"]
    print("coherence findings: %d triangle failures on scaled structure maps, "
          "%d other" % (len(triangle_failures), len(others)))
    for f in triangle_failures[:5]:
        print("  finding: triangle fails on (%s, %s, %s)" % f[:3])
    ok = ok and not others and triangle_failures
    verdict(11, "coherence report with surfaced triangle findings", ok)


if __name__ == "__main__":
    mod = sys.modules["__main__"]
    names = [n for n in dir(mod) if n.startswith("test_criterion_")]
    names.sort(key=lambda n: int(n.split("_")[2]))
    failed = 0
    for name in names:
        try:
            getattr(mod, name)()
        except AssertionError:
            failed += 1
    sys.exit(1 if failed else 0)
