"""Independent elementwise evaluators cross-checking the matrix pipelines.

The library builds every operator by composing Kronecker products and leg
permutations; these oracles recompute the same operators by summing over
structure constants with explicit loops, so a bookkeeping error in either
route would make them disagree.
"""

from dataclasses import replace
from fractions import Fraction

from homlong import fixtures as fx
from homlong.braidcat import BraidingContext, long_braiding, long_braiding_inverse
from homlong.linalg import Matrix, ZERO
from homlong.longdimod import canonical_dimodule, trivial_dimodule
from homlong.repmod import YetterDrinfeldModule, check_yd


def braiding_elementwise(ctx, m, n):
    """C(m (x) n) = <m_-1|n_-1> R2.nu^-2(n_0) (x) R1.mu^-2(m_0), by loops."""
    nh, nb = ctx.H.dim, ctx.B.dim
    dm, dn = m.dim, n.dim
    f, r = ctx.form, ctx.R
    mu2i = (m.mu * m.mu).inv()
    nu2i = (n.mu * n.mu).inv()
    rho_m, rho_n = m.coaction, n.coaction
    act_m, act_n = m.action, n.action
    out = [[ZERO] * (dm * dn) for _ in range(dn * dm)]
    for mi in range(dm):
        for ni in range(dn):
            col = mi * dn + ni
            for a in range(nb):
                for m0 in range(dm):
                    cm = rho_m[mi, a, m0]
                    if not cm:
                        continue
                    for b in range(nb):
                        for n0 in range(dn):
                            cn = rho_n[ni, b, n0]
                            if not cn:
                                continue
                            pair = f[a, b]
                            if not pair:
                                continue
                            base = cm * cn * pair
                            for i in range(nh):
                                for j in range(nh):
                                    rij = r[i, j]
                                    if not rij:
                                        continue
                                    # e_j . nu^-2(n_0) (x) e_i . mu^-2(m_0)
                                    for p in range(dn):
                                        zn = nu2i[p, n0]
                                        if not zn:
                                            continue
                                        for q in range(dn):
                                            an = act_n[j, p, q]
                                            if not an:
                                                continue
                                            for s in range(dm):
                                                zm = mu2i[s, m0]
                                                if not zm:
                                                    continue
                                                for t in range(dm):
                                                    am = act_m[i, s, t]
                                                    if am:
                                                        out[q * dm + t][col] += (
                                                            base * rij * zn * an * zm * am)
    return Matrix(out)


def test_braiding_matches_elementwise_standard():
    kz2 = fx.kz2()
    ctx = BraidingContext(kz2, fx.kz2_rmatrix(), kz2, fx.kz2_form())
    dims = fx.standard_dimodules()
    dims["sign-x2"] = fx.scaled_dimodules()["sign-x2"]
    for nm, m in dims.items():
        for nn, n in dims.items():
            assert long_braiding(ctx, m, n).matrix == braiding_elementwise(ctx, m, n), (nm, nn)


def test_braiding_matches_elementwise_twisted():
    kz2, kz4t = fx.kz2(), fx.kz4_twisted()
    ctx = BraidingContext(kz4t, fx.trivial_rmatrix(kz4t), kz2, fx.kz2_form())
    can8 = canonical_dimodule(kz4t, kz2)
    tr = trivial_dimodule(kz4t, kz2, Matrix.diagonal([1, 2]))
    for m in (can8, tr):
        for n in (can8, tr):
            assert long_braiding(ctx, m, n).matrix == braiding_elementwise(ctx, m, n)


def hyd_elementwise(h, yd):
    """Both sides of the compatibility identity evaluated per basis pair."""
    hb = h
    n, d = hb.dim, yd.dim
    be = hb.gamma
    be3 = be * be * be
    be2 = be * be
    mult, com = hb.mult, hb.comult
    act, rho = yd.action, yd.coaction
    for hh in range(n):
        for mm in range(d):
            lhs = [[ZERO] * d for _ in range(n)]
            rhs = [[ZERO] * d for _ in range(n)]
            for h1 in range(n):
                for h2 in range(n):
                    ch = com[hh, h1, h2]
                    if not ch:
                        continue
                    # lhs: h1 b(m_-1) (x) b^3(h2) . m0
                    for a in range(n):
                        for m0 in range(d):
                            cr = rho[mm, a, m0]
                            if not cr:
                                continue
                            for ab in range(n):
                                cb = be[ab, a]
                                if not cb:
                                    continue
                                for out_h in range(n):
                                    cm2 = mult[h1, ab, out_h]
                                    if not cm2:
                                        continue
                                    for hb3 in range(n):
                                        c3 = be3[hb3, h2]
                                        if not c3:
                                            continue
                                        for out_m in range(d):
                                            ca = act[hb3, m0, out_m]
                                            if ca:
                                                lhs[out_h][out_m] += ch * cr * cb * cm2 * c3 * ca
                    # rhs: w = b^2(h1).m ; w_-1 h2 (x) w_0
                    for hb2 in range(n):
                        c2 = be2[hb2, h1]
                        if not c2:
                            continue
                        for w in range(d):
                            cw = act[hb2, mm, w]
                            if not cw:
                                continue
                            for a in range(n):
                                for w0 in range(d):
                                    cr = rho[w, a, w0]
                                    if not cr:
                                        continue
                                    for out_h in range(n):
                                        cm2 = mult[a, h2, out_h]
                                        if cm2:
                                            rhs[out_h][w0] += ch * c2 * cw * cr * cm2
            if lhs != rhs:
                return False
    return True


def test_hyd_matches_elementwise():
    kz2 = fx.kz2()
    from homlong.linalg import Tensor3
    good = YetterDrinfeldModule(replace(kz2, antipode=None), 1, Tensor3([[[1]], [[-1]]]),
                                Tensor3([[[0], [1]]]), Matrix.identity(1), ("v",))
    assert check_yd(kz2, good).passed("HYD") == hyd_elementwise(kz2, good)
    sw = fx.sweedler_hopf()
    bad = YetterDrinfeldModule(replace(sw, antipode=None), 4, sw.mult, sw.comult,
                               Matrix.identity(4), sw.basis)
    assert check_yd(sw, bad).passed("HYD") == hyd_elementwise(sw, bad) == False
    swt = fx.sweedler_twisted()
    bad_t = YetterDrinfeldModule(replace(swt, antipode=None), 4, swt.mult, swt.comult,
                                 Matrix.identity(4), swt.basis)
    assert check_yd(swt, bad_t).passed("HYD") == hyd_elementwise(swt, bad_t)


def test_inverse_braiding_against_solver():
    # the displayed inverse equals the matrix inverse on a twisted pair too
    kz2, kz4t = fx.kz2(), fx.kz4_twisted()
    ctx = BraidingContext(kz2, fx.kz2_rmatrix(), kz4t, fx.trivial_form(kz4t))
    can = canonical_dimodule(kz2, kz4t)
    c = long_braiding(ctx, can, can)
    assert long_braiding_inverse(ctx, can, can).matrix == c.matrix.inv()
