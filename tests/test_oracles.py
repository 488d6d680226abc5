"""Independent elementwise evaluators cross-checking the matrix pipelines.

The library builds every operator by composing Kronecker products and leg
permutations; these oracles recompute the same operators by summing over
structure constants with explicit loops, so a bookkeeping error in either
route would make them disagree.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

import sympy
from hypothesis import assume, given, settings, strategies as st

from homlong import fixtures as fx
from homlong.braidcat import BraidingContext, long_braiding, long_braiding_inverse
from homlong.linalg import Matrix, ZERO
from homlong.longdimod import canonical_dimodule, trivial_dimodule
from homlong.longeq import (OperatorOnTensorSquare, check_long_equation,
                            coordinate_criterion, dimodule_solution, module_extension,
                            search_solutions)
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


# ---------------------------------------------------------------------------
# the Hom-Long equation

def longeq_first_failing_column(a, b, mu):
    """First basis triple (u, v, w), in lexicographic order, on which
    (A (x) mu)(mu (x) B) and (mu (x) B)(A (x) mu) differ; None when equal.

    a and b are n^2 x n^2 and mu is n x n, as lists of rows.  Both composites
    are dense n x n x n arrays filled by the index sums
      lhs[p][q][r] = sum_{t,j,k} A[pq, tj] mu[r, k] mu[t, u] B[jk, vw],
      rhs[p][q][r] = sum_{i,j,s} mu[p, i] B[qr, js] A[ij, uv] mu[s, w].
    """
    n = len(mu)
    rng = range(n)
    for u, v, w in itertools.product(rng, repeat=3):
        lhs = [[[0] * n for _ in rng] for _ in rng]
        rhs = [[[0] * n for _ in rng] for _ in rng]
        for t, j, k in itertools.product(rng, repeat=3):
            c = mu[t][u] * b[j * n + k][v * n + w]
            if not c:
                continue
            for p, q in itertools.product(rng, repeat=2):
                x = a[p * n + q][t * n + j] * c
                if x:
                    for r in rng:
                        lhs[p][q][r] += mu[r][k] * x
        for i, j, s in itertools.product(rng, repeat=3):
            c = a[i * n + j][u * n + v] * mu[s][w]
            if not c:
                continue
            for q, r in itertools.product(rng, repeat=2):
                x = b[q * n + r][j * n + s] * c
                if x:
                    for p in rng:
                        rhs[p][q][r] += mu[p][i] * x
        if lhs != rhs:
            return (u, v, w)
    return None


def test_longeq_oracle_by_hand():
    ident, mu = [[1, 0], [0, 1]], [[1, 0], [0, 2]]
    scalar = [[3 if r == c else 0 for c in range(4)] for r in range(4)]
    assert longeq_first_failing_column(scalar, scalar, mu) is None
    # e0 e0 e0 is fixed by both sides; on e0 e0 e1 the flip gives
    # t12 t23: e0 e1 e0 -> e1 e0 e0 but t23 t12: e0 e0 e1 -> e0 e1 e0
    flip = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert longeq_first_failing_column(flip, flip, ident) == (0, 0, 1)


# small rationals in +/- pairs, with zeros, so that index sums often cancel
SMALL = [Fraction(x) for x in (0, 0, 0, 1, -1, 2, -2, "1/2", "-1/2", "3/2")]


@st.composite
def structure_maps(draw, n):
    """A diagonal, unipotent or dense invertible n x n map."""
    kind = draw(st.sampled_from(("diagonal", "unipotent", "dense")))
    entry = st.sampled_from(SMALL)
    if kind == "diagonal":
        return [[draw(entry.filter(bool)) if i == j else 0 for j in range(n)]
                for i in range(n)]
    if kind == "unipotent":
        return [[1 if i == j else (draw(entry) if j > i else 0) for j in range(n)]
                for i in range(n)]
    mu = [[draw(entry) for _ in range(n)] for _ in range(n)]
    assume(sympy.Matrix(mu).det() != 0)
    return mu


@st.composite
def operators(draw, n, mu):
    """A solution or a sparse grid operator, with up to two entries changed.

    The solutions are a scalar, mu (x) mu and N (x) N for a nilpotent
    N = a b^T with b^T a = 0: both sides of the equation for N (x) N vanish
    only through cancelling sums.
    """
    n2 = n * n
    kind = draw(st.sampled_from(("scalar", "mu-mu", "nilpotent", "sparse")))
    c = draw(st.sampled_from(SMALL))
    if kind == "scalar":
        rows = [[c if r == col else 0 for col in range(n2)] for r in range(n2)]
    elif kind == "mu-mu":
        rows = [[mu[i][k] * mu[j][l] for k in range(n) for l in range(n)]
                for i in range(n) for j in range(n)]
    elif kind == "nilpotent":
        a = [draw(st.sampled_from(SMALL)) for _ in range(n)]
        b = [0] * n
        if n > 1:
            i, j = draw(st.permutations(range(n)))[:2]
            b[i], b[j] = c * a[j], -c * a[i]
        rows = [[a[i] * b[k] * a[j] * b[l] for k in range(n) for l in range(n)]
                for i in range(n) for j in range(n)]
    else:
        rows = [[draw(st.sampled_from(SMALL)) for _ in range(n2)] for _ in range(n2)]
    for _ in range(draw(st.integers(0, 2))):
        r, col = draw(st.integers(0, n2 - 1)), draw(st.integers(0, n2 - 1))
        rows[r][col] += draw(st.sampled_from(SMALL))
    return rows


def test_longeq_cancelling_solution():
    # N = a b^T with b^T a = 0; on e0 e0 e2 both sides of the equation for
    # N (x) N vanish, through sums that cancel on different basis tuples
    a, b = (1, 1, 0), (1, -1, 0)
    rows = [[a[i] * b[k] * a[j] * b[l] for k in range(3) for l in range(3)]
            for i in range(3) for j in range(3)]
    mu = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    assert longeq_first_failing_column(rows, rows, mu) is None
    assert check_long_equation(OperatorOnTensorSquare(3, Matrix(rows), Matrix(mu))).ok


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_check_long_equation_matches_oracle(data):
    n = data.draw(st.sampled_from((1, 2, 3)))
    mu = data.draw(structure_maps(n))
    rows = data.draw(operators(n, mu))
    expected = longeq_first_failing_column(rows, rows, mu)
    rep = check_long_equation(OperatorOnTensorSquare(n, Matrix(rows), Matrix(mu)))
    assert rep.ok == (expected is None)
    assert rep.check("hom-long-eq").witness == expected


def _coords_to_rows(x, mu):
    """R[(i, t), (k, l)] = sum_j x[k][l][i][j] mu^-1[t, j], mu^-1 from sympy."""
    n = len(mu)
    inv = [[Fraction(int(e.p), int(e.q)) for e in row]
           for row in sympy.Matrix(mu).inv().tolist()]
    return [[sum(x[k][l][i][j] * inv[t][j] for j in range(n))
             for k in range(n) for l in range(n)]
            for i in range(n) for t in range(n)]


@st.composite
def coordinates(draw, n, mu):
    """x[k][l][i][j] = sum_t R[(i, t), (k, l)] mu[j, t] for a drawn operator R."""
    rows = draw(operators(n, mu))
    return [[[[sum(rows[i * n + t][k * n + l] * mu[j][t] for t in range(n))
               for j in range(n)] for i in range(n)]
             for l in range(n)] for k in range(n)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_operator_identity_matches_oracle(data):
    # S12 o R23 = R23 o S12 is the Hom-Long form with A = S and B = R
    n = data.draw(st.sampled_from((1, 2, 3)))
    mu = data.draw(structure_maps(n))
    x = data.draw(coordinates(n, mu))
    y = x if data.draw(st.booleans()) else data.draw(coordinates(n, mu))
    expected = longeq_first_failing_column(_coords_to_rows(y, mu), _coords_to_rows(x, mu), mu)
    rep = coordinate_criterion(x, y, Matrix(mu))
    assert rep.passed("operator-identity") == (expected is None)
    assert rep.check("operator-identity").witness == expected


@settings(max_examples=30, deadline=None)
@given(structure_maps(2), st.lists(st.sampled_from(SMALL), min_size=1, max_size=3))
def test_diagonal_search_matches_oracle(mu, values):
    expected = []
    for combo in itertools.product(dict.fromkeys(values), repeat=4):
        rows = [[combo[r] if r == c else 0 for c in range(4)] for r in range(4)]
        if longeq_first_failing_column(rows, rows, mu) is None:
            expected.append(rows)
    found = search_solutions(Matrix(mu), values, "diagonal")
    assert [s.matrix.to_lists() for s in found] == expected


def test_longeq_witness_on_perturbed_n16_extension():
    # a 4096-column check; the witness must be the oracle's first failing column
    kz4t = fx.kz4_twisted()
    op = dimodule_solution(module_extension(kz4t, fx.regular_module(kz4t)))
    rows, mu = op.matrix.to_lists(), op.structure_map.to_lists()
    rows[200][77] += 1
    expected = longeq_first_failing_column(rows, rows, mu)
    assert expected is not None
    rep = check_long_equation(OperatorOnTensorSquare(16, Matrix(rows), op.structure_map))
    assert rep.check("hom-long-eq").witness == expected
