"""Hom-Long dimodules over a pair of Hom-bialgebras.

A dimodule is an action over H and a coaction over B on one carrier with a
single invertible structure map, compatible via
rho(h.m) = b(m_-1) (x) a(h).m_0.  This module provides validation, the
canonical carrier H (x) B, tensor products, the monoidal constraint maps with
their coherence report, left/right duals with evaluation and coevaluation,
and the equivalence with modules over the smash-type algebra B*op (x) H.
"""

from dataclasses import dataclass

from .linalg import (Matrix, Tensor3, DimensionMismatch, composite_matrix, coproduct_columns,
                     flip_columns, kron, kron_all, per_leg, product_columns, sparse_columns,
                     ZERO, ONE)
from .homstruct import HomAlgebra, HomBialgebra, dual_hopf, opposite_algebra
from .repmod import HomModule, HomComodule, validate_hom_module, validate_hom_comodule
from .report import AxiomReport, composites_equal_report


class MismatchedBase(Exception):
    """Dimodules over different algebra pairs cannot be combined."""


class AntipodeNotInvertible(Exception):
    """Duality needs bijective antipodes on both algebras."""


@dataclass(frozen=True)
class HomLongDimodule:
    H: HomBialgebra
    B: HomBialgebra
    dim: int
    action: Tensor3        # over H: action[h][i][j]
    coaction: Tensor3      # over B: coaction[i][a][j]
    mu: Matrix             # one structure map shared by both parts
    basis: tuple = None

    def __post_init__(self):
        nh = self.H.dim
        nb = self.B.dim
        if self.action.dims != (nh, self.dim, self.dim):
            raise DimensionMismatch("action dims %r for H dim %d, carrier dim %d"
                                    % (self.action.dims, nh, self.dim))
        if self.coaction.dims != (self.dim, nb, self.dim):
            raise DimensionMismatch("coaction dims %r for B dim %d, carrier dim %d"
                                    % (self.coaction.dims, nb, self.dim))
        if self.mu.rows != self.dim or self.mu.cols != self.dim:
            raise DimensionMismatch("structure map is %dx%d on a dim-%d carrier"
                                    % (self.mu.rows, self.mu.cols, self.dim))
        if self.basis is None:
            object.__setattr__(self, "basis",
                               tuple("m%d" % i for i in range(self.dim)))

    def module_part(self):
        return HomModule(self.H.algebra, self.dim, self.action,
                         self.mu, self.basis)

    def comodule_part(self):
        return HomComodule(self.B.coalgebra, self.dim, self.coaction,
                           self.mu, self.basis)

    @property
    def action_map(self):
        return self.action.flatten_in2_out1()

    @property
    def coaction_map(self):
        return self.coaction.flatten_in1_out2()


@dataclass(frozen=True)
class DualityData:
    dual: HomLongDimodule
    ev: Matrix             # pairing to the ground field, a 1 x d^2 row
    coev: Matrix           # image of 1, a d^2 x 1 column
    side: str              # "left" or "right"


def validate_long_dimodule(d):
    """Module axioms over H, comodule axioms over B, and the compatibility
    rho(h.m) = b(m_-1) (x) a(h).m_0."""
    h, b = d.H, d.B
    rep = AxiomReport()
    rep.extend(validate_hom_module(h.algebra, d.module_part()), "module:")
    rep.extend(validate_hom_comodule(b.coalgebra, d.comodule_part()), "comodule:")
    act, co = product_columns(d.action), coproduct_columns(d.coaction)
    nh, nb, to_d, to_bd = h.dim, b.dim, (d.dim,), (b.dim, d.dim)
    composites_equal_report(rep, "compat-2.1",
                            [(act, (0, 1), to_d), (co, (0,), to_bd)],
                            [(co, (1,), to_bd), (flip_columns(nh, nb), (0, 1), (nb, nh)),
                             (sparse_columns(b.gamma), (0,), None),
                             (sparse_columns(h.gamma), (1,), None), (act, (1, 2), to_d)],
                            (nh, d.dim), (h.basis, d.basis))
    return rep


def canonical_dimodule(h, b):
    """The carrier H (x) B with h.(g (x) x) = hg (x) b(x) and
    rho(g (x) x) = x1 (x) (a(g) (x) x2)."""
    nh, nb = h.dim, b.dim
    d = nh * nb
    mh = h.mult
    cb = b.comult
    beta = b.gamma
    alpha = h.gamma

    def act(hh, i, j):
        g, x = divmod(i, nb)
        a, y = divmod(j, nb)
        return mh.data[hh][g][a] * beta.data[y][x]

    def coact(i, c, j):
        g, x = divmod(i, nb)
        a, y = divmod(j, nb)
        return cb.data[x][c][y] * alpha.data[a][g]

    names = tuple("%s⊗%s" % (x, y) for x in h.basis for y in b.basis)
    return HomLongDimodule(h, b, d,
                           Tensor3.from_function(nh, d, d, act),
                           Tensor3.from_function(d, nb, d, coact),
                           kron(alpha, beta), names)


def base_parts(d):
    """The algebra and coalgebra parts of the pair (H, B) of a dimodule or a
    braiding context.  Antipodes are left out: they do not decide which
    dimodules combine."""
    return d.H.algebra, d.H.coalgebra, d.B.algebra, d.B.coalgebra


def tensor_dimodule(m, n):
    """Tensor product with h.(m (x) n) = h1.m (x) h2.n and
    rho(m (x) n) = b^-2(m_-1 n_-1) (x) m_0 (x) n_0, each map built one basis
    column at a time from the factors' structure constants."""
    if base_parts(m) != base_parts(n):
        raise MismatchedBase("tensor of dimodules over different algebra pairs")
    h, b = m.H, n.B
    nh, nb = h.dim, b.dim
    dm, dn = m.dim, n.dim
    d = dm * dn
    # (h, m, n) -> (h1, h2, m, n) -> (h1, m, h2, n) -> (h1.m, h2, n) -> (h1.m, h2.n)
    act_mat = composite_matrix([(coproduct_columns(h.comult), (0,), (nh, nh)),
                                (flip_columns(nh, dm), (1, 2), (dm, nh)),
                                (product_columns(m.action), (0, 1), (dm,)),
                                (product_columns(n.action), (1, 2), (dn,))],
                               (nh, dm, dn))
    # (m, n) -> (m_-1, m_0, n_-1, n_0) -> (m_-1, n_-1, m_0, n_0) -> (b^-2(m_-1 n_-1), m_0, n_0)
    co_mat = composite_matrix([(coproduct_columns(m.coaction), (0,), (nb, dm)),
                               (coproduct_columns(n.coaction), (2,), (nb, dn)),
                               (flip_columns(dm, nb), (1, 2), (nb, dm)),
                               (product_columns(b.mult), (0, 1), (nb,)),
                               (sparse_columns((b.gamma * b.gamma).inv()), (0,), None)],
                              (dm, dn))
    mu = composite_matrix(per_leg(m.mu, n.mu), (dm, dn))
    names = tuple("%s⊗%s" % (x, y) for x in m.basis for y in n.basis)
    return HomLongDimodule(m.H, m.B, d,
                           Tensor3.from_in2_out1(act_mat, nh, d),
                           Tensor3.from_in1_out2(co_mat, nb, d),
                           mu, names)


def unit_dimodule(h, b):
    """The monoidal unit: the ground field with identity structure map."""
    act = Tensor3.from_function(h.dim, 1, 1, lambda i, _j, _k: h.counit[i])
    coact = Tensor3.from_function(1, b.dim, 1, lambda _i, a, _k: b.unit[a])
    return HomLongDimodule(h, b, 1, act, coact, Matrix.identity(1), ("1",))


def trivial_dimodule(h, b, mu=None):
    """Any invertible structure map with the counit action h.m = eps(h) mu(m)
    and the unit coaction rho(m) = 1_B (x) mu(m)."""
    if mu is None:
        mu = Matrix.identity(1)
    d = mu.rows
    act = Tensor3.from_function(h.dim, d, d,
                                lambda i, j, k: h.counit[i] * mu.data[k][j])
    coact = Tensor3.from_function(d, b.dim, d,
                                  lambda j, a, k: b.unit[a] * mu.data[k][j])
    return HomLongDimodule(h, b, d, act, coact, mu)


def associator(u, v, w):
    """Matrix of (u (x) v) (x) w -> u (x) (v (x) w),
    (u (x) v) (x) w -> mu^-1(u) (x) (v (x) omega(w))."""
    return kron_all(u.mu.inv(), Matrix.identity(v.dim), w.mu)


def associator_legs(u, w, inverse=False):
    """associator(u, v, w) as steps for first_differing_column on the legs
    (u, v, w): mu_u^-1 on leg 0 and omega_w on leg 2.  The inverse is mu_u
    on leg 0 and omega_w^-1 on leg 2, so no triple product is inverted."""
    first, last = (u.mu, w.mu.inv()) if inverse else (u.mu.inv(), w.mu)
    return [(sparse_columns(first), (0,), None), (sparse_columns(last), (2,), None)]


def monoidal_constraints(u, v, w):
    """The associator for (u, v, w) and the unit constraints of v."""
    return {"assoc": associator(u, v, w), "left_unit": v.mu, "right_unit": v.mu}


def dimodule_morphism_report(m, n, f):
    """H-linearity, B-colinearity and structure-map commutation of f: m -> n,
    each checked column by column."""
    if f.rows != n.dim or f.cols != m.dim:
        raise DimensionMismatch("a %dx%d map from dim %d to dim %d"
                                % (f.rows, f.cols, m.dim, n.dim))
    rep = AxiomReport()
    h, b = m.H, m.B
    fc = sparse_columns(f)
    to_n = (n.dim,)
    composites_equal_report(rep, "H-linear",
                            [(product_columns(m.action), (0, 1), (m.dim,)), (fc, (0,), to_n)],
                            [(fc, (1,), to_n), (product_columns(n.action), (0, 1), to_n)],
                            (h.dim, m.dim), (h.basis, m.basis))
    rho_m, rho_n = coproduct_columns(m.coaction), coproduct_columns(n.coaction)
    composites_equal_report(rep, "B-colinear",
                            [(fc, (0,), to_n), (rho_n, (0,), (b.dim, n.dim))],
                            [(rho_m, (0,), (b.dim, m.dim)), (fc, (1,), to_n)],
                            (m.dim,), (m.basis,))
    composites_equal_report(rep, "structure-commute",
                            [(fc, (0,), to_n), (sparse_columns(n.mu), (0,), None)],
                            [(sparse_columns(m.mu), (0,), None), (fc, (0,), to_n)],
                            (m.dim,), (m.basis,))
    return rep


def is_dimodule_morphism(m, n, f):
    return dimodule_morphism_report(m, n, f).ok


def check_coherence(u, v, w, x=None, morphisms=None):
    """Coherence of the monoidal constraints on concrete objects.

    Reports naturality of the associator (against the structure maps when
    those are morphisms, else identities), the pentagon on (u, v, w, x) with
    x defaulting to w, the triangle for (u, v), and H-linearity/B-colinearity
    of the associator and both unit constraints.  Failures are findings, not
    errors: the report records them with witnesses.  The naturality,
    pentagon and triangle identities are checked column by column on the
    tensor legs; the structure map of a tensor product is the Kronecker
    product of its factors' maps, so each associator is a map on two legs.
    """
    if x is None:
        x = w
    rep = AxiomReport()

    if morphisms is None:
        use_structure = all(is_dimodule_morphism(t, t, t.mu) for t in (u, v, w))
        if use_structure:
            morphisms = (u.mu, v.mu, w.mu)
            rep.set_flag("naturality-morphisms", "structure-maps")
        else:
            morphisms = (Matrix.identity(u.dim), Matrix.identity(v.dim),
                         Matrix.identity(w.dim))
            rep.set_flag("naturality-morphisms", "identity")
    if any(m.rows != t.dim or m.cols != t.dim for m, t in zip(morphisms, (u, v, w))):
        raise DimensionMismatch("naturality morphisms must be endomorphisms of u, v, w")
    mu = {id(t): sparse_columns(t.mu) for t in (u, v, w, x)}
    mui = {id(t): sparse_columns(t.mu.inv()) for t in (u, v)}
    fgh = [(sparse_columns(m), (leg,), None) for leg, m in enumerate(morphisms)]
    a_uvw = associator_legs(u, w)
    composites_equal_report(rep, "naturality-a", fgh + a_uvw, a_uvw + fgh,
                            (u.dim, v.dim, w.dim), (u.basis, v.basis, w.basis))

    # pentagon on the legs (u, v, w, x): associator(uv, w, x) is
    # mu_u^-1 (x) mu_v^-1 (x) id (x) omega_x, and so on
    path1 = [(mui[id(u)], (0,), None), (mui[id(v)], (1,), None), (mu[id(x)], (3,), None),
             (mui[id(u)], (0,), None), (mu[id(w)], (2,), None), (mu[id(x)], (3,), None)]
    path2 = [(mui[id(u)], (0,), None), (mu[id(w)], (2,), None),
             (mui[id(u)], (0,), None), (mu[id(x)], (3,), None),
             (mui[id(v)], (1,), None), (mu[id(x)], (3,), None)]
    composites_equal_report(rep, "pentagon", path1, path2,
                            (u.dim, v.dim, w.dim, x.dim),
                            (u.basis, v.basis, w.basis, x.basis))

    lhs = [(mui[id(u)], (0,), None), (mu[id(v)], (1,), None), (mu[id(v)], (1,), None)]
    composites_equal_report(rep, "triangle", lhs, [(mu[id(u)], (0,), None)],
                            (u.dim, v.dim), (u.basis, v.basis))

    unit = unit_dimodule(u.H, u.B)
    uvw_l = tensor_dimodule(tensor_dimodule(u, v), w)
    uvw_r = tensor_dimodule(u, tensor_dimodule(v, w))
    arep = dimodule_morphism_report(uvw_l, uvw_r, associator(u, v, w))
    rep.add("assoc-H-linear", arep.passed("H-linear"), arep.check("H-linear").witness)
    rep.add("assoc-B-colinear", arep.passed("B-colinear"), arep.check("B-colinear").witness)
    lv = dimodule_morphism_report(tensor_dimodule(unit, v), v, v.mu)
    rep.add("left-unit-H-linear", lv.passed("H-linear"), lv.check("H-linear").witness)
    rep.add("left-unit-B-colinear", lv.passed("B-colinear"), lv.check("B-colinear").witness)
    rv = dimodule_morphism_report(tensor_dimodule(v, unit), v, v.mu)
    rep.add("right-unit-H-linear", rv.passed("H-linear"), rv.check("H-linear").witness)
    rep.add("right-unit-B-colinear", rv.passed("B-colinear"), rv.check("B-colinear").witness)
    return rep


# ---------------------------------------------------------------------------
# duals

def _require_hopf_pair(m):
    h, b = m.H, m.B
    if h.antipode is None or b.antipode is None:
        raise AntipodeNotInvertible("duality needs Hopf structures on both sides")
    return h, b


def left_dual(m):
    """Left dual carrier with (h.f)(x) = f(S_H a^-1(h) . mu^-2(x)),
    f_-1 (x) f_0(x) = S_B^-1 b^-1(x_-1) (x) f(mu^-2(x_0)), mu*(f) = f o mu^-1."""
    h, b = _require_hopf_pair(m)
    if h.antipode.det() == 0 or b.antipode.det() == 0:
        raise AntipodeNotInvertible("antipode is singular")
    return _dual(m, h.antipode * h.gamma.inv(),
                 b.antipode.inv() * b.gamma.inv(), "left")


def right_dual(m):
    """Right dual carrier with (h.f)(x) = f(S_H^-1 a^-1(h) . mu^-2(x)) and
    f_-1 (x) f_0(x) = S_B b^-1(x_-1) (x) f(mu^-2(x_0))."""
    h, b = _require_hopf_pair(m)
    if h.antipode.det() == 0 or b.antipode.det() == 0:
        raise AntipodeNotInvertible("antipode is singular")
    return _dual(m, h.antipode.inv() * h.gamma.inv(),
                 b.antipode * b.gamma.inv(), "right")


def _dual(m, h_twist, b_twist, side):
    h, b = m.H, m.B
    nh, nb, d = h.dim, b.dim, m.dim
    mu2i = (m.mu * m.mu).inv()
    p = m.action_map * kron(h_twist, mu2i)   # p[i][(h,j)] = coeff of m_i in (h_twist e_h).mu^-2(m_j)
    act = Tensor3.from_function(nh, d, d, lambda hh, i, j: p.data[i][hh * d + j])
    rho = m.coaction

    def coact(i, a, l):
        s = ZERO
        for c in range(nb):
            t = b_twist.data[a][c]
            if t == 0:
                continue
            for o in range(d):
                x = rho.data[l][c][o]
                if x:
                    s += x * t * mu2i.data[i][o]
        return s

    co = Tensor3.from_function(d, nb, d, coact)
    mu_star = m.mu.inv().transpose()
    names = tuple(x + "*" for x in m.basis)
    dual = HomLongDimodule(h, b, d, act, co, mu_star, names)
    # dual-basis pairing and copairing; the same delta pattern serves both
    # sides (left: ev on M* (x) M, coev in M (x) M*; right: swapped roles).
    ev = Matrix.from_function(1, d * d, lambda _r, c: ONE if c // d == c % d else ZERO)
    coev = Matrix.from_function(d * d, 1, lambda r, _c: ONE if r // d == r % d else ZERO)
    return DualityData(dual, ev, coev, side)


def check_snake(m, duality):
    """Both zig-zag composites of the monoidal constraints, checked column by
    column; each must be the identity of its carrier.

    For the left dual the object composite is
    r (id (x) ev) a (coev (x) id) l^-1 on M, with the unit constraints
    l = r = mu (k (x) M = M = M (x) k) and the associator
    mu^-1 (x) id (x) omega; the dual composite and the right side swap the
    roles of M and M*.
    """
    d = m.dim
    star = duality.dual
    ev, coev = sparse_columns(duality.ev), sparse_columns(duality.coev)
    rep = AxiomReport()
    for axiom, t in (("snake-object", m), ("snake-dual", star)):
        mu, mui = sparse_columns(t.mu), sparse_columns(t.mu.inv())
        # coev lands left of the carrier and ev pairs its last two legs, or
        # the mirror image: the former for M with a left dual and for M*
        # with a right dual
        if (duality.side == "left") == (t is m):
            zig = [(mui, (0,), (1, d)), (coev, (0,), (d, d)),
                   (mui, (0,), None), (mu, (2,), None),
                   (ev, (1, 2), ()), (mu, (0,), None)]
        else:
            zig = [(mui, (0,), (d, 1)), (coev, (1,), (d, d)),
                   (mu, (0,), None), (mui, (2,), None),
                   (ev, (0, 1), ()), (mu, (0,), None)]
        composites_equal_report(rep, axiom, zig, [], (d,), (t.basis,))
    return rep


# ---------------------------------------------------------------------------
# equivalence with smash-type modules

def smash_product_algebra(b, h):
    """The Hom-algebra B*op (x) H (only the algebra structure is needed)."""
    dual_alg = opposite_algebra(dual_hopf(b).algebra)
    halg = h.algebra
    nd, nh = dual_alg.dim, halg.dim
    n = nd * nh

    def mult_entry(i, j, k):
        i0, i1 = divmod(i, nh)
        j0, j1 = divmod(j, nh)
        k0, k1 = divmod(k, nh)
        return dual_alg.mult.data[i0][j0][k0] * halg.mult.data[i1][j1][k1]

    names = tuple("%s⊗%s" % (x, y) for x in dual_alg.basis for y in halg.basis)
    return HomAlgebra(n, Tensor3.from_function(n, n, n, mult_entry),
                      dual_alg.unit.kron(halg.unit),
                      kron(dual_alg.alpha, halg.alpha), names)


def to_smash_module(m):
    """(p (x) h) . x = p(x_-1) h . mu^-1(x_0) as a module over B*op (x) H."""
    h, b = m.H, m.B
    nh, nb, d = h.dim, b.dim, m.dim
    alg = smash_product_algebra(b, h)
    p = m.action_map * kron(Matrix.identity(nh), m.mu.inv())
    rho = m.coaction

    def act(ph, i, j):
        pp, hh = divmod(ph, nh)
        s = ZERO
        for o in range(d):
            x = rho.data[i][pp][o]
            if x:
                s += x * p.data[j][hh * d + o]
        return s

    return HomModule(alg, d, Tensor3.from_function(nb * nh, d, d, act), m.mu, m.basis)


def from_smash_module(n, h, b):
    """Recover the dimodule: h.m = (eps_B (x) h) . m and
    m_-1 (x) m_0 = sum_i b_i (x) (f^i (x) 1_H) . m."""
    nh, nb, d = h.dim, b.dim, n.dim
    if n.over.dim != nh * nb:
        raise DimensionMismatch("module is over a dim-%d algebra, expected %d"
                                % (n.over.dim, nh * nb))
    eps = b.counit
    u = h.unit
    actn = n.action

    def act(hh, i, j):
        s = ZERO
        for a in range(nb):
            e = eps[a]
            if e:
                s += e * actn.data[a * nh + hh][i][j]
        return s

    def coact(i, a, j):
        s = ZERO
        for t in range(nh):
            x = u[t]
            if x:
                s += x * actn.data[a * nh + t][i][j]
        return s

    return HomLongDimodule(h, b, d,
                           Tensor3.from_function(nh, d, d, act),
                           Tensor3.from_function(d, nb, d, coact),
                           n.nu, n.basis)
