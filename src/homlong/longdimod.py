"""Hom-Long dimodules over a pair of Hom-bialgebras.

A dimodule is a repmod.Carrier with both parts, an action over H and a
coaction over B with a single invertible structure map, compatible via
rho(h.m) = b(m_-1) (x) a(h).m_0.  This module provides validation, the
canonical carrier H (x) B, tensor products, the monoidal constraint maps with
their coherence report, left/right duals with evaluation and coevaluation,
and the equivalence with modules over the smash-type algebra B*op (x) H.
"""

from dataclasses import dataclass, replace

from .linalg import Matrix, move_legs, per_leg_matrix, sparse_columns
from .homstruct import (dual_hopf, opposite_algebra, require_shape, tensor_algebra,
                        tensor_basis)
from .repmod import Carrier, MismatchedBase, validate_hom_module, validate_hom_comodule
from .report import AxiomReport, Identity, compose


class AntipodeNotInvertible(Exception):
    """Duality needs bijective antipodes on both algebras."""


@dataclass(frozen=True)
class DualityData:
    dual: Carrier
    ev: Matrix             # pairing to the ground field, a 1 x d^2 row
    coev: Matrix           # image of 1, a d^2 x 1 column
    side: str              # "left" or "right"


def validate_long_dimodule(d):
    """Module axioms over H, comodule axioms over B, and the compatibility
    rho(h.m) = b(m_-1) (x) a(h).m_0."""
    h, b = d.H, d.B
    rep = AxiomReport()
    rep.extend(validate_hom_module(d), "module:")
    rep.extend(validate_hom_comodule(d), "comodule:")
    return rep.record(Identity("compat-2.1", dict(h=h.basis, m=d.basis),
                               [(d.action, "h m -> m"), (d.coaction, "m -> b m")],
                               [(d.coaction, "m -> b m"), (b.gamma, "b"), (h.gamma, "h"),
                                (d.action, "h m -> m")]))


def canonical_dimodule(h, b):
    """The carrier H (x) B with h.(g (x) x) = hg (x) b(x) and
    rho(g (x) x) = x1 (x) (a(g) (x) x2): h_tensor_parts with B's coproduct
    as the coaction."""
    return Carrier(h, b, *h_tensor_parts(h, b, b.comult, b.gamma, b.basis))


def h_tensor_parts(h, c, coaction, mu, names):
    """H (x) M for a coaction of c on M with structure map mu, M's basis
    being named names: h.(g (x) x) = hg (x) mu(x) and
    rho(g (x) x) = x_-1 (x) (a(g) (x) x_0), as (dim, action, coaction,
    structure map a (x) mu, basis names)."""
    nh, dm, nc = h.dim, mu.rows, c.dim
    act = compose(dict(h=nh, g=nh, x=dm), [(h.mult, "h g -> g"), (mu, "x")], "g x").matrix()
    co = compose(dict(g=nh, x=dm), [(h.gamma, "g"), (coaction, "x -> c x")], "c g x").coproduct(nc)
    return nh * dm, act, co, per_leg_matrix(h.gamma, mu), tensor_basis(h.basis, names)


def base_parts(d):
    """Every field but the antipode of each of the pair (H, B) of a dimodule
    or a braiding context.  Antipodes are left out: they do not decide which
    dimodules combine."""
    h, b = d.H, d.B
    return (h.dim, h.gamma, h.mult, h.unit, h.comult, h.counit, h.basis,
            b.dim, b.gamma, b.mult, b.unit, b.comult, b.counit, b.basis)


def tensor_dimodule(m, n):
    """Tensor product with h.(m (x) n) = h1.m (x) h2.n and
    rho(m (x) n) = b^-2(m_-1 n_-1) (x) m_0 (x) n_0."""
    if base_parts(m) != base_parts(n):
        raise MismatchedBase("tensor of dimodules over different algebra pairs")
    h, b, bi = m.H, n.B, (n.B.gamma.inv(), "p")
    act = compose(dict(h=h.dim, x=m.dim, y=n.dim), [(h.comult, "h -> h g"), (m.action, "h x -> x"),
                                                    (n.action, "g y -> y")], "x y")
    co = compose(dict(x=m.dim, y=n.dim), [(m.coaction, "x -> p x"), (n.coaction, "y -> q y"),
                                          (b.mult, "p q -> p"), bi, bi], "p x y")
    return Carrier(m.H, m.B, m.dim * n.dim, act.matrix(), co.coproduct(b.dim),
                   per_leg_matrix(m.mu, n.mu), tensor_basis(m.basis, n.basis))


def unit_dimodule(h, b):
    """The monoidal unit: the ground field with identity structure map."""
    return replace(trivial_dimodule(h, b), basis=("1",))


def trivial_dimodule(h, b, mu=None):
    """Any invertible structure map with the counit action h.m = eps(h) mu(m)
    and the unit coaction rho(m) = 1_B (x) mu(m)."""
    if mu is None:
        mu = Matrix.identity(1)
    return Carrier(h, b, mu.rows, counit_action(h, mu), unit_coaction(b, mu), mu)


def counit_action(h, mu):
    """The action h.m = eps(h) mu(m) of H on the carrier of mu."""
    return compose(dict(h=h.dim, x=mu.rows), [(h.counit, "h ->"), (mu, "x")], "x").matrix()


def unit_coaction(b, mu):
    """The coaction rho(m) = 1_B (x) mu(m) of B on the carrier of mu."""
    return compose(dict(x=mu.rows), [(mu, "x"), (b.unit, "-> c")], "c x").coproduct(b.dim)


def associator_legs(u, w, legs, inverse=False):
    """The associator (u (x) v) (x) w -> u (x) (v (x) w),
    (u (x) v) (x) w -> mu^-1(u) (x) (v (x) omega(w)), as an Identity's
    steps: mu_u^-1 on the first of the legs ("x z") and omega_w on the
    second.  The inverse is mu_u and omega_w^-1, so no triple product is
    inverted."""
    first, last = (u.mu, w.mu.inv()) if inverse else (u.mu.inv(), w.mu)
    return list(zip((first, last), legs.split()))


def _morphism_identities(m, n, f):
    """H-linearity, B-colinearity and structure-map commutation of f: m -> n."""
    require_shape(f, (n.dim, m.dim), "morphism")
    names = dict(x=m.basis)
    return (Identity("H-linear", dict(h=m.H.basis, x=m.basis),
                     [(m.action, "h x -> x"), (f, "x -> y")],
                     [(f, "x -> y"), (n.action, "h y -> y")]),
            Identity("B-colinear", names, [(f, "x -> y"), (n.coaction, "y -> b y")],
                     [(m.coaction, "x -> b x"), (f, "x -> y")]),
            Identity("structure-commute", names, [(f, "x -> y"), (n.mu, "y")],
                     [(m.mu, "x"), (f, "x -> y")]))


def dimodule_morphism_report(m, n, f):
    """H-linearity, B-colinearity and structure-map commutation of f: m -> n,
    each checked column by column; m and n live over one pair (H, B)."""
    if base_parts(m) != base_parts(n):
        raise MismatchedBase("morphism between dimodules over different algebra pairs")
    return AxiomReport().record(*_morphism_identities(m, n, f))


def check_coherence(u, v, w, x=None):
    """Coherence of the monoidal constraints on concrete objects: naturality
    of the associator (against the structure maps when each distinct
    object's is a morphism, else identities), the pentagon on (u, v, w, x),
    x defaulting to w, the triangle for (u, v), and H-linearity and
    B-colinearity of the associator and both unit constraints.  Failures
    are findings, recorded with witnesses.  Each factor keeps its own leg,
    so no triple tensor product is built; the associator's witness names
    the basis vector x⊗y⊗z of (u (x) v) (x) w.  Raises MismatchedBase when
    v, w or x lives over another pair (H, B) than u."""
    if x is None:
        x = w
    if any(base_parts(t) != base_parts(u) for t in (v, w, x)):
        raise MismatchedBase("tensor of dimodules over different algebra pairs")
    rep = AxiomReport()

    uvw = (u, v, w)
    distinct = [t for k, t in enumerate(uvw) if t not in uvw[:k]]
    if all(dimodule_morphism_report(t, t, t.mu).ok for t in distinct):
        morphisms = (u.mu, v.mu, w.mu)
        rep.set_flag("naturality-morphisms", "structure-maps")
    else:
        morphisms = (Matrix.identity(u.dim), Matrix.identity(v.dim), Matrix.identity(w.dim))
        rep.set_flag("naturality-morphisms", "identity")
    names, a_uw = dict(x=u.basis, y=v.basis, z=w.basis), associator_legs(u, w, "x z")
    ui, h, b = u.mu.inv(), u.H, u.B
    co, mult, bi = h.comult, b.mult, (b.gamma.inv(), "p")
    # h.((x (x) y) (x) z) and h.(x (x) (y (x) z)), and the coactions of both
    # trees, each B leg landing left of its carrier and merged into p
    act_left = [(co, "h -> h g"), (co, "h -> h k"), (u.action, "h x -> x"),
                (v.action, "k y -> y"), (w.action, "g z -> z")]
    act_right = [(co, "h -> h g"), (co, "g -> g k"), (u.action, "h x -> x"),
                 (v.action, "g y -> y"), (w.action, "k z -> z")]
    coact = [(u.coaction, "x -> p x"), (v.coaction, "y -> q y"), (w.coaction, "z -> r z")]
    co_left = coact + [(mult, "p q -> p"), bi, bi, (mult, "p r -> p"), bi, bi]
    co_right = coact + [(mult, "q r -> q"), (b.gamma.inv(), "q"), (b.gamma.inv(), "q"),
                        (mult, "p q -> p"), bi, bi]
    unit = unit_dimodule(h, b)
    return rep.record(
        Identity("naturality-a", names, list(zip(morphisms, "xyz")) + a_uw,
                 a_uw + list(zip(morphisms, "xyz"))),
        # on the legs (x, y, z, t): the associator (uv, w, t) is
        # mu_u^-1 (x) mu_v^-1 (x) id (x) omega_t, and so on
        Identity("pentagon", dict(names, t=x.basis),
                 [(ui, "x"), (v.mu.inv(), "y"), (x.mu, "t"), (ui, "x"), (w.mu, "z"), (x.mu, "t")],
                 [(ui, "x"), (w.mu, "z"), (ui, "x"), (x.mu, "t"), (v.mu.inv(), "y"), (x.mu, "t")]),
        Identity("triangle", dict(x=u.basis, y=v.basis), [(ui, "x"), (v.mu, "y"), (v.mu, "y")],
                 [(u.mu, "x")]),
        # f(h.x) against h.f(x), and rho(f(x)) against (id (x) f)(rho(x)), for the
        # associator f from ((u, v), w) to (u, (v, w))
        Identity("assoc-H-linear", {"h": h.basis, "x y z": (u.basis, v.basis, w.basis)},
                 act_left + a_uw, a_uw + act_right),
        Identity("assoc-B-colinear", {"x y z": (u.basis, v.basis, w.basis)},
                 a_uw + co_right, co_left + a_uw),
        *(t._replace(axiom=side + "-unit-" + t.axiom) for side, pair in
          (("left", (unit, v)), ("right", (v, unit)))
          for t in _morphism_identities(tensor_dimodule(*pair), v, v.mu)[:2]))


# ---------------------------------------------------------------------------
# duals

def _require_hopf_pair(m):
    """The pair (H, B) of m, which must both carry bijective antipodes."""
    h, b = m.H, m.B
    if h.antipode is None or b.antipode is None:
        raise AntipodeNotInvertible("duality needs Hopf structures on both sides")
    if h.antipode.det() == 0 or b.antipode.det() == 0:
        raise AntipodeNotInvertible("antipode is singular")
    return h, b


def left_dual(m):
    """Left dual carrier with (h.f)(x) = f(S_H a^-1(h) . mu^-2(x)),
    f_-1 (x) f_0(x) = S_B^-1 b^-1(x_-1) (x) f(mu^-2(x_0)), mu*(f) = f o mu^-1."""
    h, b = _require_hopf_pair(m)
    return _dual(m, (h.gamma.inv(), h.antipode), (b.gamma.inv(), b.antipode.inv()), "left")


def right_dual(m):
    """Right dual carrier with (h.f)(x) = f(S_H^-1 a^-1(h) . mu^-2(x)) and
    f_-1 (x) f_0(x) = S_B b^-1(x_-1) (x) f(mu^-2(x_0))."""
    h, b = _require_hopf_pair(m)
    return _dual(m, (h.gamma.inv(), h.antipode.inv()), (b.gamma.inv(), b.antipode), "right")


def _dual(m, h_twist, b_twist, side):
    """The dual carrier on the dual basis, for the twists of H and B given
    as maps applied in turn.  Its action and coaction are one composite each
    on M with its carrier legs moved, as dual_hopf's maps are transposes: the
    coefficient of e_j in h_twist(h) . mu^-2(x) is that of f^x in h.f^j,
    and the coefficient of b (x) e_j in b_twist(x_-1) (x) mu^-2(x_0) is
    that of b (x) f^x in the coaction of f^j."""
    h, b, d, mui = m.H, m.B, m.dim, (m.mu.inv(), "x")
    act = compose(dict(h=h.dim, x=d), [(t, "h") for t in h_twist]
                  + [mui, mui, (m.action, "h x -> x")], "x").columns()
    co = compose(dict(x=d), [(m.coaction, "x -> b x")] + [(t, "b") for t in b_twist]
                 + [mui, mui], "b x").columns()
    # the dual action's legs (h, f^j | f^x) are act's (h, x | j), and the
    # dual coaction's (f^j, b | f^x) are co's (x | b, j)
    act = Matrix.from_int_columns(move_legs(act[0], (h.dim, d), (d,), (0, 2), (1,)), act[1], d)
    co = Matrix.from_int_columns(move_legs(co[0], (d,), (b.dim, d), (2, 1), (0,)), co[1], d)
    dual = Carrier(h, b, d, act, co, m.mu.inv().transpose(), tuple(x + "*" for x in m.basis))
    # dual-basis pairing and copairing; the same sum_i e_i (x) e_i serves
    # both sides (left: ev on M* (x) M, coev in M (x) M*; right: swapped roles).
    ident = sparse_columns(Matrix.identity(d))
    ev = Matrix.from_int_columns(move_legs(ident[0], (d,), (d,), (1, 0), ()), ident[1], 1)
    return DualityData(dual, ev, ev.transpose(), side)


def check_snake(m, duality):
    """Both zig-zag composites of the monoidal constraints, each the identity
    of its carrier: for the left dual, r (id (x) ev) a (coev (x) id) l^-1
    on M, with l = r = mu and the associator mu^-1 (x) id (x) omega; the
    dual composite and the right side swap the roles of M and M*."""
    ev, coev, rep = _square(duality.ev, m.dim), _square(duality.coev, m.dim), AxiomReport()
    for axiom, t in (("snake-object", m), ("snake-dual", duality.dual)):
        mu, mui = t.mu, t.mu.inv()
        # coev lands left of the carrier and ev pairs its last two legs, or
        # the mirror image: the former for M with a left dual and for M*
        # with a right dual
        if (duality.side == "left") == (t is m):
            zig = [(mui, "m"), (coev, "-> x f"), (mui, "x"), (mu, "m"), (ev, "f m ->"),
                   (mu, "x -> m")]
        else:
            zig = [(mui, "m"), (coev, "-> x f"), (mu, "m"), (mui, "f"), (ev, "m x ->"),
                   (mu, "f -> m")]
        rep.record(Identity(axiom, dict(m=t.basis), zig, []))
    return rep


def _square(v, d):
    """The d x d Matrix with the flat coordinates of v, a d^2 x 1 coev or a
    1 x d^2 ev, so that its two legs read as d and d."""
    cols, scale = sparse_columns(v)
    cols = move_legs(move_legs(cols, (v.cols,), (v.rows,), (1, 0), ()), (d, d), (), (1,), (0,))
    return Matrix.from_int_columns(cols, scale, d)


# ---------------------------------------------------------------------------
# equivalence with smash-type modules

def smash_product_algebra(b, h):
    """The Hom-algebra B*op (x) H (only the algebra structure is needed)."""
    return tensor_algebra(opposite_algebra(dual_hopf(b)), h)


def to_smash_module(m):
    """(p (x) h) . x = p(x_-1) h . mu^-1(x_0) as a module over B*op (x) H."""
    h, b, d = m.H, m.B, m.dim
    act = compose(dict(p=b.dim, h=h.dim, x=d),
                  [(m.coaction, "x -> q x"), (Matrix.identity(b.dim), "p q ->"),
                   (m.mu.inv(), "x"), (m.action, "h x -> x")], "x").matrix()
    return Carrier(smash_product_algebra(b, h), None, d, act, None, m.mu, m.basis)


def from_smash_module(n, h, b):
    """Recover the dimodule: h.m = (eps_B (x) h) . m and
    m_-1 (x) m_0 = sum_i b_i (x) (f^i (x) 1_H) . m.  Raises MismatchedBase
    unless n is a module over smash_product_algebra(b, h)."""
    if n.H != smash_product_algebra(b, h):
        raise MismatchedBase("module lives over another algebra than B*op (x) H")
    nh, nb, d = h.dim, b.dim, n.dim
    act = compose(dict(h=nh, x=d), [(b.counit, "-> f"), (n.action, "f h x -> x")], "x").matrix()
    # the element sum_i b_i (x) f^i, then 1_H, acting as (f^i (x) 1_H) on m
    co = compose(dict(x=d), [(Matrix.identity(nb), "-> c f"), (h.unit, "-> h"),
                             (n.action, "f h x -> x")], "c x").coproduct(nb)
    return Carrier(h, b, d, act, co, n.mu, n.basis)
