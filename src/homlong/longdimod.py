"""Hom-Long dimodules over a pair of Hom-bialgebras.

A dimodule is an action over H and a coaction over B on one carrier with a
single invertible structure map, compatible via
rho(h.m) = b(m_-1) (x) a(h).m_0.  This module provides validation, the
canonical carrier H (x) B, tensor products, the monoidal constraint maps with
their coherence report, left/right duals with evaluation and coevaluation,
and the equivalence with modules over the smash-type algebra B*op (x) H.
"""

import math
from dataclasses import dataclass, replace

from .linalg import (Matrix, Tensor3, Composite, DimensionMismatch, coproduct_columns,
                     flip_columns, insert_columns, move_legs, pair_columns, per_leg_matrix,
                     sparse_columns)
from .homstruct import (HomStructure, default_basis, dual_hopf, opposite_algebra,
                        tensor_algebra, tensor_basis)
from .repmod import (HomModule, HomComodule, check_carrier_shapes, validate_hom_module,
                     validate_hom_comodule)
from .report import AxiomReport, composites_equal_report


class MismatchedBase(Exception):
    """Dimodules over different algebra pairs cannot be combined."""


class AntipodeNotInvertible(Exception):
    """Duality needs bijective antipodes on both algebras."""


@dataclass(frozen=True)
class HomLongDimodule:
    H: HomStructure
    B: HomStructure
    dim: int
    action: Tensor3        # over H: action[h][i][j]
    coaction: Tensor3      # over B: coaction[i][a][j]
    mu: Matrix             # one structure map shared by both parts
    basis: tuple = None

    def __post_init__(self):
        for side, s in (("H", self.H), ("B", self.B)):
            if s.mult is None or s.comult is None:
                raise DimensionMismatch("%s needs mult and comult, not a %s" % (side, s.kind))
        check_carrier_shapes(self.H.dim, self.B.dim, self.dim, self.action, self.coaction,
                             self.mu)
        if self.basis is None:
            object.__setattr__(self, "basis", default_basis(self.dim, "m"))

    def module_part(self):
        return HomModule(self.H.algebra, self.dim, self.action,
                         self.mu, self.basis)

    def comodule_part(self):
        return HomComodule(self.B.coalgebra, self.dim, self.coaction,
                           self.mu, self.basis)


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
    rep.extend(validate_hom_module(h, d.module_part()), "module:")
    rep.extend(validate_hom_comodule(b, d.comodule_part()), "comodule:")
    act, co = sparse_columns(d.action), coproduct_columns(d.coaction)
    nh, nb, to_d, to_bd = h.dim, b.dim, (d.dim,), (b.dim, d.dim)
    composites_equal_report(rep, "compat-2.1",
                            [(act, (0, 1), to_d), (co, (0,), to_bd)],
                            [(co, (1,), to_bd), (flip_columns(nh, nb), (0, 1), (nb, nh)),
                             (sparse_columns(b.gamma), (0,), None),
                             (sparse_columns(h.gamma), (1,), None), (act, (1, 2), to_d)],
                            (h.basis, d.basis))
    return rep


def canonical_dimodule(h, b):
    """The carrier H (x) B with h.(g (x) x) = hg (x) b(x) and
    rho(g (x) x) = x1 (x) (a(g) (x) x2): h_tensor_parts with B's coproduct
    as the coaction."""
    return HomLongDimodule(h, b, *h_tensor_parts(h, b.comult, b.gamma, b.basis))


def h_tensor_parts(h, coaction, mu, names):
    """H (x) M for a coaction on M with structure map mu, M's basis being
    named names: h.(g (x) x) = hg (x) mu(x) and
    rho(g (x) x) = x_-1 (x) (a(g) (x) x_0), as (dim, action, coaction,
    structure map a (x) mu, basis names)."""
    nh, dm, nc = h.dim, mu.rows, coaction.d1
    act = Composite([(sparse_columns(h.mult), (0, 1), (nh,)),
                     (sparse_columns(mu), (1,), None)], (nh, nh, dm)).product()
    co = Composite([(sparse_columns(h.gamma), (0,), None),
                    (coproduct_columns(coaction), (1,), (nc, dm)),
                    (flip_columns(nh, nc), (0, 1), (nc, nh))], (nh, dm)).coproduct(nc)
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
    rho(m (x) n) = b^-2(m_-1 n_-1) (x) m_0 (x) n_0, each map built a batch of
    basis columns at a time from the factors' structure constants."""
    if base_parts(m) != base_parts(n):
        raise MismatchedBase("tensor of dimodules over different algebra pairs")
    h, b = m.H, n.B
    return HomLongDimodule(m.H, m.B, m.dim * n.dim,
                           Composite(_tree_action(h, (m, n)), (h.dim, m.dim, n.dim)).product(),
                           Composite(_tree_coaction(b, (m, n)), (m.dim, n.dim)).coproduct(b.dim),
                           per_leg_matrix(m.mu, n.mu), tensor_basis(m.basis, n.basis))


def _dims(tree):
    """The dims of the carriers of a tensor tree (a carrier, or a pair of
    trees), in order."""
    return _dims(tree[0]) + _dims(tree[1]) if isinstance(tree, tuple) else (tree.dim,)


def _tree_action(h, tree, at=0):
    """Steps of h.(m (x) n) = h1.m (x) h2.n on the tensor product of a tree of
    carriers, h on the leg at and the carriers' legs after it."""
    if not isinstance(tree, tuple):
        return [(sparse_columns(tree.action), (at, at + 1), (tree.dim,))]
    left, right = tree
    dims = _dims(left)
    k, nh = len(dims), h.dim
    # (h, l, r) -> (h1, h2, l, r) -> (h1, l, h2, r) -> (h1.l, h2.r)
    return ([(coproduct_columns(h.comult), (at,), (nh, nh)),
             (flip_columns(nh, math.prod(dims)), tuple(range(at + 1, at + k + 2)), dims + (nh,))]
            + _tree_action(h, left, at) + _tree_action(h, right, at + k))


def _tree_coaction(b, tree, at=0):
    """Steps of rho(m (x) n) = b^-2(m_-1 n_-1) (x) m_0 (x) n_0 on the tensor
    product of a tree of carriers, whose legs start at at; the B leg lands
    on at."""
    nb = b.dim
    if not isinstance(tree, tuple):
        return [(coproduct_columns(tree.coaction), (at,), (nb, tree.dim))]
    left, right = tree
    dims = _dims(left)
    k, bi = len(dims), sparse_columns(b.gamma.inv())
    # (l, r) -> (l_-1, l_0, r_-1, r_0) -> (l_-1, r_-1, l_0, r_0) -> (b^-2(l_-1 r_-1), l_0, r_0)
    return (_tree_coaction(b, left, at) + _tree_coaction(b, right, at + k + 1)
            + [(flip_columns(math.prod(dims), nb), tuple(range(at + 1, at + k + 2)),
                (nb,) + dims),
               (sparse_columns(b.mult), (at, at + 1), (nb,)), (bi, (at,), None),
               (bi, (at,), None)])


def unit_dimodule(h, b):
    """The monoidal unit: the ground field with identity structure map."""
    return replace(trivial_dimodule(h, b), basis=("1",))


def trivial_dimodule(h, b, mu=None):
    """Any invertible structure map with the counit action h.m = eps(h) mu(m)
    and the unit coaction rho(m) = 1_B (x) mu(m)."""
    if mu is None:
        mu = Matrix.identity(1)
    return HomLongDimodule(h, b, mu.rows, counit_action(h, mu), unit_coaction(b, mu), mu)


def counit_action(h, mu):
    """The action h.m = eps(h) mu(m) of H on the carrier of mu."""
    return Composite([(pair_columns(h.counit), (0,), ()),
                      (sparse_columns(mu), (0,), None)], (h.dim, mu.rows)).product()


def unit_coaction(b, mu):
    """The coaction rho(m) = 1_B (x) mu(m) of B on the carrier of mu."""
    d = mu.rows
    return Composite([(sparse_columns(mu), (0,), None),
                      (insert_columns(b.unit, d), (0,), (b.dim, d))], (d,)).coproduct(b.dim)


def associator_legs(u, w, inverse=False):
    """The associator (u (x) v) (x) w -> u (x) (v (x) w),
    (u (x) v) (x) w -> mu^-1(u) (x) (v (x) omega(w)), as steps for a
    Composite on the legs (u, v, w): mu_u^-1 on leg 0 and
    omega_w on leg 2.  The inverse is mu_u on leg 0 and omega_w^-1 on leg 2,
    so no triple product is inverted."""
    first, last = (u.mu, w.mu.inv()) if inverse else (u.mu.inv(), w.mu)
    return [(sparse_columns(first), (0,), None), (sparse_columns(last), (2,), None)]


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
                            [(sparse_columns(m.action), (0, 1), (m.dim,)), (fc, (0,), to_n)],
                            [(fc, (1,), to_n), (sparse_columns(n.action), (0, 1), to_n)],
                            (h.basis, m.basis))
    rho_m, rho_n = coproduct_columns(m.coaction), coproduct_columns(n.coaction)
    composites_equal_report(rep, "B-colinear",
                            [(fc, (0,), to_n), (rho_n, (0,), (b.dim, n.dim))],
                            [(rho_m, (0,), (b.dim, m.dim)), (fc, (1,), to_n)],
                            (m.basis,))
    composites_equal_report(rep, "structure-commute",
                            [(fc, (0,), to_n), (sparse_columns(n.mu), (0,), None)],
                            [(sparse_columns(m.mu), (0,), None), (fc, (0,), to_n)],
                            (m.basis,))
    return rep


def check_coherence(u, v, w, x=None):
    """Coherence of the monoidal constraints on concrete objects.

    Reports naturality of the associator (against the structure maps when
    those are morphisms, else identities; each distinct object's structure
    map is tested once), the pentagon on (u, v, w, x) with
    x defaulting to w, the triangle for (u, v), and H-linearity/B-colinearity
    of the associator and both unit constraints.  Failures are findings, not
    errors: the report records them with witnesses.  The naturality,
    pentagon and triangle identities are checked column by column on the
    tensor legs; the structure map of a tensor product is its factors' maps,
    one on each leg, so each associator is a map on two legs.  The
    associator's H-linearity and B-colinearity are checked the same way on
    the legs (h, u, v, w) and (u, v, w), with each factor's action and
    coaction as steps, so no tensor product of the three is built; a witness
    names the basis vector x (x) y (x) z of (u (x) v) (x) w.  Raises
    MismatchedBase when v, w or x lives over another pair (H, B) than u, as
    their tensor product would.
    """
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
    fgh = [(sparse_columns(m), (leg,), None) for leg, m in enumerate(morphisms)]
    a_uvw = associator_legs(u, w)
    composites_equal_report(rep, "naturality-a", fgh + a_uvw, a_uvw + fgh,
                            (u.basis, v.basis, w.basis))

    def mu(t, leg):
        return (sparse_columns(t.mu), (leg,), None)

    def mui(t, leg):
        return (sparse_columns(t.mu.inv()), (leg,), None)

    # pentagon on the legs (u, v, w, x): associator(uv, w, x) is
    # mu_u^-1 (x) mu_v^-1 (x) id (x) omega_x, and so on
    path1 = [mui(u, 0), mui(v, 1), mu(x, 3), mui(u, 0), mu(w, 2), mu(x, 3)]
    path2 = [mui(u, 0), mu(w, 2), mui(u, 0), mu(x, 3), mui(v, 1), mu(x, 3)]
    composites_equal_report(rep, "pentagon", path1, path2,
                            (u.basis, v.basis, w.basis, x.basis))

    composites_equal_report(rep, "triangle", [mui(u, 0), mu(v, 1), mu(v, 1)], [mu(u, 0)],
                            (u.basis, v.basis))

    # f(h.x) against h.f(x), and rho(f(x)) against (id (x) f)(rho(x)), for the
    # associator f from ((u, v), w) to (u, (v, w))
    h, left, right = u.H, ((u, v), w), (u, (v, w))
    a_shifted = [mui(u, 1), mu(w, 3)]
    dims = (h.dim, u.dim, v.dim, w.dim)
    idxs = Composite(_tree_action(h, left) + a_uvw, dims).first_difference(
        Composite(a_shifted + _tree_action(h, right), dims))
    rep.add("assoc-H-linear", idxs is None,
            None if idxs is None else (h.basis[idxs[0]], _triple_name(idxs[1:], u, v, w)))
    idxs = Composite(a_uvw + _tree_coaction(u.B, right), dims[1:]).first_difference(
        Composite(_tree_coaction(u.B, left) + a_shifted, dims[1:]))
    rep.add("assoc-B-colinear", idxs is None,
            None if idxs is None else (_triple_name(idxs, u, v, w),))
    unit = unit_dimodule(u.H, u.B)
    lv = dimodule_morphism_report(tensor_dimodule(unit, v), v, v.mu)
    rep.add("left-unit-H-linear", lv.passed("H-linear"), lv.check("H-linear").witness)
    rep.add("left-unit-B-colinear", lv.passed("B-colinear"), lv.check("B-colinear").witness)
    rv = dimodule_morphism_report(tensor_dimodule(v, unit), v, v.mu)
    rep.add("right-unit-H-linear", rv.passed("H-linear"), rv.check("H-linear").witness)
    rep.add("right-unit-B-colinear", rv.passed("B-colinear"), rv.check("B-colinear").witness)
    return rep


def _triple_name(idxs, u, v, w):
    """The name x (x) y (x) z of a basis vector of u (x) v (x) w."""
    return "⊗".join(t.basis[i] for t, i in zip((u, v, w), idxs))


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


def _identity_element(d):
    """The element sum_i e_i (x) e_i: inserted, the copairing of a basis with
    its dual basis; paired, their evaluation."""
    return Matrix.from_int_columns([[(i * d + i, 1) for i in range(d)]], 1, d * d)


def _dual(m, h_twist, b_twist, side):
    """The dual carrier on the dual basis, for the twists of H and B given
    as maps applied in turn.  Its action and coaction are one composite each
    on M with its carrier legs moved, as dual_hopf's maps are transposes: the
    coefficient of e_j in h_twist(h) . mu^-2(x) is that of f^x in h.f^j,
    and the coefficient of b (x) e_j in b_twist(x_-1) (x) mu^-2(x_0) is
    that of b (x) f^x in the coaction of f^j."""
    h, b = m.H, m.B
    nb, d = b.dim, m.dim
    mui2 = [(sparse_columns(m.mu.inv()), (1,), None)] * 2
    # (h, x) -> h_twist(h) . mu^-2(x)
    act = Composite([(sparse_columns(t), (0,), None) for t in h_twist] + mui2
                    + [(sparse_columns(m.action), (0, 1), (d,))], (h.dim, d)).columns()
    # x -> b_twist(x_-1) (x) mu^-2(x_0)
    co = Composite([(coproduct_columns(m.coaction), (0,), (nb, d))]
                   + [(sparse_columns(t), (0,), None) for t in b_twist] + mui2, (d,)).columns()
    # the dual action's legs (h, f^j | f^x) are act's (h, x | j), and the
    # dual coaction's (f^j, b | f^x) are co's (x | b, j)
    act = Tensor3.from_int_columns(move_legs(act[0], (h.dim, d), (d,), (0, 2), (1,)), act[1],
                                   (h.dim, d, d))
    co = Tensor3.from_int_columns(move_legs(co[0], (d,), (nb, d), (2, 1), (0,)), co[1],
                                  (d, nb, d))
    dual = HomLongDimodule(h, b, d, act, co, m.mu.inv().transpose(),
                           tuple(x + "*" for x in m.basis))
    # dual-basis pairing and copairing; the same sum_i e_i (x) e_i serves
    # both sides (left: ev on M* (x) M, coev in M (x) M*; right: swapped roles).
    ev = Matrix.from_int_columns(*pair_columns(_identity_element(d)), 1)
    return DualityData(dual, ev, ev.transpose(), side)


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
        composites_equal_report(rep, axiom, zig, [], (t.basis,))
    return rep


# ---------------------------------------------------------------------------
# equivalence with smash-type modules

def smash_product_algebra(b, h):
    """The Hom-algebra B*op (x) H (only the algebra structure is needed)."""
    return tensor_algebra(opposite_algebra(dual_hopf(b)), h)


def to_smash_module(m):
    """(p (x) h) . x = p(x_-1) h . mu^-1(x_0) as a module over B*op (x) H."""
    h, b = m.H, m.B
    nh, nb, d = h.dim, b.dim, m.dim
    # (p, h, x) -> (p, h, x_-1, x_0) -> (p, x_-1, h, x_0) -> p(x_-1) h . mu^-1(x_0)
    act = Composite([(coproduct_columns(m.coaction), (2,), (nb, d)),
                     (flip_columns(nh, nb), (1, 2), (nb, nh)),
                     (pair_columns(_identity_element(nb)), (0, 1), ()),
                     (sparse_columns(m.mu.inv()), (1,), None),
                     (sparse_columns(m.action), (0, 1), (d,))], (nb, nh, d)).product(2)
    return HomModule(smash_product_algebra(b, h), d, act, m.mu, m.basis)


def from_smash_module(n, h, b):
    """Recover the dimodule: h.m = (eps_B (x) h) . m and
    m_-1 (x) m_0 = sum_i b_i (x) (f^i (x) 1_H) . m."""
    nh, nb, d = h.dim, b.dim, n.dim
    if n.over.dim != nh * nb:
        raise DimensionMismatch("module is over a dim-%d algebra, expected %d"
                                % (n.over.dim, nh * nb))
    acting = sparse_columns(n.action)
    # (h, m) -> (eps_B, h, m) -> (eps_B (x) h) . m
    act = Composite([(insert_columns(b.counit, nh), (0,), (nb, nh)),
                     (acting, (0, 1, 2), (d,))], (nh, d)).product()
    # m -> (b_i, f^i, m) -> (b_i, f^i, 1_H, m) -> b_i (x) (f^i (x) 1_H) . m
    co = Composite([(insert_columns(_identity_element(nb), d), (0,), (nb, nb, d)),
                    (insert_columns(h.unit, d), (2,), (nh, d)),
                    (acting, (1, 2, 3), (d,))], (d,)).coproduct(nb)
    return HomLongDimodule(h, b, d, act, co, n.nu, n.basis)
