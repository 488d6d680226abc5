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

from .linalg import (Matrix, Tensor3, Vector, DimensionMismatch, coproduct_columns,
                     coproduct_tensor, first_differing_column, flip_columns, insert_columns,
                     pair_columns, per_leg_matrix, product_columns, product_tensor,
                     sparse_columns)
from .homstruct import (HomBialgebra, dual_hopf, opposite_algebra, tensor_algebra,
                        tensor_basis)
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
    rho(g (x) x) = x1 (x) (a(g) (x) x2): h_tensor_parts with B's coproduct
    as the coaction."""
    return HomLongDimodule(h, b, *h_tensor_parts(h, b.comult, b.gamma, b.basis))


def h_tensor_parts(h, coaction, mu, names):
    """H (x) M for a coaction on M with structure map mu, M's basis being
    named names: h.(g (x) x) = hg (x) mu(x) and
    rho(g (x) x) = x_-1 (x) (a(g) (x) x_0), as (dim, action, coaction,
    structure map a (x) mu, basis names)."""
    nh, dm, nc = h.dim, mu.rows, coaction.d1
    act = product_tensor([(product_columns(h.mult), (0, 1), (nh,)),
                          (sparse_columns(mu), (1,), None)], (nh, nh, dm))
    co = coproduct_tensor([(sparse_columns(h.gamma), (0,), None),
                           (coproduct_columns(coaction), (1,), (nc, dm)),
                           (flip_columns(nh, nc), (0, 1), (nc, nh))], (nh, dm), nc)
    return nh * dm, act, co, per_leg_matrix(h.gamma, mu), tensor_basis(h.basis, names)


def base_parts(d):
    """The algebra and coalgebra parts of the pair (H, B) of a dimodule or a
    braiding context.  Antipodes are left out: they do not decide which
    dimodules combine."""
    return d.H.algebra, d.H.coalgebra, d.B.algebra, d.B.coalgebra


def tensor_dimodule(m, n):
    """Tensor product with h.(m (x) n) = h1.m (x) h2.n and
    rho(m (x) n) = b^-2(m_-1 n_-1) (x) m_0 (x) n_0, each map built a batch of
    basis columns at a time from the factors' structure constants."""
    if base_parts(m) != base_parts(n):
        raise MismatchedBase("tensor of dimodules over different algebra pairs")
    h, b = m.H, n.B
    return HomLongDimodule(m.H, m.B, m.dim * n.dim,
                           product_tensor(_tree_action(h, (m, n)), (h.dim, m.dim, n.dim)),
                           coproduct_tensor(_tree_coaction(b, (m, n)), (m.dim, n.dim), b.dim),
                           per_leg_matrix(m.mu, n.mu), tensor_basis(m.basis, n.basis))


def _dims(tree):
    """The dims of the carriers of a tensor tree (a carrier, or a pair of
    trees), in order."""
    return _dims(tree[0]) + _dims(tree[1]) if isinstance(tree, tuple) else (tree.dim,)


def _tree_action(h, tree, at=0):
    """Steps of h.(m (x) n) = h1.m (x) h2.n on the tensor product of a tree of
    carriers, h on the leg at and the carriers' legs after it."""
    if not isinstance(tree, tuple):
        return [(product_columns(tree.action), (at, at + 1), (tree.dim,))]
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
               (product_columns(b.mult), (at, at + 1), (nb,)), (bi, (at,), None),
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
    return product_tensor([(pair_columns(h.counit), (0,), ()),
                           (sparse_columns(mu), (0,), None)], (h.dim, mu.rows))


def unit_coaction(b, mu):
    """The coaction rho(m) = 1_B (x) mu(m) of B on the carrier of mu."""
    d = mu.rows
    return coproduct_tensor([(sparse_columns(mu), (0,), None),
                             (insert_columns(b.unit, d), (0,), (b.dim, d))], (d,), b.dim)


def associator_legs(u, w, inverse=False):
    """The associator (u (x) v) (x) w -> u (x) (v (x) w),
    (u (x) v) (x) w -> mu^-1(u) (x) (v (x) omega(w)), as steps for
    first_differing_column on the legs (u, v, w): mu_u^-1 on leg 0 and
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
    tensor legs; the structure map of a tensor product is its factors' maps,
    one on each leg, so each associator is a map on two legs.  The
    associator's H-linearity and B-colinearity are checked the same way on
    the legs (h, u, v, w) and (u, v, w), with each factor's action and
    coaction as steps, so no tensor product of the three is built; a witness
    names the basis vector x (x) y (x) z of (u (x) v) (x) w.  Raises
    MismatchedBase when v or w lives over another pair (H, B) than u, as
    their tensor product would.
    """
    if base_parts(v) != base_parts(u) or base_parts(w) != base_parts(u):
        raise MismatchedBase("tensor of dimodules over different algebra pairs")
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
    fgh = [(sparse_columns(m), (leg,), None) for leg, m in enumerate(morphisms)]
    a_uvw = associator_legs(u, w)
    composites_equal_report(rep, "naturality-a", fgh + a_uvw, a_uvw + fgh,
                            (u.dim, v.dim, w.dim), (u.basis, v.basis, w.basis))

    def mu(t, leg):
        return (sparse_columns(t.mu), (leg,), None)

    def mui(t, leg):
        return (sparse_columns(t.mu.inv()), (leg,), None)

    # pentagon on the legs (u, v, w, x): associator(uv, w, x) is
    # mu_u^-1 (x) mu_v^-1 (x) id (x) omega_x, and so on
    path1 = [mui(u, 0), mui(v, 1), mu(x, 3), mui(u, 0), mu(w, 2), mu(x, 3)]
    path2 = [mui(u, 0), mu(w, 2), mui(u, 0), mu(x, 3), mui(v, 1), mu(x, 3)]
    composites_equal_report(rep, "pentagon", path1, path2,
                            (u.dim, v.dim, w.dim, x.dim),
                            (u.basis, v.basis, w.basis, x.basis))

    composites_equal_report(rep, "triangle", [mui(u, 0), mu(v, 1), mu(v, 1)], [mu(u, 0)],
                            (u.dim, v.dim), (u.basis, v.basis))

    # f(h.x) against h.f(x), and rho(f(x)) against (id (x) f)(rho(x)), for the
    # associator f from ((u, v), w) to (u, (v, w))
    h, left, right = u.H, ((u, v), w), (u, (v, w))
    a_shifted = [mui(u, 1), mu(w, 3)]
    idxs = first_differing_column(_tree_action(h, left) + a_uvw,
                                  a_shifted + _tree_action(h, right),
                                  (h.dim, u.dim, v.dim, w.dim))
    rep.add("assoc-H-linear", idxs is None,
            None if idxs is None else (h.basis[idxs[0]], _triple_name(idxs[1:], u, v, w)))
    idxs = first_differing_column(a_uvw + _tree_coaction(u.B, right),
                                  _tree_coaction(u.B, left) + a_shifted, (u.dim, v.dim, w.dim))
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
    return _dual(m, (h.gamma.inv(), h.antipode), (b.gamma.inv(), b.antipode.inv()), "left")


def right_dual(m):
    """Right dual carrier with (h.f)(x) = f(S_H^-1 a^-1(h) . mu^-2(x)) and
    f_-1 (x) f_0(x) = S_B b^-1(x_-1) (x) f(mu^-2(x_0))."""
    h, b = _require_hopf_pair(m)
    if h.antipode.det() == 0 or b.antipode.det() == 0:
        raise AntipodeNotInvertible("antipode is singular")
    return _dual(m, (h.gamma.inv(), h.antipode.inv()), (b.gamma.inv(), b.antipode), "right")


def _identity_element(d):
    """The element sum_i e_i (x) e_i: inserted, the copairing of a basis with
    its dual basis; paired, their evaluation."""
    return Vector.from_int_column([(i * d + i, 1) for i in range(d)], 1, d * d)


def _dual(m, h_twist, b_twist, side):
    """The dual carrier on the dual basis, for the twists of H and B given
    as maps applied in turn.  Each of its maps is ev (f, -) of a composite
    on M: the copairing inserted beside the input basis vector f, the
    composite applied, then f paired away."""
    h, b = m.H, m.B
    nb, d = b.dim, m.dim
    delta = _identity_element(d)
    mui = sparse_columns(m.mu.inv())
    # (h, f) -> (h, x, x', f) -> (h_twist(h) . mu^-2(x), x', f) -> f(h_twist(h) . mu^-2(x)) x'
    act = product_tensor([(insert_columns(delta, d), (1,), (d, d, d))]
                         + [(sparse_columns(t), (0,), None) for t in h_twist]
                         + [(mui, (1,), None), (mui, (1,), None),
                            (product_columns(m.action), (0, 1), (d,)),
                            (flip_columns(d, d), (1, 2), None),
                            (pair_columns(delta), (0, 1), ())], (h.dim, d))
    # f -> (x, x', f) -> (b_twist(x_-1), mu^-2(x_0), x', f) -> b_twist(x_-1) f(mu^-2(x_0)) x'
    co = coproduct_tensor([(insert_columns(delta, d), (0,), (d, d, d)),
                           (coproduct_columns(m.coaction), (0,), (nb, d))]
                          + [(sparse_columns(t), (0,), None) for t in b_twist]
                          + [(mui, (1,), None), (mui, (1,), None),
                             (flip_columns(d, d), (2, 3), None),
                             (pair_columns(delta), (1, 2), ())], (d,), nb)
    names = tuple(x + "*" for x in m.basis)
    dual = HomLongDimodule(h, b, d, act, co, m.mu.inv().transpose(), names)
    # dual-basis pairing and copairing; the same delta pattern serves both
    # sides (left: ev on M* (x) M, coev in M (x) M*; right: swapped roles).
    ev = Matrix.from_int_columns(*pair_columns(delta), 1)
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
        composites_equal_report(rep, axiom, zig, [], (d,), (t.basis,))
    return rep


# ---------------------------------------------------------------------------
# equivalence with smash-type modules

def smash_product_algebra(b, h):
    """The Hom-algebra B*op (x) H (only the algebra structure is needed)."""
    return tensor_algebra(opposite_algebra(dual_hopf(b).algebra), h.algebra)


def to_smash_module(m):
    """(p (x) h) . x = p(x_-1) h . mu^-1(x_0) as a module over B*op (x) H."""
    h, b = m.H, m.B
    nh, nb, d = h.dim, b.dim, m.dim
    # (p, h, x) -> (p, h, x_-1, x_0) -> (p, x_-1, h, x_0) -> p(x_-1) h . mu^-1(x_0)
    act = product_tensor([(coproduct_columns(m.coaction), (2,), (nb, d)),
                          (flip_columns(nh, nb), (1, 2), (nb, nh)),
                          (pair_columns(_identity_element(nb)), (0, 1), ()),
                          (sparse_columns(m.mu.inv()), (1,), None),
                          (product_columns(m.action), (0, 1), (d,))], (nb, nh, d), 2)
    return HomModule(smash_product_algebra(b, h), d, act, m.mu, m.basis)


def from_smash_module(n, h, b):
    """Recover the dimodule: h.m = (eps_B (x) h) . m and
    m_-1 (x) m_0 = sum_i b_i (x) (f^i (x) 1_H) . m."""
    nh, nb, d = h.dim, b.dim, n.dim
    if n.over.dim != nh * nb:
        raise DimensionMismatch("module is over a dim-%d algebra, expected %d"
                                % (n.over.dim, nh * nb))
    acting = product_columns(n.action)
    # (h, m) -> (eps_B, h, m) -> (eps_B (x) h) . m
    act = product_tensor([(insert_columns(b.counit, nh), (0,), (nb, nh)),
                          (acting, (0, 1, 2), (d,))], (nh, d))
    # m -> (b_i, f^i, m) -> (b_i, f^i, 1_H, m) -> b_i (x) (f^i (x) 1_H) . m
    co = coproduct_tensor([(insert_columns(_identity_element(nb), d), (0,), (nb, nb, d)),
                           (insert_columns(h.unit, d), (2,), (nh, d)),
                           (acting, (1, 2, 3), (d,))], (d,), nb)
    return HomLongDimodule(h, b, d, act, co, n.nu, n.basis)
