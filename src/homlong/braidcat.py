"""Braiding on Hom-Long dimodules over a quasitriangular / coquasitriangular
pair, its inverse, naturality, hexagons, the Yang-Baxter composite, the
embedding into Yetter-Drinfeld modules over the tensor product algebra, and
the symmetry criterion for triangular / cotriangular data.

Every categorical identity is realized as an exact identity on
lexicographic bases, with the constraint maps of the monoidal structure
spelled out explicitly.  The braiding is a matrix, built a batch of basis
columns at a time from the structure constants (coactions, the form, mu^-2,
R and the actions, each on its own tensor legs); the identities composed from it
(naturality, hexagons, Yang-Baxter, symmetry) are checked column by column
the same way.
"""

from dataclasses import dataclass, replace

from .linalg import (Matrix, DimensionMismatch, composite_columns, composite_matrix,
                     coproduct_columns, coproduct_tensor, flip_columns, insert_columns,
                     pair_columns, per_leg, product_columns, product_tensor, sparse_columns)
from .homstruct import tensor_hopf, validate_quasitriangular, validate_coquasitriangular
from .repmod import YetterDrinfeldModule, yd_prebraiding
from .longdimod import (HomLongDimodule, MismatchedBase, associator_legs, base_parts,
                        counit_action, dimodule_morphism_report, tensor_dimodule,
                        unit_coaction)
from .report import AxiomReport, composites_equal_report, matrices_equal_report


class InvalidContext(Exception):
    """The quasitriangular / coquasitriangular hypotheses fail."""


class NotAMorphism(Exception):
    """A map offered as a dimodule morphism violates one of its identities."""


@dataclass(frozen=True)
class DimoduleMorphism:
    source: HomLongDimodule
    target: HomLongDimodule
    matrix: Matrix


@dataclass(frozen=True)
class BraidOperator:
    source: tuple          # (M, N)
    matrix: Matrix         # M (x) N -> N (x) M on lexicographic bases


class BraidingContext:
    """A quasitriangular Hopf structure on H paired with a coquasitriangular
    form on B; validation is cached and consulted by every braiding call."""

    def __init__(self, h, r, b, form):
        if h.antipode is None or b.antipode is None:
            raise InvalidContext("context needs Hopf structures on both sides")
        self.H = h
        self.R = r
        self.B = b
        self.form = form
        self._r_report = None
        self._form_report = None

    @property
    def r_report(self):
        if self._r_report is None:
            try:
                self._r_report = validate_quasitriangular(self.H, self.R)
            except DimensionMismatch as exc:
                raise InvalidContext(str(exc))
        return self._r_report

    @property
    def form_report(self):
        if self._form_report is None:
            try:
                self._form_report = validate_coquasitriangular(self.B, self.form)
            except DimensionMismatch as exc:
                raise InvalidContext(str(exc))
        return self._form_report

    @property
    def valid(self):
        return self.r_report.ok and self.form_report.ok

    @property
    def triangular(self):
        return self.r_report.flags["triangular"]

    @property
    def cotriangular(self):
        return self.form_report.flags["cotriangular"]

    def require_valid(self):
        if not self.valid:
            bad = [c.axiom for c in self.r_report.failed()] + \
                  [c.axiom for c in self.form_report.failed()]
            raise InvalidContext("context axioms fail: %s" % ", ".join(bad))

    def require_dimodule(self, m):
        if base_parts(m) != base_parts(self):
            raise MismatchedBase("dimodule lives over a different algebra pair")


def long_braiding(ctx, m, n):
    """The braiding M (x) N -> N (x) M,
    m (x) n -> <m_-1|n_-1> R2 . nu^-2(n_0) (x) R1 . mu^-2(m_0)."""
    ctx.require_valid()
    ctx.require_dimodule(m)
    ctx.require_dimodule(n)
    return BraidOperator((m, n), composite_matrix(
        _braiding(ctx, m, n, _mu2_inverse(m), _mu2_inverse(n)), (m.dim, n.dim)))


def _mu2_inverse(*factors):
    """mu^-2 of the tensor product of factors as int columns: each factor's
    own mu^-1 twice on its leg, so no inverse spans two carriers."""
    steps = per_leg(*(t.mu.inv() for t in factors)) * 2
    return composite_columns(steps, tuple(t.dim for t in factors))


def _braiding(ctx, m, n, mu2i, nu2i):
    """The steps of long_braiding on M (x) N, given mu^-2 and nu^-2 as int
    columns."""
    return (_paired(ctx.form, ctx.B.dim, m, n) + [(mu2i, (0,), None), (nu2i, (1,), None)]
            + _acted(ctx.R, ctx.H.dim, m, n))


def _paired(form, nb, m, n):
    """Steps on M (x) N: m (x) n -> form(m_-1, n_-1) m_0 (x) n_0."""
    return [(coproduct_columns(m.coaction), (0,), (nb, m.dim)),
            (coproduct_columns(n.coaction), (2,), (nb, n.dim)),
            (flip_columns(m.dim, nb), (1, 2), (nb, m.dim)),
            (pair_columns(form), (0, 1), ())]


def _acted(r, nh, m, n):
    """Steps from M (x) N to N (x) M: m (x) n -> r2 . n (x) r1 . m for the
    element r = sum r[i][j] e_i (x) e_j of H (x) H."""
    dm, dn = m.dim, n.dim
    return [(insert_columns(r, dm), (0,), (nh, nh, dm)),
            (flip_columns(nh, dm), (1, 2), (dm, nh)),
            (product_columns(m.action), (0, 1), (dm,)),
            (product_columns(n.action), (1, 2), (dn,)),
            (flip_columns(dm, dn), (0, 1), (dn, dm))]


def long_braiding_inverse(ctx, m, n):
    """The inverse N (x) M -> M (x) N,
    n (x) m -> <S_B^-1(m_-1)|n_-1> S_H(R1) . mu^-2(m_0) (x) R2 . nu^-2(n_0)."""
    ctx.require_valid()
    ctx.require_dimodule(m)
    ctx.require_dimodule(n)
    if ctx.B.antipode.det() == 0:
        from .longdimod import AntipodeNotInvertible
        raise AntipodeNotInvertible("the coquasitriangular side needs S^-1")
    # pair[b][a] = <S_B^-1(a)|b> on (n_-1, m_-1); r[j][i] is the coefficient
    # of S_H(R1) = e_i, R2 = e_j, so that e_j acts on n and e_i on m
    pair = ctx.form.transpose() * ctx.B.antipode.inv()
    r = (ctx.H.antipode * ctx.R).transpose()
    steps = (_paired(pair, ctx.B.dim, n, m)
             + [(_mu2_inverse(n), (0,), None), (_mu2_inverse(m), (1,), None)]
             + _acted(r, ctx.H.dim, n, m))
    return BraidOperator((n, m), composite_matrix(steps, (n.dim, m.dim)))


def check_braid_morphism(c):
    """H-linearity and B-colinearity of a braiding c = long_braiding(ctx, m, n)
    as a dimodule map M (x) N -> N (x) M."""
    m, n = c.source
    src = tensor_dimodule(m, n)
    tgt = tensor_dimodule(n, m)
    rep = AxiomReport()
    mrep = dimodule_morphism_report(src, tgt, c.matrix)
    rep.add("braid-H-linear", mrep.passed("H-linear"), mrep.check("H-linear").witness)
    rep.add("braid-B-colinear", mrep.passed("B-colinear"), mrep.check("B-colinear").witness)
    rep.add("braid-structure-commute", mrep.passed("structure-commute"),
            mrep.check("structure-commute").witness)
    return rep


def _braidings(ctx, *pairs):
    """long_braiding of each pair, as int columns."""
    ctx.require_valid()
    for m, n in pairs:
        ctx.require_dimodule(m)
        ctx.require_dimodule(n)
    return [composite_columns(_braiding(ctx, m, n, _mu2_inverse(m), _mu2_inverse(n)),
                              (m.dim, n.dim)) for m, n in pairs]


def check_naturality(ctx, f, g):
    """(g (x) f) o C_{M,N} = C_{M',N'} o (f (x) g) for morphisms f, g."""
    for name, mor in (("f", f), ("g", g)):
        rep = dimodule_morphism_report(mor.source, mor.target, mor.matrix)
        if not rep.ok:
            raise NotAMorphism("%s violates %s" % (name, rep.failed()[0].axiom))
    c_src, c_tgt = _braidings(ctx, (f.source, g.source), (f.target, g.target))
    fc, gc = sparse_columns(f.matrix), sparse_columns(g.matrix)
    df, dg = (f.target.dim,), (g.target.dim,)
    lhs = [(c_src, (0, 1), (g.source.dim, f.source.dim)), (gc, (0,), dg), (fc, (1,), df)]
    rhs = [(fc, (0,), df), (gc, (1,), dg), (c_tgt, (0, 1), dg + df)]
    rep = AxiomReport()
    composites_equal_report(rep, "naturality", lhs, rhs,
                            (f.source.dim, g.source.dim),
                            (f.source.basis, g.source.basis))
    return rep


def check_hexagons(ctx, u, v, w):
    """Both hexagon identities with the explicit associators, column by
    column on the legs (u, v, w).  C_{U,V (x) W} and C_{U (x) V,W} are built
    a batch of columns at a time like every braiding; mu^-2 of a tensor
    product is its factors' own mu^-2, one leg each."""
    rep = AxiomReport()
    du, dv, dw = u.dim, v.dim, w.dim
    c_uv, c_uw, c_vw = _braidings(ctx, (u, v), (u, w), (v, w))
    c_u_vw = composite_columns(_braiding(ctx, u, tensor_dimodule(v, w), _mu2_inverse(u),
                                         _mu2_inverse(v, w)), (du, dv * dw))
    c_uv_w = composite_columns(_braiding(ctx, tensor_dimodule(u, v), w, _mu2_inverse(u, v),
                                         _mu2_inverse(w)), (du * dv, dw))
    a = associator_legs
    names = (u.basis, v.basis, w.basis)

    # associator(v, w, u) C_{U,V(x)W} associator(u, v, w)
    lhs1 = a(u, w) + [(c_u_vw, (0, 1, 2), (dv, dw, du))] + a(v, u)
    # (id (x) c_uw) associator(v, u, w) (c_uv (x) id)
    rhs1 = [(c_uv, (0, 1), (dv, du))] + a(v, w) + [(c_uw, (1, 2), (dw, du))]
    composites_equal_report(rep, "H1", lhs1, rhs1, (du, dv, dw), names)

    # associator(w, u, v)^-1 C_{U(x)V,W} associator(u, v, w)^-1
    lhs2 = (a(u, w, inverse=True) + [(c_uv_w, (0, 1, 2), (dw, du, dv))]
            + a(w, v, inverse=True))
    # (c_uw (x) id) associator(u, w, v)^-1 (id (x) c_vw)
    rhs2 = ([(c_vw, (1, 2), (dw, dv))] + a(u, v, inverse=True)
            + [(c_uw, (0, 1), (dw, du))])
    composites_equal_report(rep, "H2", lhs2, rhs2, (du, dv, dw), names)
    return rep


def check_qybe(ctx, u, v, w):
    """The categorical Yang-Baxter composite (U (x) V) (x) W -> W (x) (V (x) U),
    associators included, checked column by column on the legs (u, v, w)."""
    rep = AxiomReport()
    du, dv, dw = u.dim, v.dim, w.dim
    c_uv, c_uw, c_vw = _braidings(ctx, (u, v), (u, w), (v, w))
    a = associator_legs
    # (id (x) c_uv) a(w, u, v) (c_uw (x) id) a(u, w, v)^-1 (id (x) c_vw) a(u, v, w)
    lhs = (a(u, w) + [(c_vw, (1, 2), (dw, dv))]
           + a(u, v, inverse=True) + [(c_uw, (0, 1), (dw, du))]
           + a(w, v) + [(c_uv, (1, 2), (dv, du))])
    # a(w, v, u) (c_vw (x) id) a(v, w, u)^-1 (id (x) c_uw) a(v, u, w) (c_uv (x) id)
    rhs = ([(c_uv, (0, 1), (dv, du))] + a(v, w)
           + [(c_uw, (1, 2), (dw, du))] + a(v, u, inverse=True)
           + [(c_vw, (0, 1), (dw, dv))] + a(w, u))
    composites_equal_report(rep, "QYBE", lhs, rhs, (du, dv, dw),
                            (u.basis, v.basis, w.basis))
    return rep


def hb_yd_structure(ctx, m):
    """Yetter-Drinfeld structure over H (x) B induced on a dimodule:
    (h (x) x) . m = <x|m_-1> a^-3(h) . mu^-1(m_0) and
    rho(m) = R2 (x) b^-3(m_-1) (x) R1 . mu^-1(m_0)."""
    ctx.require_valid()
    ctx.require_dimodule(m)
    nh, nb, d = ctx.H.dim, ctx.B.dim, m.dim
    ai, bi, mui = (sparse_columns(t.inv()) for t in (ctx.H.gamma, ctx.B.gamma, m.mu))
    rho = (coproduct_columns(m.coaction), (2,), (nb, d))
    # (h, x, m) -> (h, x, m_-1, m_0) -> <x|m_-1> a^-3(h) . mu^-1(m_0)
    act = product_tensor([rho, (pair_columns(ctx.form), (1, 2), ())]
                         + [(ai, (0,), None)] * 3
                         + [(mui, (1,), None), (product_columns(m.action), (0, 1), (d,))],
                         (nh, nb, d), 2)
    # m -> (R1, R2, m_-1, m_0) -> (R2, m_-1, R1, m_0) -> R2 (x) b^-3(m_-1) (x) R1 . mu^-1(m_0)
    co = coproduct_tensor([(insert_columns(ctx.R, d), (0,), (nh, nh, d)), rho]
                          + [(bi, (2,), None)] * 3
                          + [(mui, (3,), None), (flip_columns(nh, nh), (0, 1), None),
                             (flip_columns(nh, nb), (1, 2), (nb, nh)),
                             (product_columns(m.action), (2, 3), (d,))], (d,), nh * nb)
    return YetterDrinfeldModule(replace(tensor_hopf(ctx.H, ctx.B), antipode=None), d, act, co,
                                m.mu, m.basis)


def check_braiding_compatibility(ctx, m, n):
    """The induced Yetter-Drinfeld pre-braiding equals the dimodule braiding."""
    pre = yd_prebraiding(hb_yd_structure(ctx, m), hb_yd_structure(ctx, n))
    braid = long_braiding(ctx, m, n).matrix
    rep = AxiomReport()
    matrices_equal_report(rep, "prebraiding-matches-braiding", pre, braid,
                          (m.dim, n.dim), (m.basis, n.basis))
    return rep


def module_as_dimodule(h, m, b):
    """A module becomes a dimodule under the unit coaction rho(x) = 1_B (x) nu(x)."""
    return HomLongDimodule(h, b, m.dim, m.action, unit_coaction(b, m.nu), m.nu, m.basis)


def comodule_as_dimodule(b, m, h):
    """A comodule becomes a dimodule under the counit action h.x = eps(h) mu(x)."""
    return HomLongDimodule(h, b, m.dim, counit_action(h, m.mu), m.coaction, m.mu, m.basis)


def module_family_braiding(ctx, m, n):
    """Restricted braiding on unit-coaction dimodules:
    m (x) n -> R2 . nu^-1(n) (x) R1 . mu^-1(m)."""
    steps = per_leg(m.mu.inv(), n.mu.inv()) + _acted(ctx.R, ctx.H.dim, m, n)
    return composite_matrix(steps, (m.dim, n.dim))


def comodule_family_braiding(ctx, m, n):
    """Restricted braiding on counit-action dimodules:
    m (x) n -> <m_-1|n_-1> nu^-1(n_0) (x) mu^-1(m_0)."""
    dm, dn = m.dim, n.dim
    steps = (_paired(ctx.form, ctx.B.dim, m, n) + per_leg(m.mu.inv(), n.mu.inv())
             + [(flip_columns(dm, dn), (0, 1), (dn, dm))])
    return composite_matrix(steps, (dm, dn))


def check_symmetry(ctx, m, n, diagnose=False):
    """C_{N,M} o C_{M,N} = id, available when the context is triangular and
    cotriangular; diagnose mode computes the composite regardless but flags
    the unmet hypothesis."""
    ctx.require_valid()
    hypothesis = ctx.triangular and ctx.cotriangular
    if not hypothesis and not diagnose:
        raise InvalidContext("symmetry needs verified triangular and cotriangular flags")
    forth, back = _braidings(ctx, (m, n), (n, m))
    rep = AxiomReport()
    rep.set_flag("hypothesis-met", hypothesis)
    composites_equal_report(rep, "symmetry",
                            [(forth, (0, 1), (n.dim, m.dim)), (back, (0, 1), (m.dim, n.dim))],
                            [], (m.dim, n.dim), (m.basis, n.basis))
    return rep
