"""Braiding on Hom-Long dimodules over a quasitriangular / coquasitriangular
pair, its inverse, naturality, hexagons, the Yang-Baxter composite, the
embedding into Yetter-Drinfeld modules over the tensor product algebra, and
the symmetry criterion for triangular / cotriangular data.

Every categorical identity is a report.Identity on named legs with the
monoidal constraints spelled out.  The braiding is one report.compose of
the coactions, the form, mu^-2, R and the actions, and the identities
built from it (naturality, hexagons, Yang-Baxter, symmetry) take its int
columns as a step.  A BraidingContext decides its axioms once, at the
first require, and every braiding makes that one call.
"""

from dataclasses import dataclass

from .linalg import Matrix
from .homstruct import (require_shape, tensor_hopf, validate_quasitriangular,
                        validate_coquasitriangular)
from .repmod import Carrier, MismatchedBase, yd_prebraiding
from .longdimod import (associator_legs, base_parts, counit_action, dimodule_morphism_report,
                        tensor_dimodule, unit_coaction)
from .report import AxiomReport, Identity, compose


class InvalidContext(Exception):
    """The quasitriangular / coquasitriangular hypotheses fail."""


class NotAMorphism(Exception):
    """A map offered as a dimodule morphism violates one of its identities."""


@dataclass(frozen=True)
class DimoduleMorphism:
    source: Carrier
    target: Carrier
    matrix: Matrix


@dataclass(frozen=True)
class BraidOperator:
    source: tuple          # (M, N)
    matrix: Matrix         # M (x) N -> N (x) M on lexicographic bases


class BraidingContext:
    """A quasitriangular Hopf structure on H paired with a coquasitriangular
    form on B.  The shapes of R and the form are checked where the context
    is built; its axioms are decided once, at the first require (or the
    first read of reports, valid or a flag), and every braiding makes that
    one call before it reads R or the form."""

    def __init__(self, h, r, b, form):
        if h.antipode is None or b.antipode is None:
            raise InvalidContext("context needs Hopf structures on both sides")
        if h.antipode.det() == 0 or b.antipode.det() == 0:
            raise InvalidContext("context needs bijective antipodes on both sides")
        require_shape(r, (h.dim, h.dim), "R")
        require_shape(form, (b.dim, b.dim), "form")
        self.H = h
        self.R = r
        self.B = b
        self.form = form
        self._reports = None

    @property
    def reports(self):
        """R's report, then the form's, decided together on first use."""
        if self._reports is None:
            self._reports = (validate_quasitriangular(self.H, self.R),
                             validate_coquasitriangular(self.B, self.form))
        return self._reports

    @property
    def valid(self):
        return all(rep.ok for rep in self.reports)

    @property
    def triangular(self):
        return self.reports[0].flags["triangular"]

    @property
    def cotriangular(self):
        return self.reports[1].flags["cotriangular"]

    def require(self, *dimodules):
        """Refuse a context whose axioms fail, then any of the dimodules
        that lives over another pair (H, B)."""
        if not self.valid:
            bad = [c.axiom for rep in self.reports for c in rep.failed()]
            raise InvalidContext("context axioms fail: %s" % ", ".join(bad))
        if any(base_parts(t) != base_parts(self) for t in dimodules):
            raise MismatchedBase("dimodule lives over a different algebra pair")


def long_braiding(ctx, m, n):
    """The braiding M (x) N -> N (x) M,
    m (x) n -> <m_-1|n_-1> R2 . nu^-2(n_0) (x) R1 . mu^-2(m_0)."""
    (c,) = _braidings(ctx, (m, n))
    return BraidOperator((m, n), Matrix.from_int_columns(*c, n.dim * m.dim))


def _mu2_inverse(*factors):
    """mu^-2 of the tensor product of factors as int columns: each factor's
    own mu^-1 twice on its leg, so no inverse spans two carriers."""
    legs = {"x%d" % k: t.dim for k, t in enumerate(factors)}
    steps = [(t.mu.inv(), leg) for leg, t in zip(legs, factors)] * 2
    return compose(legs, steps, " ".join(legs)).columns()


def _braiding(ctx, m, n, mu2i, nu2i):
    """The Composite of long_braiding, given mu^-2 and nu^-2 as int
    columns."""
    return compose(dict(x=m.dim, y=n.dim), _paired(ctx, m, n) + [(mu2i, "x"), (nu2i, "y")]
                   + _acted(ctx, m, n), "y x")


def _paired(ctx, m, n, *twist):
    """Steps on the legs x of M and y of N: m (x) n -> <t(m_-1)|n_-1> m_0
    (x) n_0, for the maps twist t applied in turn."""
    return [(m.coaction, "x -> p x"), (n.coaction, "y -> q y"), *((t, "p") for t in twist),
            (ctx.form, "p q ->")]


def _acted(ctx, m, n, *twist):
    """Steps on the legs x of M and y of N: m (x) n -> t(R1) . m (x) R2 . n,
    for the maps twist t applied in turn."""
    return [(ctx.R, "-> r s"), *((t, "r") for t in twist), (m.action, "r x -> x"),
            (n.action, "s y -> y")]


def long_braiding_inverse(ctx, m, n):
    """The inverse N (x) M -> M (x) N,
    n (x) m -> <S_B^-1(m_-1)|n_-1> S_H(R1) . mu^-2(m_0) (x) R2 . nu^-2(n_0)."""
    ctx.require(m, n)
    steps = (_paired(ctx, m, n, ctx.B.antipode.inv())
             + [(_mu2_inverse(n), "y"), (_mu2_inverse(m), "x")]
             + _acted(ctx, m, n, ctx.H.antipode))
    return BraidOperator((n, m), compose({"y": n.dim, "x": m.dim}, steps, "x y").matrix())


def check_braid_morphism(c):
    """H-linearity and B-colinearity of a braiding c = long_braiding(ctx, m, n)
    as a dimodule map M (x) N -> N (x) M."""
    m, n = c.source
    src = tensor_dimodule(m, n)
    tgt = src if m is n else tensor_dimodule(n, m)
    return AxiomReport().extend(dimodule_morphism_report(src, tgt, c.matrix), "braid-")


def _braidings(ctx, *pairs):
    """long_braiding of each pair, as int columns.  Each object is checked,
    and its mu^-2 built, once; a pair of the same two objects as an earlier
    one shares its columns."""
    objects = {id(t): t for pair in pairs for t in pair}
    ctx.require(*objects.values())
    mu2i = {key: _mu2_inverse(t) for key, t in objects.items()}
    built = {}
    for m, n in pairs:
        if (id(m), id(n)) not in built:
            built[id(m), id(n)] = _braiding(ctx, m, n, mu2i[id(m)], mu2i[id(n)]).columns()
    return [built[id(m), id(n)] for m, n in pairs]


def check_naturality(ctx, f, g):
    """(g (x) f) o C_{M,N} = C_{M',N'} o (f (x) g) for morphisms f, g."""
    for name, mor in (("f", f), ("g", g)):
        rep = dimodule_morphism_report(mor.source, mor.target, mor.matrix)
        if not rep.ok:
            raise NotAMorphism("%s violates %s" % (name, rep.failed()[0].axiom))
    c_src, c_tgt = _braidings(ctx, (f.source, g.source), (f.target, g.target))
    fm, gm = (f.matrix, "x -> x2"), (g.matrix, "y -> y2")
    return AxiomReport().record(Identity(
        "naturality", dict(x=f.source.basis, y=g.source.basis),
        [(c_src, "x y -> y x"), gm, fm], [fm, gm, (c_tgt, "x2 y2 -> y2 x2")]))


def check_hexagons(ctx, u, v, w):
    """Both hexagon identities with the explicit associators, column by
    column on the legs (u, v, w); mu^-2 of the tensor product in
    C_{U,V (x) W} and C_{U (x) V,W} is its factors' own, one leg each."""
    c_uv, c_uw, c_vw = _braidings(ctx, (u, v), (u, w), (v, w))
    c_u_vw = _braiding(ctx, u, tensor_dimodule(v, w), _mu2_inverse(u),
                       _mu2_inverse(v, w)).columns()
    c_uv_w = _braiding(ctx, tensor_dimodule(u, v), w, _mu2_inverse(u, v),
                       _mu2_inverse(w)).columns()
    a, names = associator_legs, dict(x=u.basis, y=v.basis, z=w.basis)
    return AxiomReport().record(
        # associator(v, w, u) C_{U,V(x)W} associator(u, v, w) against
        # (id (x) c_uw) associator(v, u, w) (c_uv (x) id)
        Identity("H1", names, a(u, w, "x z") + [(c_u_vw, "x y z -> y z x")] + a(v, u, "y x"),
                 [(c_uv, "x y -> y x")] + a(v, w, "y z") + [(c_uw, "x z -> z x")]),
        # associator(w, u, v)^-1 C_{U(x)V,W} associator(u, v, w)^-1 against
        # (c_uw (x) id) associator(u, w, v)^-1 (id (x) c_vw)
        Identity("H2", names, a(u, w, "x z", True) + [(c_uv_w, "x y z -> z x y")]
                 + a(w, v, "z y", True),
                 [(c_vw, "y z -> z y")] + a(u, v, "x y", True) + [(c_uw, "x z -> z x")]))


def check_qybe(ctx, u, v, w):
    """The categorical Yang-Baxter composite (U (x) V) (x) W -> W (x) (V (x) U),
    associators included, checked column by column on the legs (u, v, w)."""
    c_uv, c_uw, c_vw = _braidings(ctx, (u, v), (u, w), (v, w))
    a = associator_legs
    # (id (x) c_uv) a(w, u, v) (c_uw (x) id) a(u, w, v)^-1 (id (x) c_vw) a(u, v, w)
    # against a(w, v, u) (c_vw (x) id) a(v, w, u)^-1 (id (x) c_uw) a(v, u, w) (c_uv (x) id)
    return AxiomReport().record(Identity(
        "QYBE", dict(x=u.basis, y=v.basis, z=w.basis),
        a(u, w, "x z") + [(c_vw, "y z -> z y")] + a(u, v, "x y", True)
        + [(c_uw, "x z -> z x")] + a(w, v, "z y") + [(c_uv, "x y -> y x")],
        [(c_uv, "x y -> y x")] + a(v, w, "y z") + [(c_uw, "x z -> z x")]
        + a(v, u, "y x", True) + [(c_vw, "y z -> z y")] + a(w, u, "z x")))


def hb_yd_structure(ctx, m):
    """Yetter-Drinfeld structure over the Hom-Hopf algebra H (x) B induced
    on a dimodule:
    (h (x) x) . m = <x|m_-1> a^-3(h) . mu^-1(m_0) and
    rho(m) = R2 (x) b^-3(m_-1) (x) R1 . mu^-1(m_0)."""
    ctx.require(m)
    ai, bi, mui = (ctx.H.gamma.inv(), "h"), (ctx.B.gamma.inv(), "p"), (m.mu.inv(), "m")
    act = compose(dict(h=ctx.H.dim, x=ctx.B.dim, m=m.dim),
                  [(m.coaction, "m -> p m"), (ctx.form, "x p ->"), ai, ai, ai, mui,
                   (m.action, "h m -> m")], "m").product(2)
    co = compose(dict(m=m.dim), [(ctx.R, "-> r s"), (m.coaction, "m -> p m"), bi, bi, bi, mui,
                                 (m.action, "r m -> m")], "s p m").coproduct(ctx.H.dim * ctx.B.dim)
    hb = tensor_hopf(ctx.H, ctx.B)
    return Carrier(hb, hb, m.dim, act, co, m.mu, m.basis, kind="yd-module")


def check_braiding_compatibility(ctx, m, n):
    """The induced Yetter-Drinfeld pre-braiding equals the dimodule braiding."""
    pre = yd_prebraiding(hb_yd_structure(ctx, m), hb_yd_structure(ctx, n))
    (c,) = _braidings(ctx, (m, n))
    return AxiomReport().record(Identity("prebraiding-matches-braiding",
                                         dict(x=m.basis, y=n.basis),
                                         [(pre, "x y -> y x")], [(c, "x y -> y x")]))


def module_as_dimodule(h, m, b):
    """A module becomes a dimodule under the unit coaction rho(x) = 1_B (x) nu(x)."""
    if m.H != h.algebra:
        raise MismatchedBase("module lives over another algebra than H")
    return Carrier(h, b, m.dim, m.action, unit_coaction(b, m.mu), m.mu, m.basis)


def comodule_as_dimodule(b, m, h):
    """A comodule becomes a dimodule under the counit action h.x = eps(h) mu(x)."""
    if m.B != b.coalgebra:
        raise MismatchedBase("comodule lives over another coalgebra than B")
    return Carrier(h, b, m.dim, counit_action(h, m.mu), m.coaction, m.mu, m.basis)


def module_family_braiding(ctx, m, n):
    """Restricted braiding on unit-coaction dimodules:
    m (x) n -> R2 . nu^-1(n) (x) R1 . mu^-1(m)."""
    ctx.require(m, n)
    return compose(dict(x=m.dim, y=n.dim), [(m.mu.inv(), "x"), (n.mu.inv(), "y")]
                   + _acted(ctx, m, n), "y x").matrix()


def comodule_family_braiding(ctx, m, n):
    """Restricted braiding on counit-action dimodules:
    m (x) n -> <m_-1|n_-1> nu^-1(n_0) (x) mu^-1(m_0)."""
    ctx.require(m, n)
    return compose(dict(x=m.dim, y=n.dim), _paired(ctx, m, n)
                   + [(m.mu.inv(), "x"), (n.mu.inv(), "y")], "y x").matrix()


def check_symmetry(ctx, m, n, diagnose=False):
    """C_{N,M} o C_{M,N} = id, available when the context is triangular and
    cotriangular; diagnose mode computes the composite regardless but flags
    the unmet hypothesis."""
    ctx.require()
    hypothesis = ctx.triangular and ctx.cotriangular
    if not hypothesis and not diagnose:
        raise InvalidContext("symmetry needs verified triangular and cotriangular flags")
    forth, back = _braidings(ctx, (m, n), (n, m))
    rep = AxiomReport().set_flag("hypothesis-met", hypothesis)
    return rep.record(Identity("symmetry", dict(x=m.basis, y=n.basis),
                               [(forth, "x y -> y x"), (back, "y x -> x y")], []))
