"""Hom-modules, Hom-comodules and Hom-Yetter-Drinfeld modules.

Each lives over a homstruct.HomStructure held as `over`: a module over one
with a product, a comodule over one with a coproduct, a Yetter-Drinfeld
module over one with both.  Each carrier is checked once, where it is
built, by check_carrier: its shapes fit, and the structure it lives over has
the part it needs.  The validators then take only the carrier and check its
axioms over its own `over`.

Carriers are described by structure constants: action[h][i][j] is the
coefficient of m_j in e_h . m_i, coaction[i][a][j] the coefficient of
b_a (x) m_j in rho(m_i).  The compatibility condition and its Hopf-case
reformulation are both checked; the reformulation is a cross-check only.
Every axiom is a report.Identity on named legs.
"""

from dataclasses import dataclass

from .linalg import Matrix, Tensor3, DimensionMismatch
from .homstruct import HomStructure, fit_basis, require_shape
from .report import AxiomReport, Check, Identity, compose


@dataclass(frozen=True)
class HomModule:
    over: HomStructure
    dim: int
    action: Tensor3        # action[h][i][j] = coeff of m_j in e_h . m_i
    nu: Matrix
    basis: tuple = None

    def __post_init__(self):
        check_carrier(self, self.nu, acting=self.over)


@dataclass(frozen=True)
class HomComodule:
    over: HomStructure
    dim: int
    coaction: Tensor3      # coaction[i][a][j] = coeff of b_a (x) m_j in rho(m_i)
    mu: Matrix
    basis: tuple = None

    def __post_init__(self):
        check_carrier(self, self.mu, coacting=self.over)


@dataclass(frozen=True)
class YetterDrinfeldModule:
    """A module and comodule over one Hom-bialgebra sharing a structure map."""
    over: HomStructure
    dim: int
    action: Tensor3
    coaction: Tensor3
    structure_map: Matrix
    basis: tuple = None

    def __post_init__(self):
        check_carrier(self, self.structure_map, self.over, self.over)

    def module_part(self):
        return HomModule(self.over.algebra, self.dim, self.action,
                         self.structure_map, self.basis)

    def comodule_part(self):
        return HomComodule(self.over.coalgebra, self.dim, self.coaction,
                           self.structure_map, self.basis)


def check_carrier(m, mu, acting=None, coacting=None):
    """Refuse a carrier m whose structure map mu, action by the structure
    acting (which needs a product) or coaction by coacting (which needs a
    coproduct) does not fit it, or whose basis does not give m.dim names;
    name an unnamed basis m0, m1, ..."""
    n = m.dim
    for side, s, part, name in (("H", acting, "mult", "action"),
                                ("B", coacting, "comult", "coaction")):
        if s is None:
            continue
        if getattr(s, part) is None:
            raise DimensionMismatch("%s needs %s, not a %s" % (side, part, s.kind))
        require_shape(getattr(m, name), (s.dim, n, n) if name == "action" else (n, s.dim, n),
                      name)
    require_shape(mu, (n, n), "structure map")
    fit_basis(m, "m")


def validate_hom_module(m):
    """Check nu-invertible, HM1 (nu(h.m) = alpha(h).nu(m)) and HM2
    (twisted associativity and the unit acting as nu) over m.over, column
    by column."""
    a = m.over
    act, nu, al, hn = m.action, m.nu, a.gamma, a.basis
    return AxiomReport().record(
        Check("nu-invertible", m.nu.det() != 0),
        Identity("HM1", dict(h=hn, m=m.basis), [(act, "h m -> m"), (nu, "m")],
                 [(al, "h"), (nu, "m"), (act, "h m -> m")]),
        Identity("HM2-assoc", dict(h=hn, g=hn, m=m.basis),
                 [(act, "g m -> m"), (al, "h"), (act, "h m -> m")],
                 [(a.mult, "h g -> h"), (nu, "m"), (act, "h m -> m")]),
        Identity("HM2-unit", dict(m=m.basis), [(a.unit, "-> h"), (act, "h m -> m")], [(nu, "m")]))


def validate_hom_comodule(m):
    """Check mu-invertible, HCM1 (mu-compatibility and counit law) and HCM2
    (twisted coassociativity of the coaction) over m.over, column by
    column."""
    c = m.over
    co, mu, be, names = m.coaction, m.mu, c.gamma, dict(m=m.basis)
    return AxiomReport().record(
        Check("mu-invertible", m.mu.det() != 0),
        Identity("HCM1-a", names, [(mu, "m"), (co, "m -> b m")],
                 [(co, "m -> b m"), (be, "b"), (mu, "m")]),
        Identity("HCM1-b", names, [(co, "m -> b m"), (c.counit, "b ->")], [(mu, "m")]),
        Identity("HCM2", names, [(co, "m -> b m"), (be, "b"), (co, "m -> c m")],
                 [(co, "m -> b m"), (c.comult, "b -> b c"), (mu, "m")]))


def check_yd(h, m):
    """Compatibility of action and coaction over one Hom-bialgebra, column
    by column: (HYD); with an antipode also the reformulation (HYD)' and a
    flag recording that both verdicts agree."""
    act, co, mult, comult, be = m.action, m.coaction, h.mult, h.comult, h.gamma
    names = dict(h=h.basis, m=m.basis)
    # h1 b(m-1) (x) b^3(h2) . m0 against w-1 h2 (x) w0 for w = b^2(h1) . m
    rep = AxiomReport().record(Identity(
        "HYD", names, [(comult, "h -> h g"), (co, "m -> b m"), (be, "b"), (mult, "h b -> b"),
                       *[(be, "g")] * 3, (act, "g m -> m")],
        [(comult, "h -> h g"), (be, "h"), (be, "h"), (act, "h m -> m"), (co, "m -> b m"),
         (mult, "b g -> b")]))
    if h.antipode is not None:
        # co(b^4(h) . m) against (b^-2(h11 b(m-1)) S(h2)) (x) b^3(h12) . m0
        bi = (h.gamma.inv(), "b")
        rep.record(Identity(
            "HYD-prime", names, [*[(be, "h")] * 4, (act, "h m -> m"), (co, "m -> b m")],
            [(comult, "h -> h s"), (co, "m -> b m"), (comult, "h -> h g"), *[(be, "g")] * 3,
             (act, "g m -> m"), (be, "b"), (mult, "h b -> b"), bi, bi, (h.antipode, "s"),
             (mult, "b s -> b")]))
        rep.set_flag("hyd-consistent", rep.passed("HYD") == rep.passed("HYD-prime"))
    return rep


def yd_prebraiding(m, n):
    """Matrix of the pre-braiding M (x) N -> N (x) M,
    m (x) n -> b^2(m-1) . nu^-1(n) (x) mu^-1(m0)."""
    if m.over != n.over:
        raise DimensionMismatch("pre-braiding of modules over different bialgebras")
    be = (m.over.gamma, "p")
    return compose(dict(x=m.dim, y=n.dim), [
        (m.coaction, "x -> p x"), be, be, (n.structure_map.inv(), "y"),
        (n.action, "p y -> y"), (m.structure_map.inv(), "x")], "y x").matrix()
