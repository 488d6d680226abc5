"""One carrier type, Carrier, for Hom-modules, Hom-comodules,
Hom-Yetter-Drinfeld modules and Hom-Long dimodules, and their validators.

A Carrier holds an action of H, a coaction of B, or both, with one
invertible structure map mu: a module leaves out B and the coaction, a
comodule H and the action.  Its kind, the file kind, follows from the parts
set (hom-module, hom-comodule, long-dimodule); only the two kinds the data
cannot tell apart are named: a yd-module, whose action and coaction are to
satisfy (HYD), and an halpha-dimodule, a Long dimodule over (H, H).  A
carrier is checked once, where it is built, so the validators take only
the carrier and check its axioms over its own H and B.

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


class MismatchedBase(Exception):
    """Carriers over different structures cannot be combined."""


# the kinds of a carrier with an action and a coaction, the first when
# none is named
TWO_SIDED = ("long-dimodule", "yd-module", "halpha-dimodule")


@dataclass(frozen=True)
class Carrier:
    """A carrier of dim, acted on by H through action (None, with H, for a
    comodule) and coacted on by B through coaction (None, with B, for a
    module), with the one structure map mu.

    Built, it is checked: an action comes with H and a coaction with B; H
    has a product and B a coproduct, and both have both on a carrier with
    an action and a coaction; the maps fit dim; the basis gives dim names,
    m0, m1, ... when it is None; and the kind fits the parts, taken from
    them when it is None.  A yd-module or halpha-dimodule whose H and B
    differ is refused with MismatchedBase."""
    H: HomStructure
    B: HomStructure
    dim: int
    action: Tensor3        # action[h][i][j] = coeff of m_j in e_h . m_i
    coaction: Tensor3      # coaction[i][a][j] = coeff of b_a (x) m_j in rho(m_i)
    mu: Matrix
    basis: tuple = None
    kind: str = None

    def __post_init__(self):
        n, both = self.dim, self.action is not None and self.coaction is not None
        for side, s, name, part in (("H", self.H, "action", "mult"),
                                    ("B", self.B, "coaction", "comult")):
            m = getattr(self, name)
            if s is None or m is None:
                if s is not m:      # the structure without its map, or the reverse
                    raise DimensionMismatch("%s and the %s come together" % (side, name))
                continue
            if getattr(s, part) is None or both and (s.mult is None or s.comult is None):
                raise DimensionMismatch("%s needs %s, not a %s"
                                        % (side, "mult and comult" if both else part, s.kind))
            require_shape(m, (s.dim, n, n) if name == "action" else (n, s.dim, n), name)
        require_shape(self.mu, (n, n), "structure map")
        fit_basis(self, "m")
        if self.H is None and self.B is None:
            raise DimensionMismatch("a carrier needs an action or a coaction")
        kinds = TWO_SIDED if both else ("hom-module",) if self.B is None else ("hom-comodule",)
        if self.kind is None:
            object.__setattr__(self, "kind", kinds[0])
        elif self.kind not in kinds:
            raise DimensionMismatch("a %s is not a %s" % (kinds[0], self.kind))
        # a named two-sided kind, yd-module or halpha-dimodule, has one structure
        if self.kind != kinds[0] and self.H is not self.B and self.H != self.B:
            raise MismatchedBase("a %s lives over one structure, not a pair" % self.kind)


def HomComodule(over, dim, coaction, mu, basis=None):
    """The comodule over the structure over, as bench/workloads.py builds
    it."""
    return Carrier(None, over, dim, None, coaction, mu, basis)


def validate_hom_module(m):
    """Check nu-invertible, HM1 (nu(h.m) = alpha(h).nu(m)) and HM2
    (twisted associativity and the unit acting as nu) over m.H, column
    by column."""
    a = m.H
    act, nu, al, hn = m.action, m.mu, a.gamma, a.basis
    return AxiomReport().record(
        Check("nu-invertible", nu.det() != 0),
        Identity("HM1", dict(h=hn, m=m.basis), [(act, "h m -> m"), (nu, "m")],
                 [(al, "h"), (nu, "m"), (act, "h m -> m")]),
        Identity("HM2-assoc", dict(h=hn, g=hn, m=m.basis),
                 [(act, "g m -> m"), (al, "h"), (act, "h m -> m")],
                 [(a.mult, "h g -> h"), (nu, "m"), (act, "h m -> m")]),
        Identity("HM2-unit", dict(m=m.basis), [(a.unit, "-> h"), (act, "h m -> m")], [(nu, "m")]))


def validate_hom_comodule(m):
    """Check mu-invertible, HCM1 (mu-compatibility and counit law) and HCM2
    (twisted coassociativity of the coaction) over m.B, column by
    column."""
    c = m.B
    co, mu, be, names = m.coaction, m.mu, c.gamma, dict(m=m.basis)
    return AxiomReport().record(
        Check("mu-invertible", mu.det() != 0),
        Identity("HCM1-a", names, [(mu, "m"), (co, "m -> b m")],
                 [(co, "m -> b m"), (be, "b"), (mu, "m")]),
        Identity("HCM1-b", names, [(co, "m -> b m"), (c.counit, "b ->")], [(mu, "m")]),
        Identity("HCM2", names, [(co, "m -> b m"), (be, "b"), (co, "m -> c m")],
                 [(co, "m -> b m"), (c.comult, "b -> b c"), (mu, "m")]))


def validate_yd_module(m):
    """The module axioms over H, the comodule axioms over B, and check_yd."""
    rep = AxiomReport()
    rep.extend(validate_hom_module(m), "module:")
    rep.extend(validate_hom_comodule(m), "comodule:")
    return rep.extend(check_yd(m))


def check_yd(m):
    """Compatibility of action and coaction over m.H, column by column:
    (HYD); with an antipode also the reformulation (HYD)' and a flag
    recording that both verdicts agree."""
    h = m.H
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
    if m.H != n.H:
        raise MismatchedBase("pre-braiding of modules over different bialgebras")
    be = (m.H.gamma, "p")
    return compose(dict(x=m.dim, y=n.dim), [
        (m.coaction, "x -> p x"), be, be, (n.mu.inv(), "y"),
        (n.action, "p y -> y"), (m.mu.inv(), "x")], "y x").matrix()
