"""Axiom reports: per-check verdicts with counterexample witnesses.

A report is a list of (axiom id, pass/fail, witness) entries plus a dict of
verified flags (triangular, cotriangular, ...).  Witnesses name the basis
tuple on which an identity first failed, so a failing report doubles as a
debugging instrument.  An entry is a Check, a named tuple: immutable,
hashable, equal to any Check with the same fields and printed as
Check(axiom=..., passed=..., witness=...); a report of many small checks
pays only a tuple per entry.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from .linalg import Composite, unflat_index


class Check(NamedTuple):
    axiom: str
    passed: bool
    witness: tuple = None

    def as_tuple(self):
        return (self.axiom, "pass" if self.passed else "fail", self.witness)


@dataclass
class AxiomReport:
    checks: list = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    def add(self, axiom, passed, witness=None):
        self.checks.append(Check(axiom, bool(passed), witness))
        return self

    def set_flag(self, name, value):
        self.flags[name] = value
        return self

    def extend(self, other, prefix=""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.axiom, c.passed, c.witness))
        for k, v in other.flags.items():
            self.flags[prefix + k] = v
        return self

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def check(self, axiom):
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def passed(self, axiom):
        return self.check(axiom).passed

    def __iter__(self):
        return iter(self.checks)

    def __len__(self):
        return len(self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            line = "%-28s %s" % (c.axiom, "pass" if c.passed else "FAIL")
            if c.witness is not None and not c.passed:
                line += "  witness=%r" % (c.witness,)
            out.append(line)
        for k in sorted(self.flags):
            out.append("%-28s %s" % ("[flag] " + k, self.flags[k]))
        return out

    def __str__(self):
        return "\n".join(self.lines())


def composites_equal_report(report, axiom, lhs, rhs, names_in):
    """Record lhs == rhs for two composites of maps on the tensor legs whose
    bases are names_in (see linalg.Composite), column by column; on failure
    witness the first differing input basis tuple."""
    dims_in = tuple(map(len, names_in))
    idxs = Composite(lhs, dims_in).first_difference(Composite(rhs, dims_in))
    return report.add(axiom, idxs is None, _named(idxs, names_in))


def elements_equal_report(report, axiom, lhs, rhs, names_out):
    """Record that two composites of steps on the one-dimensional leg (1,),
    each inserting elements or pairing them away (the empty composite is the
    scalar 1), make the same element of the legs whose bases are names_out;
    on failure witness the first output basis tuple on which they differ."""
    (lcol,), lscale = Composite(lhs, (1,)).columns()
    (rcol,), rscale = Composite(rhs, (1,)).columns()
    left, right = {r: x * rscale for r, x in lcol}, {r: x * lscale for r, x in rcol}
    differ = [r for r in left.keys() | right.keys() if left.get(r) != right.get(r)]
    dims_out = tuple(map(len, names_out))
    return report.add(axiom, not differ, _named(unflat_index(min(differ), dims_out), names_out)
                      if differ else None)


def _named(idxs, names_in):
    if idxs is None:
        return idxs
    return tuple(names[i] for names, i in zip(names_in, idxs))
