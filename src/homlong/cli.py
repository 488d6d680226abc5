"""Command-line surface: validate definition files, run identity checks,
emit constructions, and search for Hom-Long solutions.

Exit codes: 0 all verdicts pass, 1 some check failed, 2 input/shape error or
unmet hypothesis.  Output is deterministic byte-for-byte for fixed inputs and
flags; --format json emits a canonical report that round-trips.
"""

import argparse
import functools
import json
import sys

from .linalg import DimensionMismatch, SingularMatrix
from .report import AxiomReport
from . import io as hio
from .io import FileFormatError
from .homstruct import (HomAlgebra, HomCoalgebra, HomBialgebra, NotAutomorphism,
                        validate_hom_algebra, validate_hom_coalgebra, validate_all,
                        validate_quasitriangular, validate_coquasitriangular, yau_twist)
from .repmod import (HomModule, HomComodule, YetterDrinfeldModule,
                     validate_hom_module, validate_hom_comodule, check_yd)
from .longdimod import (HomLongDimodule, MismatchedBase, AntipodeNotInvertible,
                        validate_long_dimodule, tensor_dimodule, left_dual,
                        right_dual, check_snake, check_coherence, to_smash_module,
                        from_smash_module)
from .longeq import (HAlphaLongDimodule, OperatorOnTensorSquare, ZeroDiagonal,
                     SearchSpaceTooLarge, check_long_equation,
                     validate_halpha_dimodule, dimodule_solution, module_extension,
                     comodule_extension, search_solutions)
from .braidcat import (InvalidContext, NotAMorphism, long_braiding,
                       check_braid_morphism, check_hexagons, check_qybe,
                       check_symmetry)


class RunReport:
    def __init__(self, command, inputs):
        self.command = command
        self.inputs = list(inputs)
        self.checks = []
        self.flags = {}
        self.notes = []

    def absorb(self, axiom_report, prefix=""):
        for c in axiom_report.checks:
            self.checks.append((prefix + c.axiom, "pass" if c.passed else "fail",
                                c.witness))
        for k, v in axiom_report.flags.items():
            self.flags[prefix + k] = v
        return self

    @property
    def exit_code(self):
        return 0 if all(v == "pass" for _, v, _ in self.checks) else 1

    def to_json(self):
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [[a, v, _json_witness(w)] for a, v, w in self.checks],
            "flags": {k: _json_witness(v) for k, v in self.flags.items()},
            "notes": self.notes,
            "exit_code": self.exit_code,
        }

    def render(self, fmt, verbose=False):
        if fmt == "json":
            return json.dumps(self.to_json(), indent=2, sort_keys=True,
                              ensure_ascii=False)
        lines = ["%s" % self.command]
        for p in self.inputs:
            lines.append("  input: %s" % p)
        for a, v, w in self.checks:
            line = "  %-34s %s" % (a, v)
            if w is not None and (v == "fail" or verbose):
                line += "  witness=%r" % (w,)
            lines.append(line)
        for k in sorted(self.flags):
            lines.append("  [flag] %-27s %s" % (k, self.flags[k]))
        for n in self.notes:
            lines.append("  note: %s" % n)
        lines.append("result: %s" % ("ok" if self.exit_code == 0 else "FAIL"))
        return "\n".join(lines)


def _json_witness(w):
    if isinstance(w, tuple):
        return [_json_witness(x) for x in w]
    if isinstance(w, (list, dict, str, int, bool)) or w is None:
        return w
    return str(w)


def _load_kind(path, expect):
    s = hio.load_structure(path)
    if not isinstance(s, expect):
        raise FileFormatError("expected %s" % expect.__name__, path)
    return s


def _check_operator(op, report):
    report.absorb(AxiomReport().add("mu-invertible", op.structure_map.det() != 0))
    return report.absorb(check_long_equation(op))


def cmd_validate(args, report):
    raw = hio._read(args.file)
    s = hio.load_structure(args.file, raw)
    if args.kind and isinstance(s, HomBialgebra):
        if args.kind == "hom-algebra":
            s = s.algebra
        elif args.kind == "hom-coalgebra":
            s = s.coalgebra
    if isinstance(s, HomAlgebra):
        report.absorb(validate_hom_algebra(s))
    elif isinstance(s, HomCoalgebra):
        report.absorb(validate_hom_coalgebra(s))
    elif isinstance(s, HomBialgebra):
        report.absorb(validate_all(s))
        if "R" in raw:
            report.absorb(validate_quasitriangular(
                s, hio.load_matrix(raw["R"], args.file + ".R")), "R:")
        if "form" in raw:
            report.absorb(validate_coquasitriangular(
                s, hio.load_matrix(raw["form"], args.file + ".form")), "form:")
    elif isinstance(s, HomModule):
        report.absorb(validate_hom_module(s.over, s))
    elif isinstance(s, HomComodule):
        report.absorb(validate_hom_comodule(s.over, s))
    elif isinstance(s, YetterDrinfeldModule):
        report.absorb(validate_hom_module(s.over.algebra, s.module_part()), "module:")
        report.absorb(validate_hom_comodule(s.over.coalgebra, s.comodule_part()),
                      "comodule:")
        report.absorb(check_yd(s.over, s))
    elif isinstance(s, HomLongDimodule):
        report.absorb(validate_long_dimodule(s))
    elif isinstance(s, HAlphaLongDimodule):
        report.absorb(validate_halpha_dimodule(s))
    elif isinstance(s, OperatorOnTensorSquare):
        _check_operator(s, report)
    else:
        raise FileFormatError("nothing to validate", args.file)
    return report


def cmd_check(args, report):
    subject = args.subject
    if subject == "longeq":
        return _check_operator(_load_kind(args.operator, OperatorOnTensorSquare), report)
    if subject == "yd":
        yd = _load_kind(args.m, YetterDrinfeldModule)
        report.absorb(validate_hom_module(yd.over.algebra, yd.module_part()), "module:")
        report.absorb(validate_hom_comodule(yd.over.coalgebra, yd.comodule_part()),
                      "comodule:")
        return report.absorb(check_yd(yd.over, yd))
    if subject == "snake":
        d = _load_kind(args.dimodule, HomLongDimodule)
        duality = left_dual(d) if args.side == "left" else right_dual(d)
        report.absorb(validate_long_dimodule(duality.dual), "dual:")
        return report.absorb(check_snake(d, duality))
    if subject == "roundtrip":
        d = _load_kind(args.dimodule, HomLongDimodule)
        n = to_smash_module(d)
        report.absorb(validate_hom_module(n.over, n), "smash-module:")
        back = from_smash_module(n, d.H, d.B)
        same = (back.action == d.action and back.coaction == d.coaction
                and back.mu == d.mu)
        rep = AxiomReport().add("round-trip", same)
        return report.absorb(rep)
    if subject == "coherence":
        u = _load_kind(args.u, HomLongDimodule)
        v = _load_kind(args.v, HomLongDimodule)
        w = _load_kind(args.w, HomLongDimodule)
        x = _load_kind(args.x, HomLongDimodule) if args.x else None
        return report.absorb(check_coherence(u, v, w, x))
    ctx = hio.load_context(args.ctx)
    if subject == "symmetry":
        m = _load_kind(args.m, HomLongDimodule)
        n = _load_kind(args.n, HomLongDimodule)
        rep = check_symmetry(ctx, m, n, diagnose=args.diagnose)
        report.absorb(rep)
        if not rep.flags.get("hypothesis-met", True):
            report.notes.append("hypothesis unmet: context is not triangular+cotriangular")
            raise HypothesisUnmet(report)
        return report
    u = _load_kind(args.u, HomLongDimodule)
    v = _load_kind(args.v, HomLongDimodule)
    w = _load_kind(args.w, HomLongDimodule)
    if subject == "ybe":
        return report.absorb(check_qybe(ctx, u, v, w))
    if subject == "hexagon":
        return report.absorb(check_hexagons(ctx, u, v, w))
    raise FileFormatError("unknown check subject %r" % subject)


class HypothesisUnmet(Exception):
    def __init__(self, report):
        self.report = report


def cmd_build(args, report):
    what = args.what
    built = None
    extra = {}
    if what == "braid":
        ctx = hio.load_context(args.ctx)
        m = _load_kind(args.m, HomLongDimodule)
        n = _load_kind(args.n, HomLongDimodule)
        op = long_braiding(ctx, m, n)
        report.absorb(check_braid_morphism(op))
        built = {
            "kind": "braid-operator",
            "rows": ["%s⊗%s" % (a, b) for a in n.basis for b in m.basis],
            "cols": ["%s⊗%s" % (a, b) for a in m.basis for b in n.basis],
            "matrix": hio.matrix_json(op.matrix),
        }
    elif what == "dual":
        d = _load_kind(args.dimodule, HomLongDimodule)
        duality = left_dual(d) if args.side == "left" else right_dual(d)
        report.absorb(validate_long_dimodule(duality.dual), "dual:")
        report.absorb(check_snake(d, duality))
        built = hio.structure_to_json(duality.dual)
        built["ev"] = hio.matrix_json(duality.ev)
        built["coev"] = hio.matrix_json(duality.coev)
        built["side"] = duality.side
    elif what == "tensor":
        m = _load_kind(args.m, HomLongDimodule)
        n = _load_kind(args.n, HomLongDimodule)
        t = tensor_dimodule(m, n)
        report.absorb(validate_long_dimodule(t))
        built = hio.structure_to_json(t)
    elif what == "twist":
        base = _load_kind(args.base, HomBialgebra)
        raw = hio._read(args.phi)
        phi = hio.load_matrix(raw["matrix"] if isinstance(raw, dict) else raw,
                              args.phi)
        twisted = yau_twist(base, phi)
        report.absorb(validate_all(twisted))
        built = hio.algebra_to_json(twisted)
    elif what == "dimodule-solution":
        d = _load_kind(args.dimodule, HAlphaLongDimodule)
        op = dimodule_solution(d)
        report.absorb(check_long_equation(op))
        built = hio.structure_to_json(op)
    elif what == "extension":
        base = _load_kind(args.base, HomBialgebra)
        mod = hio.load_structure(args.m)
        variant = args.variant
        if variant is None:
            variant = "module" if isinstance(mod, HomModule) else "comodule"
        if variant == "module":
            ext = module_extension(base, mod)
        else:
            ext = comodule_extension(base, mod)
        report.absorb(validate_halpha_dimodule(ext))
        built = hio.structure_to_json(ext)
    elif what == "smash":
        d = _load_kind(args.dimodule, HomLongDimodule)
        n = to_smash_module(d)
        report.absorb(validate_hom_module(n.over, n))
        built = hio.structure_to_json(n)
    else:
        raise FileFormatError("unknown build target %r" % what)
    if report.exit_code == 0 and args.out:
        hio.dump_json(built, args.out)
        report.notes.append("wrote %s" % args.out)
    elif args.out:
        report.notes.append("output not written: post-validation failed")
    return report


def cmd_search(args, report):
    raw = hio._read(args.mu)
    mu = hio.load_matrix(raw["mu"] if isinstance(raw, dict) and "mu" in raw
                         else raw, args.mu)
    values = [hio.load_scalar(s, "--set") for s in args.set.split(",") if s.strip() != ""]
    sols = search_solutions(mu, values, args.shape)
    rep = AxiomReport()
    rep.add("exhaustive-search", True)
    rep.set_flag("solutions", len(sols))
    report.absorb(rep)
    if args.out:
        hio.dump_json({
            "kind": "solution-list",
            "n": mu.rows,
            "mu": hio.matrix_json(mu),
            "shape": args.shape,
            "solutions": [hio.matrix_json(s.matrix) for s in sols],
        }, args.out)
        report.notes.append("wrote %s" % args.out)
    report.notes.append("%d solutions" % len(sols))
    return report


class UsageError(Exception):
    """A command line the parser rejects, or a check subject or build target
    run without an option it needs."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit, so that
    main reports it like any other input error; --help still exits 0."""

    def error(self, message):
        raise UsageError(message)


def _root_options(argv):
    """The --format of a command line the parser rejected ("text" if none),
    and the unrecognized options given before the command."""
    p = _Parser(add_help=False)
    p.add_argument("--format", default="text")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--diagnose", action="store_true")
    p.add_argument("command", nargs=argparse.REMAINDER)
    try:
        args, unknown = p.parse_known_args(argv)
    except UsageError:
        return "text", []
    return args.format, [opt.split("=", 1)[0] for opt in unknown]


def _print_error(fmt, command, inputs, exc):
    if fmt == "json":
        print(json.dumps({"command": command, "inputs": inputs, "error": str(exc),
                          "exit_code": 2}, indent=2, sort_keys=True))
    else:
        print("error: %s" % exc, file=sys.stderr)
    return 2


# The file options each check subject and build target cannot run without,
# and the attribute the parser stores each option in.
REQUIRED = {
    "check ybe": ("--ctx", "-U", "-V", "-W"),
    "check hexagon": ("--ctx", "-U", "-V", "-W"),
    "check symmetry": ("--ctx", "-M", "-N"),
    "check longeq": ("-R",),
    "check yd": ("-M",),
    "check snake": ("-D",),
    "check roundtrip": ("-D",),
    "check coherence": ("-U", "-V", "-W"),
    "build braid": ("--ctx", "-M", "-N"),
    "build dual": ("-D",),
    "build tensor": ("-M", "-N"),
    "build twist": ("--base", "--phi"),
    "build dimodule-solution": ("-D",),
    "build extension": ("--base", "-M"),
    "build smash": ("-D",),
}
OPTION_DEST = {"--ctx": "ctx", "-U": "u", "-V": "v", "-W": "w", "-M": "m", "-N": "n",
               "-R": "operator", "-D": "dimodule", "--base": "base", "--phi": "phi"}


def build_parser():
    p = _Parser(prog="homlong",
                description="Exact checks for Hom-Hopf structures, "
                            "Hom-Long dimodules and braidings.")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--diagnose", action="store_true", default=False)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a definition file")
    v.add_argument("file")
    v.add_argument("--kind", default=None)

    c = sub.add_parser("check", help="check a named identity")
    c.add_argument("subject", choices=("ybe", "hexagon", "symmetry", "longeq",
                                       "yd", "snake", "roundtrip", "coherence"))
    c.add_argument("--ctx")
    c.add_argument("-U", dest="u")
    c.add_argument("-V", dest="v")
    c.add_argument("-W", dest="w")
    c.add_argument("-X", dest="x")
    c.add_argument("-M", dest="m")
    c.add_argument("-N", dest="n")
    c.add_argument("-R", dest="operator")
    c.add_argument("-D", dest="dimodule")
    c.add_argument("--side", choices=("left", "right"), default="left")
    c.add_argument("--diagnose", action="store_true", default=argparse.SUPPRESS)

    b = sub.add_parser("build", help="emit a construction as a file")
    b.add_argument("what", choices=("braid", "dual", "tensor", "twist",
                                    "dimodule-solution", "extension", "smash"))
    b.add_argument("--ctx")
    b.add_argument("-M", dest="m")
    b.add_argument("-N", dest="n")
    b.add_argument("-D", dest="dimodule")
    b.add_argument("--base")
    b.add_argument("--phi")
    b.add_argument("--variant", choices=("module", "comodule"), default=None)
    b.add_argument("--side", choices=("left", "right"), default="left")
    b.add_argument("-o", dest="out")

    s = sub.add_parser("search", help="exact search for solutions on a coefficient grid")
    s.add_argument("--mu", required=True)
    s.add_argument("--set", required=True)
    s.add_argument("--shape", choices=("diagonal", "full"), default="diagonal")
    s.add_argument("-o", dest="out")
    return p


@functools.cache
def _parser():
    """build_parser's parser, built on first use and kept for the process:
    parsing a command line leaves it unchanged."""
    return build_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        fmt, unknown = _root_options(argv)
        if unknown and unknown[0] not in str(exc):
            # argparse takes the unknown option's value for the command
            exc = UsageError("unrecognized option %s before the command (%s)"
                             % (unknown[0], exc))
        return _print_error(fmt, None, [], exc)
    inputs = [x for x in (getattr(args, "file", None), getattr(args, "ctx", None),
                          getattr(args, "u", None), getattr(args, "v", None),
                          getattr(args, "w", None), getattr(args, "x", None),
                          getattr(args, "m", None), getattr(args, "n", None),
                          getattr(args, "operator", None),
                          getattr(args, "dimodule", None), getattr(args, "base", None),
                          getattr(args, "phi", None), getattr(args, "mu", None))
              if x]
    name = args.command if args.command != "check" else "check %s" % args.subject
    if args.command == "build":
        name = "build %s" % args.what
    report = RunReport(name, inputs)
    try:
        missing = [flag for flag in REQUIRED.get(name, ())
                   if getattr(args, OPTION_DEST[flag]) is None]
        if missing:
            raise UsageError("%s needs %s" % (name, ", ".join(missing)))
        if args.command == "validate":
            cmd_validate(args, report)
        elif args.command == "check":
            cmd_check(args, report)
        elif args.command == "build":
            cmd_build(args, report)
        elif args.command == "search":
            cmd_search(args, report)
    except HypothesisUnmet as exc:
        print(exc.report.render(args.format, args.verbose))
        return 2
    except (FileFormatError, DimensionMismatch, SingularMatrix, MismatchedBase,
            AntipodeNotInvertible, InvalidContext, NotAMorphism, NotAutomorphism,
            UsageError, ZeroDiagonal, SearchSpaceTooLarge, KeyError, ValueError,
            OSError) as exc:
        return _print_error(args.format, name, inputs, exc)
    print(report.render(args.format, args.verbose))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
