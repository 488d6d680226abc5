"""Command-line surface: validate definition files, run identity checks,
emit constructions, and search for Hom-Long solutions.

Each check subject and build target is one SUBJECTS entry, from which the
check and build parsers, a report's inputs, and the refusal of a missing
option or of one the subject does not take are all read.

Exit codes: 0 all verdicts pass, 1 some check failed, 2 input/shape error or
unmet hypothesis.  Output is deterministic byte-for-byte for fixed inputs and
flags; --format json emits a canonical report that round-trips.
"""

import argparse
import collections
import functools
import sys

from .linalg import DimensionMismatch, SingularMatrix
from .report import AxiomReport, Check
from . import io as hio
from .io import FileFormatError
from .homstruct import (HomStructure, NotAutomorphism, tensor_basis,
                        validate_hom_algebra, validate_hom_coalgebra, validate_all,
                        validate_quasitriangular, validate_coquasitriangular, yau_twist)
from .repmod import Carrier, MismatchedBase, validate_hom_module, validate_yd_module
from .longdimod import (AntipodeNotInvertible, validate_long_dimodule, tensor_dimodule,
                        left_dual, right_dual, check_snake, check_coherence, to_smash_module,
                        from_smash_module)
from .longeq import (SearchSpaceTooLarge, check_long_equation,
                     dimodule_solution, module_extension, comodule_extension,
                     search_solutions)
from .braidcat import (InvalidContext, NotAMorphism, long_braiding,
                       check_braid_morphism, check_hexagons, check_qybe,
                       check_symmetry)


class RunReport(AxiomReport):
    """One command's checks and flags, with its name, inputs and notes."""

    def __init__(self, command, inputs):
        super().__init__()
        self.command = command
        self.inputs = list(inputs)
        self.notes = []

    @property
    def exit_code(self):
        return 0 if self.ok else 1

    def to_json(self):
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [[a, v, _json_witness(w)]
                       for a, v, w in map(Check.as_tuple, self.checks)],
            "flags": {k: _json_witness(v) for k, v in self.flags.items()},
            "notes": self.notes,
            "exit_code": self.exit_code,
        }

    def render(self, fmt, verbose=False):
        if fmt == "json":
            return hio.json_text(self.to_json())
        lines = ["%s" % self.command]
        for p in self.inputs:
            lines.append("  input: %s" % p)
        for a, v, w in map(Check.as_tuple, self.checks):
            line = "  %-34s %s" % (a, v)
            if w is not None and (v == "fail" or verbose):
                line += "  witness=%r" % (w,)
            lines.append(line)
        for k in sorted(self.flags):
            lines.append("  [flag] %-27s %s" % (k, self.flags[k]))
        for n in self.notes:
            lines.append("  note: %s" % n)
        lines.append("result: %s" % ("ok" if self.ok else "FAIL"))
        return "\n".join(lines)


def _json_witness(w):
    if isinstance(w, tuple):
        return [_json_witness(x) for x in w]
    if isinstance(w, (list, dict, str, int, bool)) or w is None:
        return w
    return str(w)


def _structure(*kinds):
    """The loader of a file holding a structure of one of kinds: it reads the
    file's kind, and refuses any other, before it builds anything."""
    def load(path, files):
        raw = files.read(path)
        if isinstance(raw, dict) and raw.get("kind") not in kinds:
            raise FileFormatError("expected %s %s file" % (
                "an" if kinds[0][0] in "aeiou" else "a", " or ".join(kinds)), path)
        return hio.load_structure(path, files)
    return load


def _load_solution(path, files):
    """The operator that the H-alpha dimodule in a -D file induces, built as
    the file is read, so that a singular mu is refused naming the file."""
    return hio.in_file(path, dimodule_solution, _structure("halpha-dimodule")(path, files))


def _load_phi(path, files):
    """The map in a --phi file: a matrix, or an object holding one as 'matrix'."""
    raw = files.read(path)
    if isinstance(raw, dict) and "matrix" not in raw:
        raise FileFormatError("missing 'matrix'", path)
    return hio.load_matrix(raw["matrix"] if isinstance(raw, dict) else raw, path)


def cmd_validate(args, report, files):
    raw = files.read(args.file)
    s = hio.load_structure(args.file, files)
    if args.kind:
        part = "mult" if args.kind == "hom-algebra" else "comult"
        if not isinstance(s, HomStructure) or getattr(s, part) is None:
            raise FileFormatError("no %s part to validate" % args.kind, args.file)
        s = s.algebra if args.kind == "hom-algebra" else s.coalgebra
    if isinstance(s, HomStructure) and s.kind == "hom-algebra":
        report.extend(validate_hom_algebra(s))
    elif isinstance(s, HomStructure) and s.kind == "hom-coalgebra":
        report.extend(validate_hom_coalgebra(s))
    elif isinstance(s, HomStructure):
        report.extend(validate_all(s))
        for key, check in (("R", validate_quasitriangular), ("form", validate_coquasitriangular)):
            if key in raw:
                report.extend(hio.in_file(args.file, check, s, hio.load_matrix(
                    raw[key], "%s.%s" % (args.file, key))), key + ":")
    elif isinstance(s, Carrier):
        report.extend(hio._CARRIERS[s.kind].validate(s))
    else:
        report.extend(check_long_equation(s))
    return report


class HypothesisUnmet(Exception):
    """A check whose hypothesis fails: its report is printed, and it exits 2."""


def _check_symmetry(report, ctx, m, n, diagnose):
    if not report.extend(check_symmetry(ctx, m, n, diagnose=diagnose)).flags["hypothesis-met"]:
        report.notes.append("hypothesis unmet: context is not triangular+cotriangular")
        raise HypothesisUnmet()


def _check_snake(report, d, side):
    """The dual of d on side (left if None), validated, and the snake
    identities of that duality, which is returned."""
    duality = right_dual(d) if side == "right" else left_dual(d)
    report.extend(validate_long_dimodule(duality.dual), "dual:")
    report.extend(check_snake(d, duality))
    return duality


def _check_roundtrip(report, d):
    n = to_smash_module(d)
    report.extend(validate_hom_module(n), "smash-module:")
    back = from_smash_module(n, d.H, d.B)
    report.add("round-trip", back.action == d.action
               and back.coaction == d.coaction and back.mu == d.mu)


def _emit(make, check):
    """The run of a build target that checks make(*values) and returns its file."""
    def run(report, *values):
        s = make(*values)
        report.extend(check(s))
        return hio.structure_to_json(s)
    return run


def _build_braid(report, ctx, m, n):
    op = long_braiding(ctx, m, n)
    report.extend(check_braid_morphism(op))
    return {
        "kind": "braid-operator",
        "rows": list(tensor_basis(n.basis, m.basis)),
        "cols": list(tensor_basis(m.basis, n.basis)),
        "matrix": hio.matrix_json(op.matrix),
    }


def _build_dual(report, d, side):
    duality = _check_snake(report, d, side)
    return dict(hio.structure_to_json(duality.dual), ev=hio.matrix_json(duality.ev),
                coev=hio.matrix_json(duality.coev), side=duality.side)


def _extension(base, mod, variant):
    """The extension of base by the -M file's module or comodule, refused
    before it is built when --variant names the other kind."""
    kind = mod.kind[4:]
    if variant not in (None, kind):
        raise UsageError("build extension --variant %s needs a hom-%s -M, not a hom-%s file"
                         % (variant, variant, kind))
    return (module_extension if kind == "module" else comodule_extension)(base, mod)


# A SUBJECTS entry: run(report, *values) gets the value of each file option,
# read in order by the loader beside it (a function of the path and the
# command's Files), then of each option in optional that names no file; a
# file option left out is None.  A build target's run returns what -o writes.
Subject = collections.namedtuple("Subject", "run files optional", defaults=((),))
_DIMODULE = _structure("long-dimodule", "halpha-dimodule")
_BIALGEBRA = _structure("hom-bialgebra", "hom-hopf")

# Each check subject and build target, in the order the parser lists them.
SUBJECTS = {
    "check ybe": Subject(lambda report, *s: report.extend(check_qybe(*s)), (
        ("--ctx", hio.load_context), ("-U", _DIMODULE), ("-V", _DIMODULE), ("-W", _DIMODULE))),
    "check hexagon": Subject(lambda report, *s: report.extend(check_hexagons(*s)), (
        ("--ctx", hio.load_context), ("-U", _DIMODULE), ("-V", _DIMODULE), ("-W", _DIMODULE))),
    "check symmetry": Subject(_check_symmetry, (
        ("--ctx", hio.load_context), ("-M", _DIMODULE), ("-N", _DIMODULE)), ("--diagnose",)),
    "check longeq": Subject(lambda report, op: report.extend(check_long_equation(op)),
                            (("-R", _structure("operator")),)),
    "check yd": Subject(lambda report, m: report.extend(validate_yd_module(m)),
                        (("-M", _structure("yd-module")),)),
    "check snake": Subject(_check_snake, (("-D", _DIMODULE),), ("--side",)),
    "check roundtrip": Subject(_check_roundtrip, (("-D", _DIMODULE),)),
    "check coherence": Subject(lambda report, *s: report.extend(check_coherence(*s)), (
        ("-U", _DIMODULE), ("-V", _DIMODULE), ("-W", _DIMODULE), ("-X", _DIMODULE)), ("-X",)),
    "build braid": Subject(_build_braid, (
        ("--ctx", hio.load_context), ("-M", _DIMODULE), ("-N", _DIMODULE))),
    "build dual": Subject(_build_dual, (("-D", _DIMODULE),), ("--side",)),
    "build tensor": Subject(_emit(tensor_dimodule, validate_long_dimodule),
                            (("-M", _DIMODULE), ("-N", _DIMODULE))),
    "build twist": Subject(_emit(yau_twist, validate_all),
                           (("--base", _BIALGEBRA), ("--phi", _load_phi))),
    "build dimodule-solution": Subject(_emit(lambda op: op, check_long_equation),
                                       (("-D", _load_solution),)),
    "build extension": Subject(_emit(_extension, validate_long_dimodule), (
        ("--base", _BIALGEBRA), ("-M", _structure("hom-module", "hom-comodule"))), ("--variant",)),
    "build smash": Subject(_emit(to_smash_module, validate_hom_module),
                           (("-D", _DIMODULE),)),
}


@functools.cache
def _flags(name):
    """The options of the check subject or build target name, or of all the
    subjects of the command name, in the order of the help and the inputs;
    kept per name, as SUBJECTS never changes."""
    flags = [flag for key, s in SUBJECTS.items() if name in (key, key.split()[0])
             for flag in [flag for flag, _ in s.files] + list(s.optional)]
    return tuple(dict.fromkeys(flags + (["-o"] if name.startswith("build") else [])))


def cmd_subject(args, report, files):
    """Run a check subject or build target as its SUBJECTS entry says, and
    write what a build made to -o once every check passed."""
    name, subject = report.command, SUBJECTS[report.command]
    given = [flag for flag in _flags(args.command) if getattr(args, flag) is not None]
    refused = [flag for flag in given if flag not in _flags(name)]
    if refused:
        raise UsageError("%s does not take %s" % (name, ", ".join(refused)))
    missing = [flag for flag, _ in subject.files
               if flag not in given and flag not in subject.optional]
    if missing:
        raise UsageError("%s needs %s" % (name, ", ".join(missing)))
    if args.diagnose:       # given before the command
        setattr(args, "--diagnose", True)
    values = [load(getattr(args, flag), files) if flag in given else None
              for flag, load in subject.files]
    values += [getattr(args, flag) for flag in subject.optional if flag in _VALUE_OPTIONS]
    built, out = subject.run(report, *values), getattr(args, "-o", None)
    if report.ok and out:
        hio.dump_json(built, out)
        report.notes.append("wrote %s" % out)
    elif out:
        report.notes.append("output not written: post-validation failed")


def cmd_search(args, report, files):
    raw = files.read(args.mu)
    if isinstance(raw, dict) and raw.get("kind", "operator") != "operator":
        raise FileFormatError("expected an operator file, not a %s file" % raw["kind"], args.mu)
    mu = hio.load_matrix(raw["mu"] if isinstance(raw, dict) and "mu" in raw
                         else raw, args.mu)
    values = [hio.load_scalar(s, "--set") for s in args.set.split(",") if s.strip() != ""]
    sols = hio.in_file(args.mu, search_solutions, mu, values, args.shape)
    report.add("exhaustive-search", True).set_flag("solutions", len(sols))
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
    run without an option it needs or with one it does not take."""


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
        print(hio.json_text({"command": command, "inputs": inputs, "error": str(exc),
                             "exit_code": 2}, ensure_ascii=True))
    else:
        print("error: %s" % exc, file=sys.stderr)
    return 2


# How the parser declares each option after the subject that names no input file.
_VALUE_OPTIONS = {"--side": {"choices": ("left", "right")},
                  "--variant": {"choices": ("module", "comodule")},
                  "--diagnose": {"action": "store_true", "default": None},
                  "-o": {"metavar": "OUT"}}


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
    v.add_argument("--kind", choices=("hom-algebra", "hom-coalgebra"), default=None)

    for command, text in (("check", "check a named identity"),
                          ("build", "emit a construction as a file")):
        c = sub.add_parser(command, help=text)
        c.add_argument("subject", choices=[key.split()[1] for key in SUBJECTS
                                           if key.split()[0] == command])
        # each option is kept under its flag, apart from the global --diagnose
        for flag in _flags(command):
            c.add_argument(flag, dest=flag, **_VALUE_OPTIONS.get(
                flag, {"metavar": flag.lstrip("-").upper()}))

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
    if args.command in ("check", "build"):
        name = "%s %s" % (args.command, args.subject)
        paths = [getattr(args, flag) for flag in _flags(args.command)
                 if flag in dict(SUBJECTS[name].files)]
    else:
        name = args.command
        paths = [args.file if name == "validate" else args.mu]
    inputs = [path for path in paths if path]
    report = RunReport(name, inputs)
    files = hio.Files()     # this call's reads and builds, dropped when it returns
    try:
        {"validate": cmd_validate, "search": cmd_search}.get(name, cmd_subject)(
            args, report, files)
    except HypothesisUnmet:
        print(report.render(args.format, args.verbose))
        return 2
    except (FileFormatError, DimensionMismatch, SingularMatrix, MismatchedBase,
            AntipodeNotInvertible, InvalidContext, NotAMorphism, NotAutomorphism,
            UsageError, SearchSpaceTooLarge, KeyError, ValueError,
            ArithmeticError, OSError) as exc:
        return _print_error(args.format, name, inputs, exc)
    print(report.render(args.format, args.verbose))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
