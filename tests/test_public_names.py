"""The names `import homlong` exports, pinned so that an export added or
dropped fails a test: 73 names and the seven submodules the package
imports.  The public names of homlong.linalg and of its Matrix and
Composite are pinned the same way, so that a view or entry point added back
shows up too, and Matrix is the one class of maps: a three-leg map is the
Matrix of its product-like map, and a Matrix keeps one reading on moved
legs, which only report and longdimod ask for.  So are the names of homlong.report and its
Identity, so that a report
helper beside Identity shows up, and those of a BraidingContext, whose one
require checks every braiding's hypotheses.  Beside linalg, only report
may name Composite, layout or first_key, so no other module places leg
steps by hand, and only io.json_text writes indented JSON, so no second
writer decides the format of a report or a written file.  Beside linalg,
no module compares a map's rows, cols or dims to raise DimensionMismatch:
homstruct.require_shape is the one shape refusal of a map, and repmod.Carrier
is the one class of modules, comodules, Yetter-Drinfeld modules and
dimodules."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import types

from homlong import linalg, report

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "AntipodeNotInvertible", "AxiomReport", "BraidOperator", "BraidingContext", "Carrier",
    "Check", "DimensionMismatch", "DimoduleMorphism", "DualityData", "HomStructure",
    "InvalidContext", "Matrix", "MismatchedBase", "NotAMorphism", "NotAutomorphism",
    "OperatorOnTensorSquare", "SearchSpaceTooLarge", "SingularMatrix", "canonical_dimodule",
    "check_braid_morphism", "check_braiding_compatibility", "check_coherence",
    "check_hexagons", "check_invertible_iff", "check_long_equation", "check_naturality",
    "check_qybe", "check_snake", "check_symmetry", "check_yd", "comodule_as_dimodule",
    "comodule_extension", "comodule_family_braiding", "coordinate_criterion",
    "coords_to_operator", "diagonal_solution", "dimodule_morphism_report",
    "dimodule_solution", "dual_hopf", "from_smash_module", "hb_yd_structure",
    "left_dual", "long_braiding", "long_braiding_inverse", "module_as_dimodule",
    "module_extension", "module_family_braiding", "operator_to_coords",
    "opposite_algebra", "right_dual", "scalar", "search_solutions",
    "smash_product_algebra", "solve_exact", "tau_transforms", "tensor_dimodule",
    "tensor_hopf", "to_smash_module", "trivial_dimodule", "unit_dimodule",
    "validate_all", "validate_coquasitriangular", "validate_hom_algebra",
    "validate_hom_bialgebra", "validate_hom_coalgebra", "validate_hom_comodule",
    "validate_hom_hopf", "validate_hom_module", "validate_long_dimodule",
    "validate_quasitriangular", "validate_yd_module", "yau_twist", "yd_prebraiding",
]

SUBMODULES = ["braidcat", "homstruct", "linalg", "longdimod", "longeq", "repmod", "report"]

# run in a fresh interpreter: in this one, other tests' imports of
# homlong.io, homlong.cli and homlong.fixtures add those submodules too
LIST = """
import json, types, homlong
public = {n: v for n, v in vars(homlong).items() if not n.startswith("_")}
print(json.dumps([sorted(n for n, v in public.items() if not isinstance(v, types.ModuleType)),
                  sorted(n for n, v in public.items() if isinstance(v, types.ModuleType))]))
"""


def test_public_names_are_pinned():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", LIST], env=env, check=True,
                         capture_output=True, text=True).stdout
    names, modules = json.loads(out)
    assert names == PUBLIC_NAMES
    assert modules == SUBMODULES
    assert len(names) + len(modules) == 80


LINALG_NAMES = [
    "BATCH_COLUMNS", "Composite", "DimensionMismatch", "Fraction",
    "LinalgError", "Matrix", "ONE", "SingularMatrix", "ZERO",
    "first_key", "int_columns", "layout", "move_legs", "moved_columns", "per_leg_matrix",
    "scalar", "solve_exact", "sparse_columns", "unflat_index",
]

# bench/workloads.py alone calls Tensor3.from_function, a namespace whose
# one function gives the product-like Matrix
BENCH_ONLY_LINALG_NAMES = ["Tensor3"]

MATRIX_ATTRIBUTES = [
    "cols", "det", "diagonal", "from_function", "from_int_columns", "from_tensor",
    "identity", "inv", "is_identity", "rows", "to_json", "to_lists", "transpose", "zeros",
]

# a Matrix keeps its stored form and, once computed, its determinant, its
# inverse and one reading on moved legs (moved_columns)
MATRIX_SLOTS = ("rows", "cols", "_sparse", "_det", "_inverse", "_moved")

# a Composite is checked and planned once; its readings run the plan, and
# linalg.first_key is the one comparison of two composites
COMPOSITE_ATTRIBUTES = ["columns", "coproduct", "dims", "matrix", "out_dims"]


def _public(names):
    return sorted(n for n in names if not n.startswith("_"))


def test_linalg_names_are_pinned():
    assert _public(n for n, v in vars(linalg).items()
                   if not isinstance(v, types.ModuleType)) == sorted(
                       LINALG_NAMES + BENCH_ONLY_LINALG_NAMES)
    assert _public(dir(linalg.Matrix)) == MATRIX_ATTRIBUTES
    assert linalg.Matrix.__slots__ == MATRIX_SLOTS
    assert _public(dir(linalg.Composite)) == COMPOSITE_ATTRIBUTES
    assert _public(vars(linalg.Tensor3)) == ["from_function"]
    assert len(LINALG_NAMES) == 19


def test_only_report_reads_moved_columns():
    # report states each step's leg move; the duals move their pairings'
    # legs with move_legs on columns they do not keep, so no other module
    # reads a map on moved legs
    callers = {path.stem for path in (SRC / "homlong").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "moved_columns"}
    assert callers == {"report"}


# the one way from positional leg steps to a run: layout, then Composite,
# then first_key or a reading
COMPOSITE_PATH = {"Composite", "layout", "first_key"}


def _composite_names(node):
    """The names of COMPOSITE_PATH an ast node imports or reads off a
    module."""
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names} & COMPOSITE_PATH
    return {node.attr} & COMPOSITE_PATH if isinstance(node, ast.Attribute) else set()


def test_only_report_builds_composites_beside_linalg():
    # every other module writes its maps as steps on named legs
    # (report.compose, report.Identity), so none lays out leg steps, builds
    # a Composite or compares two by hand
    users = {(name, path.stem) for path in (SRC / "homlong").glob("*.py")
             for node in ast.walk(ast.parse(path.read_text())) for name in _composite_names(node)}
    assert users == {(name, "report") for name in COMPOSITE_PATH}


# what json offers for writing indented text
JSON_WRITERS = {"dump", "dumps", "JSONEncoder"}


def _indented_json_writers(path):
    """(module, function) for each function in the file at path that calls
    one of JSON_WRITERS with an indent."""
    return {(path.stem, f.name) for f in ast.walk(ast.parse(path.read_text()))
            if isinstance(f, ast.FunctionDef) for call in ast.walk(f)
            if isinstance(call, ast.Call)
            and getattr(call.func, "attr", getattr(call.func, "id", None)) in JSON_WRITERS
            and any(k.arg == "indent" for k in call.keywords)}


def test_only_json_text_writes_indented_json():
    # every report and written file is json_text's text, so its format is
    # decided in one place; the un-indented key in io.Files.algebra writes
    # no file
    writers = set().union(*map(_indented_json_writers, (SRC / "homlong").glob("*.py")))
    assert writers == {("io", "json_text")}


# what a map's shape is read from
SHAPE_ATTRIBUTES = {"rows", "cols", "dims"}


def _shape_refusals(path):
    """(module, line) for each if in the file at path whose test reads one
    of SHAPE_ATTRIBUTES and whose body raises DimensionMismatch."""
    return {(path.stem, node.lineno) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.If)
            and any(isinstance(a, ast.Attribute) and a.attr in SHAPE_ATTRIBUTES
                    for a in ast.walk(node.test))
            and any(isinstance(r, ast.Raise) and isinstance(r.exc, ast.Call)
                    and getattr(r.exc.func, "id", None) == "DimensionMismatch"
                    for stmt in node.body for r in ast.walk(stmt))}


def test_require_shape_is_the_one_shape_refusal_beside_linalg():
    # every other module hands a map and its expected shape to
    # homstruct.require_shape, so a map is refused in one text, its kind
    # checked with its shape
    refusals = set().union(*(_shape_refusals(path) for path in (SRC / "homlong").glob("*.py")
                             if path.stem != "linalg"))
    assert refusals == set()


REPORT_NAMES = [
    "AxiomReport", "Check", "Composite", "DimensionMismatch", "Identity",
    "Matrix", "NamedTuple", "compose", "dataclass", "field", "first_key", "layout",
    "move_legs", "moved_columns", "sparse_columns", "unflat_index",
]

# an Identity is a named tuple of its fields with one method, decide
IDENTITY_ATTRIBUTES = ["axiom", "count", "decide", "index", "lhs", "names_in", "names_out", "rhs"]


def test_report_names_are_pinned():
    assert _public(n for n, v in vars(report).items()
                   if not isinstance(v, types.ModuleType)) == REPORT_NAMES
    assert _public(dir(report.Identity)) == IDENTITY_ATTRIBUTES
    assert report.Identity._fields == ("axiom", "names_in", "lhs", "rhs", "names_out")


# the context's data, its reports decided at first use, and the one check
# every braiding makes
BRAIDING_CONTEXT_ATTRIBUTES = ["B", "H", "R", "cotriangular", "form", "reports", "require",
                               "triangular", "valid"]


def test_braiding_context_names_are_pinned(ctx):
    assert _public(dir(ctx)) == BRAIDING_CONTEXT_ATTRIBUTES


# the maps only a carrier holds
CARRIER_FIELDS = {"action", "coaction"}


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _carrier_classes(paths):
    """(module, class) for each class in the files at paths that holds an
    action or a coaction: a field or a self attribute of that name, or a
    base class, in any of the files, that holds one."""
    classes = [(path.stem, c) for path in paths for c in ast.walk(ast.parse(path.read_text()))
               if isinstance(c, ast.ClassDef)]
    held = {(stem, c.name) for stem, c in classes for node in ast.walk(c)
            if isinstance(node, (ast.AnnAssign, ast.Assign))
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if _name(target) in CARRIER_FIELDS}
    while True:
        names = {name for _, name in held}
        heirs = {(stem, c.name) for stem, c in classes if any(_name(b) in names for b in c.bases)}
        if heirs <= held:
            return held
        held |= heirs


def test_carrier_is_the_one_carrier_class():
    # modules, comodules, Yetter-Drinfeld modules and dimodules are each a
    # repmod.Carrier: no second class, and no subclass, holds an action or
    # a coaction
    assert _carrier_classes((SRC / "homlong").glob("*.py")) == {("repmod", "Carrier")}


def _classes(path):
    return [c for c in ast.walk(ast.parse(path.read_text())) if isinstance(c, ast.ClassDef)]


def _holds(c, names):
    """Whether the class c holds an attribute of one of names: in its
    __slots__, or set on an object in its body."""
    return any(isinstance(node, ast.Constant) and node.value in names
               or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
               and node.attr in names for node in ast.walk(c))


def test_matrix_is_the_one_class_of_maps():
    # a multiplication, comultiplication, action or coaction is the Matrix
    # of its product-like map: linalg defines Matrix, Composite and its
    # errors, Matrix alone in src holds rows and cols, nothing derives from
    # it, and no module beside linalg names Tensor3, which linalg keeps as
    # a namespace, not a class, for bench/workloads.py alone
    paths = sorted((SRC / "homlong").glob("*.py"))
    errors = {"LinalgError", "DimensionMismatch", "SingularMatrix"}
    assert {c.name for c in _classes(SRC / "homlong" / "linalg.py")} == errors | {
        "Matrix", "Composite"}
    assert {(p.stem, c.name) for p in paths for c in _classes(p)
            if _holds(c, {"rows", "cols"})} == {("linalg", "Matrix")}
    assert {(p.stem, c.name) for p in paths for c in _classes(p)
            if any(_name(b) == "Matrix" for b in c.bases)} == set()
    assert {p.stem for p in paths for node in ast.walk(ast.parse(p.read_text()))
            if _name(node) == "Tensor3" or getattr(node, "name", None) == "Tensor3"} == {
                "linalg"}
    assert not isinstance(linalg.Tensor3, type)
