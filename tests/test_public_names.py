"""The names `import homlong` exports, pinned so that an export added or
dropped shows up in review: 79 names and the seven submodules the package
imports.  The public names of homlong.linalg and of its Matrix and Tensor3
are pinned the same way, so that a view or entry point added back shows up
too, and so are those of homlong.report and its Identity, so that a report
helper beside Identity shows up.  Beside linalg, only report may name
Composite, so no other module places leg steps by hand."""

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
    "AntipodeNotInvertible", "AxiomReport", "BraidOperator", "BraidingContext", "Check",
    "DimensionMismatch", "DimoduleMorphism", "DualityData", "HAlphaLongDimodule",
    "HomComodule", "HomLongDimodule", "HomModule", "HomStructure", "InvalidContext",
    "Matrix", "MismatchedBase", "NotAMorphism", "NotAutomorphism",
    "OperatorOnTensorSquare", "SearchSpaceTooLarge", "SingularMatrix", "Tensor3",
    "YetterDrinfeldModule", "ZeroDiagonal", "canonical_dimodule",
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
    "validate_all", "validate_coquasitriangular", "validate_halpha_dimodule",
    "validate_hom_algebra", "validate_hom_bialgebra", "validate_hom_coalgebra",
    "validate_hom_comodule", "validate_hom_hopf", "validate_hom_module",
    "validate_long_dimodule", "validate_quasitriangular", "yau_twist", "yd_prebraiding",
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
    assert len(names) + len(modules) == 86


LINALG_NAMES = [
    "BATCH_COLUMNS", "Composite", "DimensionMismatch", "FOLD_MIN_COLUMNS", "Fraction",
    "LinalgError", "Matrix", "ONE", "SingularMatrix", "Tensor3", "ZERO",
    "coproduct_columns", "first_key", "insert_columns", "int_columns", "layout", "move_legs",
    "pair_columns", "per_leg_matrix", "scalar", "solve_exact", "sparse_columns", "unflat_index",
]

MATRIX_ATTRIBUTES = [
    "cols", "det", "diagonal", "from_function", "from_int_columns",
    "identity", "inv", "is_identity", "rows", "to_json", "to_lists", "transpose", "zeros",
]

# a Tensor3 is the Matrix of its product-like map with the leg dims on top
TENSOR3_ATTRIBUTES = sorted(MATRIX_ATTRIBUTES + ["d0", "d1", "d2", "dims"])

# a Composite is checked and planned once; its readings run the plan, and
# linalg.first_key is the one comparison of two composites
COMPOSITE_ATTRIBUTES = ["columns", "coproduct", "dims", "matrix", "out_dims", "product"]


def _public(names):
    return sorted(n for n in names if not n.startswith("_"))


def test_linalg_names_are_pinned():
    assert _public(n for n, v in vars(linalg).items()
                   if not isinstance(v, types.ModuleType)) == LINALG_NAMES
    assert _public(dir(linalg.Matrix)) == MATRIX_ATTRIBUTES
    assert _public(dir(linalg.Tensor3)) == TENSOR3_ATTRIBUTES
    assert _public(dir(linalg.Composite)) == COMPOSITE_ATTRIBUTES
    assert len(LINALG_NAMES) == 23


def _names_composite(node):
    """Whether an ast node imports Composite or reads it off a module."""
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "Composite" for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "Composite"


def test_only_report_builds_composites_beside_linalg():
    # every other module writes its maps as steps on named legs
    # (report.compose, report.Identity), so none places leg steps by hand
    users = sorted(path.stem for path in (SRC / "homlong").glob("*.py")
                   if any(map(_names_composite, ast.walk(ast.parse(path.read_text())))))
    assert users == ["report"]


REPORT_NAMES = [
    "AxiomReport", "Check", "Composite", "DimensionMismatch", "Identity",
    "Matrix", "NamedTuple", "Tensor3", "compose", "coproduct_columns", "dataclass", "field",
    "first_key", "insert_columns", "layout", "move_legs", "pair_columns", "sparse_columns",
    "unflat_index",
]

# an Identity is a named tuple of its fields with one method, decide
IDENTITY_ATTRIBUTES = ["axiom", "count", "decide", "index", "lhs", "names_in", "names_out", "rhs"]


def test_report_names_are_pinned():
    assert _public(n for n, v in vars(report).items()
                   if not isinstance(v, types.ModuleType)) == REPORT_NAMES
    assert _public(dir(report.Identity)) == IDENTITY_ATTRIBUTES
    assert report.Identity._fields == ("axiom", "names_in", "lhs", "rhs", "names_out")
