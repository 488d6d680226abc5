"""Exact structure-constant kernel for Hom-Hopf algebras, Hom-Long dimodules,
their braided monoidal structure and the Hom-Long equation.

All arithmetic is exact rational; every identity check is an exact matrix
identity on lexicographic tensor bases and reports counterexample witnesses.
"""

from .linalg import (Matrix, scalar, solve_exact,
                     DimensionMismatch, SingularMatrix)
from .report import AxiomReport, Check
from .homstruct import (HomStructure, NotAutomorphism, validate_hom_algebra,
                        validate_hom_coalgebra, validate_hom_bialgebra,
                        validate_hom_hopf, validate_all, yau_twist, dual_hopf,
                        tensor_hopf, opposite_algebra, validate_quasitriangular,
                        validate_coquasitriangular)
from .repmod import (Carrier, MismatchedBase, validate_hom_module, validate_hom_comodule,
                     validate_yd_module, check_yd, yd_prebraiding)
from .longdimod import (DualityData, AntipodeNotInvertible, validate_long_dimodule,
                        canonical_dimodule, tensor_dimodule, unit_dimodule,
                        trivial_dimodule, check_coherence, left_dual, right_dual, check_snake,
                        smash_product_algebra, to_smash_module,
                        from_smash_module, dimodule_morphism_report)
from .braidcat import (BraidingContext, BraidOperator, DimoduleMorphism,
                       InvalidContext, NotAMorphism, long_braiding,
                       long_braiding_inverse, check_braid_morphism,
                       check_naturality, check_hexagons, check_qybe,
                       hb_yd_structure, check_braiding_compatibility,
                       module_as_dimodule, comodule_as_dimodule,
                       module_family_braiding, comodule_family_braiding,
                       check_symmetry)
from .longeq import (OperatorOnTensorSquare, SearchSpaceTooLarge,
                     check_long_equation, check_invertible_iff,
                     diagonal_solution, coordinate_criterion, tau_transforms, module_extension,
                     comodule_extension, dimodule_solution, search_solutions,
                     operator_to_coords, coords_to_operator)

__version__ = "0.1.0"
