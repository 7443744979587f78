"""Computational Koszul theory for quadratic quiver algebras.

Quadratic presentations kQ/R over exact fields, their quadratic duals,
local Koszul complexes and Koszulity certificates, the Koszul functors with
their complex extensions, and explicit graded resolutions, all verified by
exact linear algebra.
"""

from .algebra import AlgebraPiece, Presentation, subspace_circuits
from .complexes import (ChainMap, ComplexOfModules, DoubleChainMap, DoubleComplex,
                        acyclic_assembly_check, homology_at, homology_module,
                        homology_tables, horizontal_cone, is_acyclic, mapping_cone,
                        null_homotopy_solve, quasi_iso_check, single_module_complex,
                        total_chain_map, total_complex, vertical_cone)
from .dsl import ParseError, parse_presentation, print_presentation
from .engine import (AugmentationResult, KoszulCertificate, TruncationPolicy,
                     eta_augmentation, ext_table, extend_functor,
                     extension_conjecture_check, injective_coresolution,
                     koszul_functor, koszul_functor_map, koszulity_certificate,
                     linear_presentation_check, local_koszul_complex, pairing_table,
                     projective_resolution, zeta_coaugmentation)
from .linalg import GF, Matrix, QQ, Subspace, kernel_backend, matrix_kernels, solve
from .modules import (GradedModule, GradedMorphism, direct_sum, hom_basis,
                      injective_module, kernel_module, projective_cover,
                      projective_module, simple_module, standard_module, zero_module)
from .quiver import Arrow, PathBasis, Quiver

__version__ = "0.1.0"
