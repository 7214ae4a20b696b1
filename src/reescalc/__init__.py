"""Exact closures and Rees-algebra graded data for modules in free
modules over a two-variable polynomial ring."""

from .analysis import (AnalysisReport, BRPolynomial, br_coefficients,
                       br_corollary_check, buchsbaum_check,
                       direct_sum_buchsbaum, indecomposability_check,
                       scaled_buchsbaum_check, theorem12_check)
from .closures import (ClosureOptions, ClosureResult, check_integral_equation,
                       integral_closure_module, integral_closure_monomial,
                       is_integral_element, is_reduction, ratliff_rush_ideal,
                       ratliff_rush_module, rr_via_reduction)
from .context import PrimeField, RationalField, RingContext
from .errors import (ContextMismatchError, DeadlineExceeded, InputError,
                     ParseError, RankMismatchError, ReescalcError,
                     SoundnessAlert, UnstableChainError)
from .groebner import (ModuleOrder, SubmoduleData, contains, eliminate, equal,
                       groebner_basis, intersect, member, minimal_generators,
                       normal_form, preimage, sum_modules)
from .poly import Polynomial, parse_poly
from .rees import (INFINITE, GradedPiece, ModuleEmbedding, colength, colon,
                   direct_sum, fiber_cone_hilbert, fitting_ideal,
                   graded_piece, is_parameter_module, maximal_ideal, min_gens,
                   ord_ideal, saturate, scale_by_ideal)

__version__ = "1.0.0"
