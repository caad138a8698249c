"""Simulation and bifurcation analysis of planar switched dynamical systems.

A library and CLI for systems that switch between two stable linear
spirals (plus polynomial perturbations) according to the quadrant of
the state.  Provides closed-form analysis of the linear case,
event-detecting hybrid integration of the nonlinear case, return-map
construction, and detection/continuation of the switching-induced
Hopf-like bifurcation.
"""

from .errors import (BudgetError, DegenerateError, DomainError, EscapeError,
                     InsufficientDataError, IntegrationError, NoBracketError,
                     NoOrbitError, NumericalError, OriginError, ParseError,
                     PerturbationTooSmallError, SideError, StiffnessError,
                     SwitchBifError, TangencyError, UserError, ValidationError)
from .model import (LambdaPoly, MonomialTerm, PolyField, Quadrant,
                    SwitchedSystem, SystemParams, ValidationReport, eval_field,
                    is_point_symmetric, linear_matrix, region_of, validate)
from .analytic import (OriginClass, SectionMapValue, classify_origin, delta,
                       delta_prime, flow_linear, section_map)
from .numeric import (HybridTrajectory, IntegratorConfig, PoincareSample,
                      StopAfterEvents, StopAtTime, StopOnReturn, delta_numeric,
                      integrate, poincare_numeric)
from .bifurcation import (BranchDirection, BranchPoint, BranchResult,
                          CheckStatus, CriticalParameter, ExpansionFit,
                          GlobalCheckReport, ScalingFit, Witness,
                          bifurcation_direction, check_global_conditions,
                          continue_branch, find_critical_lambda,
                          fit_local_expansion, fit_scaling_law, leading_coefficient)
from .config import RunConfig, paper_example_config, parse_config

__version__ = "0.1.0"
