"""Quantum 13-moment closures and their globally hyperbolic regularization.

The package evaluates the quantum equilibrium integrals li[s], assembles
the quasi-linear coefficient matrices of three moment closures, classifies
their hyperbolicity across state space and integrates the regularized
system in one space dimension with relaxation.
"""
from .errors import (CFLViolation, CondensationError, DomainError,
                     InadmissibleCell, NoConvergence, NoRoot, NoSolution,
                     QuadratureNotConverged, SingularD)
from .polylog import (BOSE_Z_MAX, ORDERS, ZETA_HALF, PolylogSet,
                      eval_polylog_batch, eval_polylog_set)
from .state import (ClosureMoments, EquilibriumParams, MomentState5,
                    MomentState13, ansatz_moments, closure_moments,
                    equilibrium_state13, fit_equilibrium, fit_fugacity_batch,
                    fit_state, grad_ansatz_eval, moment_quadrature,
                    state5_from_hat, state13_from_state5)
from .matrices import (SystemKind, SystemMatrices, assemble_A, assemble_A5_grad,
                       assemble_A_direction, assemble_A_grad_3d,
                       assemble_A_regularized, assemble_D, assemble_M,
                       axis_permutation_matrix, pslot, reduce_to_1d)
from .spectral import (ShearCharPolyCoeffs, Classification, EquilibriumSpectrum,
                       HyperbolicityVerdict, annihilation_residual,
                       shear_charpoly_coeffs, char_poly_A5_analytic,
                       char_poly_equilibrium, charpoly_coeffs, classify_batch,
                       diagonalizability_test, fermion_crossing)
from .analysis import (FugacitySweep, LinearizationReport, NSFReport,
                       RegionGrid, area_fraction, eigen_sweep_fugacity,
                       linearization_equality, maxwellian_iteration_nsf,
                       random_moment_state, region_scan_1d,
                       region_scan_3d_cross_section, region_scan_regularized,
                       run_verification_suite, write_region_csv,
                       write_sweep_csv)
from .solver1d import (SimConfig, SimResult, initial_condition, run,
                       write_ledger_csv, write_snapshot_csv)

__version__ = "0.1.0"

__all__ = [
    "BOSE_Z_MAX", "ORDERS", "ZETA_HALF", "PolylogSet",
    "eval_polylog_batch", "eval_polylog_set",
    "CFLViolation", "CondensationError", "DomainError", "InadmissibleCell",
    "NoConvergence", "NoRoot", "NoSolution", "QuadratureNotConverged",
    "SingularD",
    "ClosureMoments", "EquilibriumParams", "MomentState5", "MomentState13",
    "ansatz_moments", "closure_moments",
    "equilibrium_state13", "fit_equilibrium", "fit_fugacity_batch",
    "fit_state", "grad_ansatz_eval", "moment_quadrature", "state5_from_hat",
    "state13_from_state5",
    "SystemKind", "SystemMatrices",
    "assemble_A", "assemble_A5_grad", "assemble_A_direction",
    "assemble_A_grad_3d", "assemble_A_regularized",
    "assemble_D", "assemble_M", "axis_permutation_matrix",
    "pslot", "reduce_to_1d",
    "ShearCharPolyCoeffs", "Classification", "EquilibriumSpectrum",
    "HyperbolicityVerdict", "annihilation_residual", "shear_charpoly_coeffs",
    "char_poly_A5_analytic", "char_poly_equilibrium", "charpoly_coeffs",
    "classify_batch", "diagonalizability_test", "fermion_crossing",
    "FugacitySweep", "LinearizationReport", "NSFReport", "RegionGrid",
    "area_fraction", "eigen_sweep_fugacity", "linearization_equality",
    "maxwellian_iteration_nsf", "random_moment_state", "region_scan_1d",
    "region_scan_3d_cross_section", "region_scan_regularized",
    "run_verification_suite", "write_region_csv", "write_sweep_csv",
    "SimConfig", "SimResult", "initial_condition", "run",
    "write_ledger_csv", "write_snapshot_csv",
    "__version__",
]
