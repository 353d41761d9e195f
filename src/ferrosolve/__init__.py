"""ferrosolve: quasi-static nonlinear ferroelectric evolution.

A small numpy/scipy solver stack: validated material tensors and their block
operators, convex constitutive potentials with prox maps, a coupled
piezoelectric elliptic solver with the reduction operators Q and M, an
implicit dyadic time stepper with per-step convex-duality certificates, and
empirical parametrized-measure diagnostics across refinement levels.
"""

import os

# FERROSOLVE_THREADS caps the threads of the linear algebra libraries.  They
# read their thread counts when they load, so the cap precedes every import
# that may load numpy.
if os.environ.get("FERROSOLVE_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["FERROSOLVE_THREADS"])

from .errors import (AtomOutsideDomain, DomainEscape, FerrosolveError,
                     LinearSolveFailure, MismatchedScenario, NoConvergence,
                     NonPositiveDefinite, OutsideDomain, ParseError,
                     SingularSystem, StepSolveFailure, UnsupportedFamily,
                     ValidationError)
from .packing import isotropic_stiffness
from .tensors import (BlockOperatorA, BlockOperatorD, MaterialTensors,
                      assemble_block_A, assemble_block_D, make_tensors)
from .potentials import (BallIndicator, LogSaturationDirectional,
                         LogSaturationRadial, PotentialSpec, PowerLaw,
                         Quadratic, fenchel_residual)
from .grid import Grid
from .elliptic import AssembledSystem, FieldState
from .rothe import (EnergyLedger, LoadSchedule, StepCertificate,
                    SteppedProblem, TimeGrid, Trajectory, average_loads,
                    interpolant_gap)
from .young import (EmpiricalYoungMeasure, MVSResidualReport, build_measure,
                    convergence_study, eval_F, measure_at_time, mvs_residual,
                    uniform_partition)
from .scenario import Scenario, Tolerances, parse_scenario, serialize_scenario

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem", "AtomOutsideDomain", "BallIndicator", "BlockOperatorA",
    "BlockOperatorD", "DomainEscape", "EmpiricalYoungMeasure", "EnergyLedger",
    "FerrosolveError", "FieldState", "Grid", "LinearSolveFailure",
    "LoadSchedule", "LogSaturationDirectional", "LogSaturationRadial",
    "MVSResidualReport", "MaterialTensors", "MismatchedScenario",
    "NoConvergence", "NonPositiveDefinite", "OutsideDomain", "ParseError",
    "PotentialSpec", "PowerLaw", "Quadratic", "Scenario", "SingularSystem",
    "StepCertificate", "StepSolveFailure", "SteppedProblem", "TimeGrid",
    "Tolerances", "Trajectory", "UnsupportedFamily", "ValidationError",
    "assemble_block_A", "assemble_block_D", "average_loads", "build_measure",
    "convergence_study", "eval_F", "fenchel_residual", "interpolant_gap",
    "isotropic_stiffness", "make_tensors", "measure_at_time", "mvs_residual",
    "parse_scenario", "serialize_scenario", "uniform_partition",
]
