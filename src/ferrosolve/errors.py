"""Exception hierarchy shared across the solver modules."""

import math


class FerrosolveError(Exception):
    """Base class for all library errors."""


class NonPositiveDefinite(FerrosolveError):
    """A material tensor violates its definiteness requirement: positive
    definite, or positive semidefinite where ``semidefinite``."""

    def __init__(self, tensor_name, eigenvalue, semidefinite=False):
        self.tensor_name = tensor_name
        self.eigenvalue = eigenvalue
        detail = (f"offending eigenvalue {eigenvalue:.6e}" if math.isfinite(eigenvalue)
                  else "non-finite entry or eigenvalue")
        kind = "semidefinite" if semidefinite else "definite"
        super().__init__(f"{tensor_name} is not positive {kind} ({detail})")


class OutsideDomain(FerrosolveError):
    """Argument lies on or beyond the boundary of the potential's domain."""


class UnsupportedFamily(FerrosolveError):
    """The requested operation is not defined for this potential family."""


class NoConvergence(FerrosolveError):
    """A scalar root solve failed to converge; the potential parameters are likely malformed."""


class SingularSystem(FerrosolveError):
    """The assembled elliptic operator is singular (assembly bug)."""


class LinearSolveFailure(FerrosolveError):
    """Linear solve did not reach the requested residual."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"linear solve failed, achieved residual {residual:.3e}")


class StepSolveFailure(FerrosolveError):
    """A time step exhausted its iteration budget or stalled above its tolerance."""

    def __init__(self, step_index, certificate, fixed_point_gap, lowest_certificate,
                 load_scale):
        self.step_index = step_index
        self.certificate = certificate
        self.fixed_point_gap = fixed_point_gap
        #: the lowest certificate of the step's checks: the step_tol it met
        self.lowest_certificate = lowest_certificate
        #: max |zhat| of the step: a huge load drives its products to overflow
        self.load_scale = load_scale
        super().__init__(
            f"step {step_index} did not converge: certificate {certificate:.3e}, "
            f"fixed-point gap {fixed_point_gap:.3e}, "
            f"lowest certificate {lowest_certificate:.3e}, "
            f"load scale max|zhat| {load_scale:.3e}"
        )


class DomainEscape(FerrosolveError):
    """Iterates cannot be kept inside the domain of the remanent energy."""


class MismatchedScenario(FerrosolveError):
    """Trajectories passed to a study do not share grid/scenario data."""


class AtomOutsideDomain(FerrosolveError):
    """A Young-measure atom lies outside the domain of the remanent energy."""


class ParseError(FerrosolveError):
    """Scenario file is syntactically malformed."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ValidationError(FerrosolveError):
    """Scenario file is syntactically valid but semantically inconsistent."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
