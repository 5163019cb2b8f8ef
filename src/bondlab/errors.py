"""Exception hierarchy shared across the package.

Two bases partition every failure the library can raise on purpose:

* ValidationFailure: the inputs themselves are malformed or violate a
  documented precondition (bad grid, negative curve, future data requested,
  infeasible budget...). CLI exit code 2.
* NumericalFailure: the inputs were legal but a numerical procedure could not
  deliver its contract (arbitrage residual too large, hedge target outside
  the operator range, root bracket not found...). CLI exit code 3.

Concrete subclasses live here so that any module can raise them without
import cycles. NodeNotRecorded is the one exception outside both bases: it
marks a program error, not bad input or a failed procedure (CLI exit code 4).
"""

from __future__ import annotations


class BondLabError(Exception):
    """Base class for every deliberate bondlab failure."""


class ValidationFailure(BondLabError):
    """Inputs are malformed or violate a documented precondition."""

    exit_code = 2


class NumericalFailure(BondLabError):
    """A numerical procedure could not meet its contract on legal inputs."""

    exit_code = 3


# --- curve space -----------------------------------------------------------

class AtomBeyondGrid(ValidationFailure):
    """Point-evaluation atom placed outside [0, x_max]."""


class OrderUnsupported(ValidationFailure):
    """Derivative atom used where the Sobolev order does not admit one."""


class GridMismatch(ValidationFailure):
    """Binary curve operation on curves living on different grids."""


class NodeNotRecorded(LookupError):
    """An atom read a curve node that the simulation did not retain.

    Raised when a tap on a column-only ensemble needs a node outside the
    run's node request: the request missed an atom, which is a program
    error. step and node locate the first missing read.
    """

    def __init__(self, message: str, *, step: int | None = None, node: int | None = None):
        super().__init__(message)
        self.step = step
        self.node = node


# --- market model ----------------------------------------------------------

class ArbitrageDetected(NumericalFailure):
    """Drift is not in the span of the volatility factors within tolerance."""


# --- dynamics --------------------------------------------------------------

class ConfigInvalid(ValidationFailure):
    """Simulation configuration violates a precondition."""


class NonPositiveInitialCurve(ValidationFailure):
    """Initial curve has a non-positive node value."""


class DegenerateCurve(NumericalFailure):
    """Rate extraction hit a non-positive or NaN curve value.

    In a simulated ensemble, step (index into the time grid) and path locate
    the first bad curve; both are None elsewhere.
    """

    def __init__(self, message: str, *, step: int | None = None, path: int | None = None):
        super().__init__(message)
        self.step = step
        self.path = path


# --- portfolio -------------------------------------------------------------

class AdaptednessViolation(ValidationFailure):
    """Strategy construction callback requested data beyond its step."""


# --- hedging ---------------------------------------------------------------

class OutOfRange(NumericalFailure):
    """Hedge target is not in the range of the Gram operator within tolerance."""


class UnsupportedUtility(ValidationFailure):
    """No closed-form conditional kernel registered for this utility family."""


# --- optimizer -------------------------------------------------------------

class OutOfDomain(ValidationFailure):
    """Inverse marginal utility evaluated outside its domain."""


class BudgetInfeasible(ValidationFailure):
    """Initial capital outside the attainable wealth range."""


class BracketFailure(NumericalFailure):
    """Root bracketing for the budget equation failed to find a sign change."""


class ConditionCFails(NumericalFailure):
    """Atom system for the market-price-of-risk portfolio is singular."""


class DecompositionFails(NumericalFailure):
    """Mutual-fund decomposition residual exceeded tolerance."""


# --- reduced HJB -----------------------------------------------------------

class DegenerateConcavity(NumericalFailure):
    """Too many curvature clamps while marching the reduced value PDE."""
