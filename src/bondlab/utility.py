"""Admissible utility families and their lognormal conditional kernels.

Four families cover the admissibility conditions (smooth, strictly concave
and increasing on ]a, infinity[, inverse marginal I = (U')^{-1} of power
growth on the marginal range B):

    quadratic   U(x) = mu x - x^2/2,  mu real;   a = -inf, B = R,      I(y) = mu - y
    exponential U(x) = 1 - e^{-mu x}/mu, mu > 0; a = -inf, B = ]0,inf[, I(y) = -ln(y)/mu
    power       U(x) = x^mu / mu, mu < 1, mu != 0; a = 0,  B = ]0,inf[, I(y) = y^{1/(mu-1)}
    log         U(x) = ln x;                     a = 0,   B = ]0,inf[, I(y) = 1/y

When the market price of risk is deterministic the terminal density is
lognormal and the conditional quantities the optimal portfolio needs,

    Y_t = E_Q[I(lambda xi_T) | F_t],
    y_t = -lambda E_Q[xi_T I'(lambda xi_T) | F_t],

have closed forms in xi_t and the remaining variance h_t = int_t^T ||gamma||^2.
(Under Q, ln(xi_T/xi_t) is N(+h_t/2, h_t), so E_Q[(xi_T/xi_t)^q] =
exp(q(q+1) h_t / 2).) These are the oracles the hedge and optimizer verify
against; anything outside the table refuses with UnsupportedUtility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, UnsupportedUtility, ValidationFailure

__all__ = [
    "Utility",
    "quadratic_utility",
    "exponential_utility",
    "power_utility",
    "log_utility",
    "inverse_marginal",
    "conditional_coefficients",
    "kernel_weight_of_wealth",
    "phi_closed_form",
    "lambda_closed_form",
    "concavity_gap",
]

_FAMILIES = ("quadratic", "exponential", "power", "log")


@dataclass(frozen=True)
class Utility:
    """One admissible family; mu is the family parameter (ignored for log)."""

    family: str
    mu: float = float("nan")

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise UnsupportedUtility(f"unknown utility family {self.family!r}")
        if self.family == "exponential" and not self.mu > 0.0:
            raise ValidationFailure(f"exponential utility needs mu > 0, got {self.mu}")
        if self.family == "power" and not (self.mu < 1.0 and self.mu != 0.0):
            raise ValidationFailure(f"power utility needs mu < 1, mu != 0, got {self.mu}")
        if self.family == "quadratic" and not np.isfinite(self.mu):
            raise ValidationFailure("quadratic utility needs a finite mu")

    @property
    def domain_floor(self) -> float:
        """a: wealth domain is ]a, infinity[."""
        return 0.0 if self.family in ("power", "log") else -np.inf

    @property
    def marginal_range(self) -> tuple[float, float]:
        """B: open range of U' on the domain."""
        return (-np.inf, np.inf) if self.family == "quadratic" else (0.0, np.inf)

    @property
    def growth_order(self) -> float:
        """r with |I(y)| + |y I'(y)| <= c1 + c2 y^r + c3 y^-r on B."""
        if self.family == "power":
            return 1.0 / (1.0 - self.mu)
        return 1.0

    def u(self, x):
        """Utility values; -inf outside the domain for power/log."""
        x = np.asarray(x, dtype=np.float64)
        if self.family == "quadratic":
            out = self.mu * x - 0.5 * x * x
        elif self.family == "exponential":
            out = 1.0 - np.exp(-self.mu * x) / self.mu
        elif self.family == "power":
            out = np.where(x > 0.0, np.power(np.maximum(x, 1e-300), self.mu) / self.mu, -np.inf)
        else:
            out = np.where(x > 0.0, np.log(np.maximum(x, 1e-300)), -np.inf)
        return out if out.ndim else float(out)

    def marginal(self, x):
        """U'(x)."""
        x = np.asarray(x, dtype=np.float64)
        if self.family == "quadratic":
            out = self.mu - x
        elif self.family == "exponential":
            out = np.exp(-self.mu * x)
        elif self.family == "power":
            out = np.power(x, self.mu - 1.0)
        else:
            out = 1.0 / x
        return out if out.ndim else float(out)

    def inverse_marginal(self, y):
        """I(y) = (U')^{-1}(y) on B.

        Raises:
            OutOfDomain: y outside the open marginal range.
        """
        y_arr = np.asarray(y, dtype=np.float64)
        lo, hi = self.marginal_range
        if np.any(~np.isfinite(y_arr)) or np.any(y_arr <= lo) or np.any(y_arr >= hi):
            raise OutOfDomain(
                f"marginal value outside B = ]{lo}, {hi}[ for family {self.family}"
            )
        if self.family == "quadratic":
            out = self.mu - y_arr
        elif self.family == "exponential":
            out = -np.log(y_arr) / self.mu
        elif self.family == "power":
            out = np.power(y_arr, 1.0 / (self.mu - 1.0))
        else:
            out = 1.0 / y_arr
        return out if out.ndim else float(out)

    def inverse_marginal_prime(self, y):
        """I'(y) on B."""
        y_arr = np.asarray(y, dtype=np.float64)
        lo, hi = self.marginal_range
        if np.any(y_arr <= lo) or np.any(y_arr >= hi):
            raise OutOfDomain(f"marginal value outside B for family {self.family}")
        if self.family == "quadratic":
            out = np.full_like(y_arr, -1.0)
        elif self.family == "exponential":
            out = -1.0 / (self.mu * y_arr)
        elif self.family == "power":
            kappa = 1.0 / (self.mu - 1.0)
            out = kappa * np.power(y_arr, kappa - 1.0)
        else:
            out = -1.0 / (y_arr * y_arr)
        return out if out.ndim else float(out)


def quadratic_utility(mu: float) -> Utility:
    return Utility("quadratic", mu)


def exponential_utility(mu: float) -> Utility:
    return Utility("exponential", mu)


def power_utility(mu: float) -> Utility:
    return Utility("power", mu)


def log_utility() -> Utility:
    return Utility("log")


def inverse_marginal(u: Utility, y):
    return u.inverse_marginal(y)


def conditional_coefficients(u: Utility, lam: float, xi_t, h_t):
    """Closed-form (Y_t, y_t) under a deterministic market price of risk.

    Args:
        u: utility family.
        lam: calibrated multiplier lambda-hat > 0 (quadratic admits any sign
            of mu - v through lam; lam must still be positive).
        xi_t: density samples at time t (array or scalar).
        h_t: remaining variance int_t^T ||gamma||^2 ds (scalar or array
            broadcastable against xi_t).

    Returns:
        (Y_t, y_t) arrays: the conditional optimal wealth and the
        Clark-Ocone weight; the hedge integrand is x_t^i = gamma_t^i * y_t.
    """
    if not lam > 0.0:
        raise OutOfDomain(f"multiplier must be positive, got {lam}")
    xi = np.asarray(xi_t, dtype=np.float64)
    h = np.asarray(h_t, dtype=np.float64)
    if u.family == "log":
        Y = 1.0 / (lam * xi)
        return Y, Y.copy()
    if u.family == "quadratic":
        lam_xi_eh = lam * xi * np.exp(h)
        return u.mu - lam_xi_eh, lam_xi_eh
    if u.family == "power":
        kappa = 1.0 / (u.mu - 1.0)
        Y = np.power(lam * xi, kappa) * np.exp(0.5 * kappa * (kappa + 1.0) * h)
        return Y, -kappa * Y
    if u.family == "exponential":
        Y = -(np.log(lam * xi) + 0.5 * h) / u.mu
        return Y, np.full_like(Y, 1.0 / u.mu)
    raise UnsupportedUtility(f"no conditional kernel for family {u.family!r}")


def kernel_weight_of_wealth(u: Utility, wealth):
    """The Clark-Ocone weight y_t as a function of the optimal wealth Y_t.

    conditional_coefficients with xi_t and h_t eliminated: y = Y (log),
    Y / (1 - mu) (power), 1 / mu (exponential), mu - Y (quadratic). The
    optimal control in feedback form is then x_t^i = gamma_t^i y_t.
    """
    w = np.asarray(wealth, dtype=np.float64)
    if u.family == "log":
        return w
    if u.family == "power":
        return w / (1.0 - u.mu)
    if u.family == "exponential":
        return np.full_like(w, 1.0 / u.mu)
    if u.family == "quadratic":
        return u.mu - w
    raise UnsupportedUtility(f"no conditional kernel for family {u.family!r}")


def phi_closed_form(u: Utility, lam: float, total_variance: float) -> float:
    """phi(lambda) = E_P[xi_T I(lambda xi_T)] for the lognormal terminal law."""
    Y0, _ = conditional_coefficients(u, lam, 1.0, total_variance)
    return float(Y0)


def lambda_closed_form(u: Utility, v: float, total_variance: float) -> float:
    """Direct solution of phi(lambda) = v where the family admits one.

    For the quadratic family the value (mu - v) e^{-H} is returned as-is;
    a non-positive result signals v >= mu (satiation side) and it is the
    caller's job to flag it rather than silently clip.
    """
    H = total_variance
    if u.family == "log":
        return 1.0 / v
    if u.family == "quadratic":
        return (u.mu - v) * np.exp(-H)
    if u.family == "power":
        kappa = 1.0 / (u.mu - 1.0)
        return float(np.power(v * np.exp(-0.5 * kappa * (kappa + 1.0) * H), 1.0 / kappa))
    if u.family == "exponential":
        return float(np.exp(-u.mu * v - 0.5 * H))
    raise UnsupportedUtility(f"no closed-form multiplier for family {u.family!r}")


def concavity_gap(u: Utility, x_hat, x_other, multiplier):
    """Pointwise certificate U(X) - U(X-hat) - (X - X-hat) * lambda xi <= 0.

    Returns the gap samples; optimality tests assert max <= numerical noise.
    Relies on U'(X-hat) = lambda xi, i.e. x_hat = I(multiplier) exactly.
    """
    return u.u(x_other) - u.u(x_hat) - (np.asarray(x_other) - np.asarray(x_hat)) * multiplier
