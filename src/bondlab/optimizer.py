"""Utility-optimal terminal wealth and its replicating bond portfolio.

The static problem maximizes E[U(X)] over terminal wealths financed by the
initial capital v, i.e. E_P[xi_T X] = v. Its solution is X-hat =
I(lambda-hat xi_T) with the multiplier calibrated on the strictly decreasing
budget function phi(lambda) = E_P[xi_T I(lambda xi_T)].

The dynamic portfolio comes out in closed form once a
market-price-of-risk portfolio theta0_t is fixed: any finite atom portfolio
with <theta0_t, (L_t p0) sigma_t^i> = gamma_t^i for every factor. Then

    theta-hat_t = x_t delta_0 + y_t (L_t p0 / p_t) theta0_t,

where y_t is the utility kernel weight, the curve ratio rescales each atom
by (L_t p0)(S_j) / p_t(S_j), and the cash holding x_t completes the wealth
to Y_t = E_Q[X-hat | F_t]. The wealth identity V_t(theta-hat) = Y_t holds by
construction at machine precision, which is the main invariant the tests
pin. All strategies here share theta0 up to the scalar y_t; that is the
mutual fund theorem, exposed as a decomposition with an auditable residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve_space import atoms_value_matrix, translate_rows
from .dynamics import CurvePath
from .errors import (
    BracketFailure,
    BudgetInfeasible,
    ConditionCFails,
    ConfigInvalid,
    DecompositionFails,
    ValidationFailure,
)
from .hedging import HedgeOperators, conditional_wealth_tables, default_atom_maturities
from .market_model import as_gamma_array, girsanov_log_path
from .portfolio import Holdings, coefficient_rows
from .utility import (
    Utility,
    exponential_utility,
    lambda_closed_form,
    log_utility,
    phi_closed_form,
    power_utility,
    quadratic_utility,
)

__all__ = [
    "LognormalTerminalLaw",
    "CalibrationResult",
    "calibrate_lambda",
    "optimal_terminal_wealth",
    "Theta0Portfolio",
    "condition_C_portfolio",
    "solve_condition_C",
    "OptimalPlan",
    "optimal_strategy_deterministic",
    "MutualFundDecomposition",
    "mutual_fund_decompose",
    "optimal_strategy_log_stochastic",
    "quadratic_utility",
    "exponential_utility",
    "power_utility",
    "log_utility",
]


@dataclass(frozen=True)
class LognormalTerminalLaw:
    """xi_T lognormal with ln xi_T ~ N(-H/2, H); H = int_0^T ||gamma||^2."""

    total_variance: float

    def __post_init__(self) -> None:
        if not (self.total_variance >= 0.0 and np.isfinite(self.total_variance)):
            raise ValidationFailure(f"total variance must be >= 0, got {self.total_variance}")


@dataclass(frozen=True)
class CalibrationResult:
    lambda_hat: float
    method: str  # "exact" | "closed_form" | "bisection"
    phi_residual: float
    sign_flag: bool  # quadratic satiation: closed form gave lambda <= 0


def calibrate_lambda(u: Utility, law, v: float, tol: float = 1e-10) -> CalibrationResult:
    """Solve phi(lambda) = v for the multiplier.

    Args:
        law: LognormalTerminalLaw (closed forms) or a (P,) array of xi_T
            samples (phi is then the sample mean of xi I(lambda xi) and the
            root is found by bracketed bisection on ln lambda).
        v: initial capital; must exceed the utility's domain floor.

    Returns:
        CalibrationResult. For the log family lambda-hat = 1/v exactly:
        xi I(lambda xi) = 1/lambda pointwise, so the identity holds for the
        sample law as well. A quadratic budget at or above satiation
        (v >= mu) yields the literal closed-form value with sign_flag=True
        instead of a guess.

    Raises:
        BudgetInfeasible: v <= domain floor.
        BracketFailure: no sign change found while expanding the bracket.
    """
    if not np.isfinite(v):
        raise BudgetInfeasible(f"initial capital must be finite, got {v}")
    if v <= u.domain_floor:
        raise BudgetInfeasible(
            f"initial capital {v} outside the attainable range (> {u.domain_floor})"
        )
    if u.family == "log":
        return CalibrationResult(1.0 / v, "exact", 0.0, False)

    if isinstance(law, LognormalTerminalLaw):
        lam = float(lambda_closed_form(u, v, law.total_variance))
        if lam <= 0.0:
            return CalibrationResult(lam, "closed_form", np.nan, True)
        resid = phi_closed_form(u, lam, law.total_variance) - v
        return CalibrationResult(lam, "closed_form", float(resid), False)

    # imported here: scipy.optimize costs about half a second to import, and
    # only this sample-law branch uses it
    from scipy.optimize import brentq

    xi = np.asarray(law, dtype=np.float64)
    if xi.ndim != 1 or np.any(xi <= 0.0):
        raise ValidationFailure("sample law must be a 1-d array of positive densities")

    def f(log_lam: float) -> float:
        return float(np.mean(xi * u.inverse_marginal(np.exp(log_lam) * xi))) - v

    lo = hi = 0.0
    f0 = f(0.0)
    if f0 == 0.0:
        return CalibrationResult(1.0, "bisection", 0.0, False)
    step = 1.0
    if f0 > 0.0:  # phi decreasing: move lambda up
        hi = step
        for _ in range(80):
            if f(hi) <= 0.0:
                break
            lo, hi = hi, hi + step
            step *= 2.0
        else:
            raise BracketFailure(
                f"no sign change for {u.family} budget {v} after expanding to ln lambda = {hi}"
            )
    else:
        lo = -step
        for _ in range(80):
            if f(lo) >= 0.0:
                break
            hi, lo = lo, lo - step
            step *= 2.0
        else:
            raise BracketFailure(
                f"no sign change for {u.family} budget {v} after expanding to ln lambda = {lo}"
            )
    root = brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
    lam = float(np.exp(root))
    return CalibrationResult(lam, "bisection", f(root), False)


def optimal_terminal_wealth(u: Utility, lam: float, xi_T: np.ndarray):
    """X-hat = I(lambda xi_T) samples and their mean utility."""
    x_hat = u.inverse_marginal(lam * np.asarray(xi_T, dtype=np.float64))
    return x_hat, float(np.mean(u.u(x_hat)))


# --- condition (C) portfolio -----------------------------------------------------


@dataclass
class Theta0Portfolio:
    """Atom portfolio matching the market price of risk at every time node."""

    maturities: np.ndarray  # (M,)
    weights: np.ndarray  # (K+1, M)
    l_pair: np.ndarray  # (K+1,) <theta0_t, L_t p0>
    l_at: np.ndarray  # (K+1, M) (L_t p0)(S_j)
    condition_numbers: np.ndarray  # (K+1,)


def condition_C_portfolio(
    ops: HedgeOperators,
    gamma_nodes: np.ndarray,
    maturities: np.ndarray | None = None,
    eps_rank: float = 1e-10,
) -> Theta0Portfolio:
    """Solve <theta0_t, B_t^i> = gamma_t^i on an atom basis, per time node.

    The solution is never unique in the curve space; this picks the fixed
    basis of point atoms (default: n equally spaced maturities, a square
    system) and the minimum-norm weights when the basis is larger.

    Args:
        ops: hedge operators (provides B_t^i and L_t p0).
        gamma_nodes: (K+1, n) market price of risk at the time nodes.

    Raises:
        ConditionCFails: atom system singular at some node (smallest
            singular value below eps_rank * largest).
    """
    times = ops.times
    n = ops.n_factors
    K1 = len(times)
    if gamma_nodes.shape != (K1, n):
        raise ConfigInvalid(f"gamma_nodes shape {gamma_nodes.shape} != {(K1, n)}")
    horizon = float(times[-1])
    if maturities is None:
        maturities = default_atom_maturities(n, ops.grid, horizon, m=n)
    maturities = np.asarray(maturities, dtype=np.float64)
    M = maturities.shape[0]
    if M < n:
        raise ConfigInvalid(f"{M} atoms cannot match {n} factors")

    # node values g + a of B_t^i and of L_t p0, each stack tapped in one call
    mats = atoms_value_matrix(maturities, ops.B + ops.B_a[:, :, None], ops.grid)
    l_at = atoms_value_matrix(maturities, ops.l + ops.l_a, ops.grid)
    weights = np.empty((K1, M))
    l_pair = np.empty(K1)
    cond = np.empty(K1)
    for k, mat in enumerate(mats):
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] <= eps_rank * max(sv[0], 1e-300):
            raise ConditionCFails(
                f"atom system singular at t = {times[k]:.6g}: "
                f"sv_min/sv_max = {sv[-1] / max(sv[0], 1e-300):.3e}"
            )
        cond[k] = sv[0] / sv[-1]
        if M == n:
            weights[k] = np.linalg.solve(mat, gamma_nodes[k])
        else:
            weights[k] = np.linalg.lstsq(mat, gamma_nodes[k], rcond=None)[0]
        l_pair[k] = float(weights[k] @ l_at[k])
    return Theta0Portfolio(maturities, weights, l_pair, l_at, cond)


def solve_condition_C(
    ops: HedgeOperators,
    gamma,
    dt: float,
    maturities: np.ndarray | None = None,
    eps_rank: float = 1e-10,
) -> Theta0Portfolio:
    """condition_C_portfolio for a deterministic gamma schedule on ops.times.

    gamma is taken at the K+1 time nodes: a callable is sampled at each one
    and a per-step schedule keeps its last row at T. It needs no ensemble,
    so it can run before the simulation whose node request its maturities
    enter.
    """
    K = len(ops.times) - 1
    if callable(gamma):
        gamma_nodes = as_gamma_array(gamma, K + 1, dt)
    else:
        steps = as_gamma_array(gamma, K, dt)
        gamma_nodes = np.vstack([steps, steps[-1:]])
    return condition_C_portfolio(ops, gamma_nodes, maturities, eps_rank)


# --- optimal strategy, deterministic gamma ---------------------------------------


@dataclass
class OptimalPlan:
    """Calibrated multiplier plus the full strategy tables along an ensemble."""

    utility: Utility
    v: float
    calibration: CalibrationResult
    theta0: Theta0Portfolio
    xi: np.ndarray  # (P, K+1)
    Y: np.ndarray  # (K+1, P) conditional optimal wealth
    y: np.ndarray  # (K+1, P) kernel weight
    cash: np.ndarray  # (K+1, P), a read-only view of strategy.weights
    weights: np.ndarray  # (K+1, P, M) atom weights of the risky leg, another view
    x_hat: np.ndarray  # (P,) terminal wealth samples
    expected_utility: float
    strategy: Holdings  # cash at 0, then theta0's maturities

    @property
    def lambda_hat(self) -> float:
        return self.calibration.lambda_hat


def _plan_tables(name: str, maturities, theta0_weights, l_pair, l_at, Y, y, path):
    """Atom weights, the cash completing V_t = Y_t and the plan's Holdings.

    The weights and the cash are read-only views of the Holdings table.

    Shared by both regimes: theta0_weights is (K+1, M) or (M,) and y the
    kernel weight scaling theta0 along each path. Reads p_t at the
    maturities only, so a node request holding them serves.
    """
    p_at = atoms_value_matrix(maturities, path.states, path.config.grid, nodes=path.nodes)
    table = np.empty(p_at.shape[:-1] + (p_at.shape[-1] + 1,))
    weights, cash = table[..., 1:], table[..., 0]
    np.divide(y[:, :, None] * theta0_weights[..., None, :] * l_at[:, None, :], p_at, out=weights)
    np.divide(Y - y * l_pair[:, None], path.value0, out=cash)
    weights.flags.writeable = cash.flags.writeable = False
    return weights, cash, Holdings.cash_and_bonds(name, path.config.grid, maturities, table)


def optimal_strategy_deterministic(
    u: Utility,
    v: float,
    ops: HedgeOperators,
    path: CurvePath,
    gamma,
    maturities: np.ndarray | None = None,
    calibration: CalibrationResult | None = None,
    eps_rank: float = 1e-10,
    theta0: Theta0Portfolio | None = None,
) -> OptimalPlan:
    """Assemble the optimal strategy along a P-measure ensemble.

    Args:
        u, v: utility family and initial capital.
        ops: hedge operators on path.times (deterministic coefficients).
        path: simulated ensemble with retained states; its increments define
            the density path xi. Every node, or a node request holding the
            order-0 atoms at theta0's maturities (and, for pairing the plan's
            strategy, the cash atom at 0).
        gamma: deterministic market price of risk.
        maturities: atom basis for theta0 (default: n equally spaced).
        calibration: reuse a previous calibration (e.g. to share lambda-hat
            across ensembles); must match u and v.
        theta0: reuse the condition-C portfolio of a previous plan (e.g.
            across utility families); must match ops, gamma, maturities and
            eps_rank, which it replaces.

    Raises:
        BudgetInfeasible: calibrated multiplier not positive (quadratic
            satiation), so no strategy exists in the admissible domain.
        NodeNotRecorded: the node request left out one of theta0's maturities.
    """
    if path.states is None:
        raise ConfigInvalid("optimal_strategy_deterministic needs keep_states=True")
    K, dt = path.n_steps, path.config.dt
    gamma_steps = as_gamma_array(gamma, K, dt)
    xi = np.exp(girsanov_log_path(gamma_steps, path.dw, dt))
    H = float(np.sum(gamma_steps * gamma_steps) * dt)
    cal = calibration or calibrate_lambda(u, LognormalTerminalLaw(H), v)
    if cal.sign_flag or cal.lambda_hat <= 0.0:
        raise BudgetInfeasible(
            f"multiplier {cal.lambda_hat} not positive (sign flag set); "
            "budget sits at or beyond satiation for this family"
        )
    if theta0 is None:
        theta0 = solve_condition_C(ops, gamma, dt, maturities, eps_rank)
    Y, y = conditional_wealth_tables(u, cal.lambda_hat, gamma_steps, xi, dt)
    weights, cash, strategy = _plan_tables(
        f"optimal_{u.family}",
        theta0.maturities,
        theta0.weights,
        theta0.l_pair,
        theta0.l_at,
        Y,
        y,
        path,
    )
    x_hat = Y[K].copy()
    expected_utility = float(np.mean(u.u(x_hat)))
    return OptimalPlan(
        utility=u,
        v=v,
        calibration=cal,
        theta0=theta0,
        xi=xi,
        Y=Y,
        y=y,
        cash=cash,
        weights=weights,
        x_hat=x_hat,
        expected_utility=expected_utility,
        strategy=strategy,
    )


# --- mutual fund decomposition ----------------------------------------------------


@dataclass
class MutualFundDecomposition:
    cash_part: np.ndarray  # (K+1, P) c_t
    fund_part: np.ndarray  # (K+1, P) d_t
    residual: float


def mutual_fund_decompose(
    plan: OptimalPlan, fund: OptimalPlan, tol: float = 1e-8
) -> MutualFundDecomposition:
    """Write plan's strategy as c_t delta_0 + d_t (fund strategy).

    The fund must be an optimal plan itself (positive wealth process); then
    d_t = y_t(plan)/y_t(fund) matches the risky atoms exactly and the cash
    parts absorb the difference. The residual is the worst atom-weight
    mismatch |w_plan - d w_fund| over steps, paths and atoms.

    Raises:
        DecompositionFails: residual above tol (weights scale).
    """
    if plan.weights.shape != fund.weights.shape:
        raise ConfigInvalid("plan and fund live on different ensembles or bases")
    if np.any(fund.y == 0.0):
        raise DecompositionFails("fund kernel weight vanishes; ratio undefined")
    d = plan.y / fund.y
    c = plan.cash - d * fund.cash
    resid = float(np.max(np.abs(plan.weights - d[:, :, None] * fund.weights)))
    scale = max(1.0, float(np.max(np.abs(plan.weights))))
    if resid > tol * scale:
        raise DecompositionFails(
            f"mutual-fund residual {resid:.3e} exceeds {tol:.1e} * {scale:.3g}"
        )
    return MutualFundDecomposition(c, d, resid)


# --- log utility under state-dependent volatility ----------------------------------


@dataclass
class LogStochasticPlan:
    theta0_weights: np.ndarray  # (M,) fixed atom weights defining gamma
    maturities: np.ndarray
    gamma_paths: np.ndarray  # (P, K, n)
    xi: np.ndarray  # (P, K+1)
    Y: np.ndarray  # (K+1, P)
    cash: np.ndarray  # (K+1, P), a read-only view of strategy.weights
    weights: np.ndarray  # (K+1, P, M), another view
    ratio_target: np.ndarray  # (K+1, M) deterministic wealth fractions
    strategy: Holdings  # cash at 0, then the maturities


def optimal_strategy_log_stochastic(
    v: float,
    path: CurvePath,
    schedule,
    maturities: np.ndarray,
    theta0_weights: np.ndarray | None = None,
) -> LogStochasticPlan:
    """Log-optimal strategy when volatility depends on the curve state.

    The market price of risk is defined through the fixed atom portfolio
    theta0 = sum_m w_m delta_{S_m}: gamma_t^i(omega) = <theta0, (L_t p0)
    sigma_t^i(omega)>. The scenario's drift must be built from the same
    gamma (strong no-arbitrage); the plan then repeats the deterministic
    construction pathwise with lambda-hat = 1/v, and the wealth fractions
    invested per maturity stay deterministic: weight_m p_t(S_m) / V_t =
    w_m (L_t p0)(S_m).

    path may be column-only (a node request holding the maturities) only
    when schedule is deterministic: a state-dependent one is sampled on
    whole curves, which need keep_states=True.

    Raises:
        BudgetInfeasible: v <= 0.
        ConfigInvalid: states not retained, or only node columns retained
            under a state-dependent schedule.
    """
    if v <= 0.0:
        raise BudgetInfeasible(f"log utility needs positive capital, got {v}")
    if path.states is None:
        raise ConfigInvalid("optimal_strategy_log_stochastic needs keep_states=True")
    cfg = path.config
    grid = cfg.grid
    K, P = path.n_steps, path.n_paths
    maturities = np.asarray(maturities, dtype=np.float64)
    M = maturities.shape[0]
    w0 = np.ones(M) if theta0_weights is None else np.asarray(theta0_weights, dtype=np.float64)

    # l_t = L_t p0 is deterministic even here
    l_vals = translate_rows(path.p0, path.times) + path.p0.a
    l_at = atoms_value_matrix(maturities, l_vals, grid)  # (K+1, M)
    l_pair = l_at @ w0

    # per-path gamma from the state-dependent volatility
    gamma_steps, n = [], None
    for k in range(K):
        sigma = coefficient_rows(schedule, path, k, n)[1:]  # (n, N) or (n, P, N)
        n = len(sigma)
        at = atoms_value_matrix(maturities, l_vals[k], grid, coefficient=sigma)
        # one dot product per (factor, path): a matrix-vector product rounds differently
        gamma_steps.append(np.matmul(at[..., None, :], w0[:, None])[..., 0, 0].T)
    gamma_paths = np.stack([np.broadcast_to(g, (P, g.shape[-1])) for g in gamma_steps], axis=1)
    xi = np.exp(girsanov_log_path(gamma_paths, path.dw, cfg.dt))
    Y = (v / xi).T.copy()  # (K+1, P); for log utility y = Y

    weights, cash, strategy = _plan_tables(
        "optimal_log_stochastic", maturities, w0, l_pair, l_at, Y, Y, path
    )
    ratio_target = w0[None, :] * l_at
    return LogStochasticPlan(
        theta0_weights=w0,
        maturities=maturities,
        gamma_paths=gamma_paths,
        xi=xi,
        Y=Y,
        cash=cash,
        weights=weights,
        ratio_target=ratio_target,
        strategy=strategy,
    )
