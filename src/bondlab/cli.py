"""Command-line harness: scenario files in, reproducible artifacts out.

Verbs: simulate | hedge | optimize | hjb | report. Each run writes its
artifacts plus three provenance files into the output directory:

    resolved_scenario.json   the scenario with every default made explicit
    schema.json              column documentation for the emitted tables
    metadata.json            scenario hash, seed, backend and kernel flags,
                             artifact hashes

Runs are deterministic: given the same scenario file and seed, outputs are
reproducible; with --fixed-order all statistical reductions use compensated
fixed-order summation and outputs are byte-identical across runs. No
timestamps or absolute paths appear in any artifact.

Each CSV table is a mapping of named columns, laid out from the ensemble's
tables with np.repeat, np.tile and ravel, and written by one _write_csv.
Each per-path mean and standard error comes from one reduction over the
path axis, _path_mean.

Exit codes: 0 success, 2 validation error, 3 numerical failure (including
numpy's LinAlgError), 4 internal error (a ValueError, TypeError or
LookupError raised by a verb outside its reading of the scenario, such as
NodeNotRecorded: a program bug, whose traceback goes to stderr), 5
resources exhausted (a MemoryError raised by a verb, such as an ensemble
too large to allocate). Failures print a machine-readable JSON payload to
stdout and, when the output directory is usable, mirror it to error.json;
an error that locates itself in the ensemble adds its step and path (or
node), and a failed numpy allocation adds the requested shape and byte
count.

The hedge, optimize and simulate verbs simulate their ledger ensembles with
a node request: each step retains only the curve nodes that the run's atoms
read, so memory grows with paths x steps x (a few nodes), not with the grid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, kernels
from .curve_space import Curve, MaturityGrid, SobolevIndex
from .dynamics import (
    SimConfig,
    boundary_residual,
    check_rollover_maturity,
    curve_from_forward,
    flat_forward_curve,
    moment_diagnostic,
    simulate_mild,
    simulate_rollover,
)
from .errors import (
    BondLabError,
    BudgetInfeasible,
    ConditionCFails,
    ConfigInvalid,
    DecompositionFails,
    NumericalFailure,
    ValidationFailure,
)
from .hedging import (
    WeightedSequenceIndex,
    complete_hedge,
    default_atom_maturities,
    gram_operators,
    integrand_from_strategy,  # noqa: F401  bound here for perfbench's hedging.integrand probe
    weighted_condition_diagnostic,
)
from .hjb import closed_form_value, feedback_controls, solve_reduced_hjb
from .market_model import (
    DriftCurve,
    VolatilityOperator,
    constant_coefficients,
    decaying_volatility_family,
    humped_volatility,
    solve_market_price_of_risk,
)
from .optimizer import (
    mutual_fund_decompose,
    optimal_strategy_deterministic,
    solve_condition_C,
)
from .portfolio import LedgerPath, ledger, node_request, pairings, strategy_from_spec
from .utility import Utility, kernel_weight_of_wealth, log_utility

__all__ = ["main"]

_EXIT_INTERNAL = 4
_EXIT_RESOURCES = 5


# --- scenario defaults ----------------------------------------------------------

_TOP_LEVEL_KEYS = {
    "grid",
    "sobolev_order",
    "horizon",
    "steps",
    "paths",
    "detail_paths",
    "seed",
    "measure",
    "initial_curve",
    "volatility",
    "drift",
    "report_maturities",
    "rollover_maturity",
    "strategies",
    "utility",
    "comparison_utilities",
    "claim",
    "hedge",
    "condition_c_maturities",
    "hjb",
}


def _resolve_scenario(raw: dict, overrides: dict) -> dict:
    """Scenario with defaults and command-line overrides made explicit."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("scenario must be a JSON object")
    unknown = sorted(set(raw) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigInvalid(f"unknown scenario keys: {', '.join(unknown)}")
    scn = dict(raw)
    scn.setdefault("grid", {"x_max": 4.0, "n_points": 513})
    scn.setdefault("sobolev_order", 1)
    scn.setdefault("horizon", 1.0)
    scn.setdefault("steps", 256)
    scn.setdefault("paths", 512)
    scn.setdefault("seed", 0)
    scn.setdefault("measure", "P")
    scn.setdefault("initial_curve", {"kind": "flat_forward", "rate": 0.05})
    scn.setdefault(
        "volatility", {"factors": [{"kind": "humped", "scale": 0.01, "decay": 1.0}]}
    )
    scn.setdefault("drift", {"kind": "arbitrage_free", "gamma": [0.2]})
    scn.setdefault("report_maturities", [0.25, 0.5, 1.0])
    scn.setdefault("rollover_maturity", 0.5)
    scn.setdefault("strategies", [])
    scn.setdefault("utility", {"family": "log", "budget": 1.0})
    scn["utility"].setdefault("budget", 1.0)
    v = float(scn["utility"]["budget"])
    scn.setdefault(
        "comparison_utilities",
        [
            {"family": "log"},
            {"family": "power", "mu": 0.5},
            {"family": "exponential", "mu": 1.0},
            {"family": "quadratic", "mu": v + 2.0},
        ],
    )
    scn.setdefault(
        "claim",
        {"kind": "strategy_terminal", "strategy": {"kind": "zero_coupon", "maturity": 2.0}},
    )
    hedge = dict(scn.get("hedge") or {})
    hedge.setdefault("atom_maturities", None)
    hedge.setdefault("weight_order", 1.0)
    hedge.setdefault("eps_rank", 1e-10)
    hedge.setdefault("eps_residual", 1e-8)
    scn["hedge"] = hedge
    scn.setdefault("condition_c_maturities", None)

    for key in ("seed", "paths", "steps"):
        if overrides.get(key) is not None:
            scn[key] = overrides[key]
    scn.setdefault("detail_paths", min(128, int(scn["paths"])))
    scn["detail_paths"] = min(int(scn["detail_paths"]), int(scn["paths"]))

    hjb = dict(scn.get("hjb") or {})
    u = _utility_from_spec(scn["utility"])
    if u.family in ("log", "power"):
        lo, hi = 0.5 * v, 2.5 * v
    else:
        lo, hi = v - 1.0, v + 1.0
    hjb.setdefault("w_min", lo)
    hjb.setdefault("w_max", hi)
    hjb.setdefault("n_t", 400)
    hjb.setdefault("n_w", 101)
    hjb.setdefault("clamp_budget", 0.01)
    scn["hjb"] = hjb
    return scn


def _utility_from_spec(spec: dict) -> Utility:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigInvalid(f"utility spec needs a 'family' key, got {spec!r}")
    family = spec["family"]
    if family == "log":
        return log_utility()
    if "mu" not in spec:
        raise ConfigInvalid(f"utility family {family!r} needs 'mu'")
    return Utility(family, float(spec["mu"]))


@contextmanager
def _reading_scenario():
    """Report a scenario entry that does not convert as ConfigInvalid (exit 2).

    Verbs read their scenario entries inside this block; an AttributeError
    here is an entry that is not the JSON object it should be. Any other
    ValueError, TypeError or KeyError a verb raises is a program bug.
    """
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"scenario entry invalid: {type(exc).__name__}: {exc}") from exc


# --- market construction --------------------------------------------------------


class _Market:
    """Resolved scenario turned into model objects."""

    def __init__(self, scn: dict):
        with _reading_scenario():
            grid_spec = scn["grid"]
            self.grid = MaturityGrid(float(grid_spec["x_max"]), int(grid_spec["n_points"]))
            self.s = SobolevIndex(int(scn["sobolev_order"]))
            self.p0 = _initial_curve(scn["initial_curve"], self.grid)
            self.sigma = _volatility(scn["volatility"], self.grid, self.s)
            self.gamma, self.m, self.gamma_info = _drift(
                scn["drift"], self.sigma, self.grid, self.s
            )
            self.schedule = constant_coefficients(self.m, self.sigma)
            self.measure = str(scn["measure"])
            if self.measure == "Q" and self.gamma is None:
                raise ConfigInvalid("measure 'Q' needs a drift spec that provides gamma")
            self.config = SimConfig(
                grid=self.grid,
                s=self.s,
                horizon=float(scn["horizon"]),
                n_steps=int(scn["steps"]),
                n_paths=int(scn["paths"]),
                seed=int(scn["seed"]),
            )

    def simulate(self, n_paths=None, **kwargs):
        cfg = self.config
        if n_paths is not None and n_paths != cfg.n_paths:
            cfg = SimConfig(
                grid=cfg.grid,
                s=cfg.s,
                horizon=cfg.horizon,
                n_steps=cfg.n_steps,
                n_paths=n_paths,
                seed=cfg.seed,
            )
        if self.measure == "Q":
            kwargs.setdefault("measure", "Q")
            kwargs.setdefault("gamma", self.gamma)
        return simulate_mild(self.p0, self.schedule, cfg, **kwargs)


def _initial_curve(spec: dict, grid: MaturityGrid) -> Curve:
    kind = spec.get("kind")
    if kind == "flat_forward":
        return flat_forward_curve(grid, float(spec["rate"]))
    if kind == "forward_samples":
        vals = np.asarray(spec["values"], dtype=np.float64)
        if vals.shape != (grid.n_points,):
            raise ConfigInvalid(
                f"forward_samples needs {grid.n_points} values, got {vals.shape}"
            )
        return curve_from_forward(grid, vals)
    if kind == "samples":
        a = float(spec.get("constant", 0.0))
        vals = np.asarray(spec["values"], dtype=np.float64)
        if vals.shape != (grid.n_points,):
            raise ConfigInvalid(f"samples needs {grid.n_points} values, got {vals.shape}")
        return Curve(grid, vals - a, a)
    raise ConfigInvalid(f"unknown initial_curve kind {kind!r}")


def _volatility(spec: dict, grid: MaturityGrid, s: SobolevIndex) -> VolatilityOperator:
    if spec.get("kind") == "decaying_family":
        return decaying_volatility_family(
            grid,
            int(spec["count"]),
            s,
            float(spec.get("weight_order", 1.0)),
            float(spec.get("scale", 0.01)),
        )
    factors = []
    for entry in spec.get("factors", []):
        kind = entry.get("kind")
        if kind == "humped":
            factors.append(
                humped_volatility(grid, float(entry["scale"]), float(entry.get("decay", 1.0)))
            )
        elif kind == "samples":
            a = float(entry.get("constant", 0.0))
            vals = np.asarray(entry["values"], dtype=np.float64)
            if vals.shape != (grid.n_points,):
                raise ConfigInvalid(
                    f"factor samples need {grid.n_points} values, got {vals.shape}"
                )
            factors.append(Curve(grid, vals - a, a))
        else:
            raise ConfigInvalid(f"unknown volatility factor kind {kind!r}")
    if not factors:
        raise ConfigInvalid("volatility spec names no factors")
    return VolatilityOperator(tuple(factors))


def _drift(spec: dict, sigma: VolatilityOperator, grid: MaturityGrid, s: SobolevIndex):
    """Returns (gamma vector or None, DriftCurve, solver info dict)."""
    kind = spec.get("kind")
    n = sigma.n_factors
    if kind == "zero":
        gamma = np.zeros(n)
        m = DriftCurve(Curve(grid, np.zeros(grid.n_points), 0.0))
        return gamma, m, {"kind": "zero"}
    if kind == "arbitrage_free":
        gamma = np.asarray(spec["gamma"], dtype=np.float64)
        if gamma.shape != (n,):
            raise ConfigInvalid(
                f"gamma needs one entry per factor ({n}), got shape {gamma.shape}"
            )
        g = np.tensordot(gamma, [f.g for f in sigma.factors], axes=1)
        a = float(gamma @ sigma.constant_parts())
        m = DriftCurve(Curve(grid, g, a))
        return gamma, m, {"kind": "arbitrage_free"}
    if kind == "samples":
        a = float(spec.get("constant", 0.0))
        vals = np.asarray(spec["values"], dtype=np.float64)
        if vals.shape != (grid.n_points,):
            raise ConfigInvalid(f"drift samples need {grid.n_points} values, got {vals.shape}")
        m = DriftCurve(Curve(grid, vals - a, a))
        if spec.get("gamma", "solve") != "solve":
            raise ConfigInvalid("sampled drift supports only gamma='solve'")
        mpr = solve_market_price_of_risk(sigma, m, s)
        info = {
            "kind": "solved",
            "residual": mpr.residual,
            "drift_norm": mpr.drift_norm,
            "gram_rank": mpr.gram_rank,
        }
        return mpr.gamma, m, info
    raise ConfigInvalid(f"unknown drift kind {kind!r}")


# --- deterministic writers -------------------------------------------------------


def _write_csv(path: Path, columns: dict) -> None:
    """One table from named, equal-length 1-D columns, in the mapping's order.

    Float columns print with 17 significant digits (enough to round-trip),
    integer and string columns as they are.
    """
    cells = [np.asarray(c) for c in columns.values()]
    template = ",".join("{:.17g}" if c.dtype.kind == "f" else "{}" for c in cells)
    rows = map(template.format, *(c.tolist() for c in cells))
    path.write_text("\n".join([",".join(columns), *rows]) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def _path_mean(table, fixed_order: bool, se: bool = False):
    """Mean over the paths of each row of an (R, P) table, or of a (P,) row.

    Returns (R,) means, or a scalar for a row; with se=True, the pair
    (mean, standard error). Each row is reduced where it lies, whatever the
    table's layout: math.fsum with fixed_order, else numpy's pairwise sum
    along the row. A reduction over another axis of a table adds in another
    order, and a transposed copy of a (K+1, P, M) table costs its size
    again, so callers pass one (K+1, P) column view at a time.
    """
    shape = np.shape(table)[:-1]
    rows = np.atleast_2d(table)
    n = rows.shape[-1]
    if fixed_order:
        rows = rows.tolist()
        mean = [math.fsum(r) / n for r in rows]
    else:
        mean = [np.mean(r) for r in rows]
    mean_out = np.reshape(mean, shape)[()]  # [()]: a scalar for a row
    if not se:
        return mean_out
    if n < 2:
        var = np.zeros(len(mean))
    elif fixed_order:
        var = [math.fsum((x - m) ** 2 for x in r) / (n - 1) for r, m in zip(rows, mean)]
    else:
        var = [np.var(r, ddof=1) for r in rows]
    return mean_out, np.reshape(np.sqrt(np.divide(var, n)), shape)[()]


# --- schema documentation --------------------------------------------------------

_SCHEMA = {
    "resolved_scenario.json": "input scenario with every default made explicit",
    "metadata.json": "run provenance: scenario sha256, seed, backend, artifact hashes",
    "summary.json": "headline numbers of the run",
    "curves.csv": {
        "columns": ["t", "x", "mean_p", "se_p"],
        "doc": "ensemble mean and standard error of p_t(x) at report maturities",
    },
    "terminal_curves.csv": {
        "columns": ["path", "x", "p"],
        "doc": "per-path discounted curve values at the horizon",
    },
    "rates.csv": {
        "columns": ["t", "mean_short_rate", "se_short_rate", "mean_value0", "se_value0"],
        "doc": "short rate r_t = f_t(0) and boundary value p_t(0) statistics",
    },
    "rollover.csv": {
        "columns": [
            "t",
            "mean_forward",
            "mean_account",
            "mean_bond_value",
            "mean_wealth",
            "se_wealth",
        ],
        "doc": "constant time-to-maturity rollover observables on the detail paths",
    },
    "ledger_<i>.csv": {
        "columns": ["path", "t", "V", "G", "residual"],
        "doc": "wealth, gains and self-financing defect of scenario strategy i",
    },
    "moments.json": "sample moments of sup-norm observables with stability flags",
    "hedge_report.csv": {
        "columns": ["t", "residual", "cash", "w_<j>"],
        "doc": "max Gram residual, mean cash and mean atom weights per step",
    },
    "replication.csv": {
        "columns": ["path", "claim", "value", "error", "ledger_error"],
        "doc": "claim vs propagated hedge value and vs the strategy's own ledger",
    },
    "spectrum.json": "Gram spectrum at t=0 plus the weighted condition diagnostic",
    "plan.json": "calibration, expected utility and identity residuals of the plan",
    "coefficients.csv": {
        "columns": ["t", "theta0_w_<j>", "mean_Y", "mean_y", "mean_cash"],
        "doc": "deterministic theta0 weights and conditional-wealth table means",
    },
    "comparison.csv": {
        "columns": [
            "family",
            "mu",
            "status",
            "lambda_hat",
            "method",
            "expected_utility",
            "mean_terminal_wealth",
            "identity_residual",
        ],
        "doc": "calibration and plan quality across utility families",
    },
    "mutual_fund.csv": {
        "columns": ["t", "max_sv_ratio"],
        "doc": "worst second-to-first singular value ratio of stacked risky atoms",
    },
    "ledger_optimal.csv": {
        "columns": ["path", "t", "V", "G", "residual"],
        "doc": "ledger of the optimal strategy for the scenario utility",
    },
    "value_grid.csv": {
        "columns": ["t", "w", "F", "xhat_<i>"],
        "doc": "value surface and feedback controls on interior wealth nodes",
    },
    "cross_validation.csv": {
        "columns": ["t", "w", "hjb_<i>", "dual_<i>", "max_error"],
        "doc": "HJB feedback controls against the duality controls (sampled layers)",
    },
    "report.json": "artifact inventory with verification results",
    "report.txt": "human-readable run report",
}


# --- command implementations ------------------------------------------------------


def _cmd_simulate(scn: dict, out: Path, fixed: bool) -> dict:
    market = _Market(scn)
    cfg = market.config
    with _reading_scenario():
        maturities = np.asarray(scn["report_maturities"], dtype=np.float64)
        rollover_maturity = float(scn["rollover_maturity"])
        strategies = [strategy_from_spec(spec) for spec in scn["strategies"]]
    path = market.simulate(record_norms=True, record_locations=maturities)
    K1, M = path.times.shape[0], maturities.shape[0]

    # (K+1, M) statistics, one maturity column of the observations at a time
    mean_p, se_p = np.stack(
        [_path_mean(path.observations[..., j], fixed, se=True) for j in range(M)], axis=-1
    )
    _write_csv(
        out / "curves.csv",
        {
            "t": np.repeat(path.times, M),
            "x": np.tile(maturities, K1),
            "mean_p": mean_p.ravel(),
            "se_p": se_p.ravel(),
        },
    )
    _write_csv(
        out / "terminal_curves.csv",
        {
            "path": np.repeat(np.arange(cfg.n_paths), M),
            "x": np.tile(maturities, cfg.n_paths),
            "p": path.observations[-1].ravel(),
        },
    )
    mean_r, se_r = _path_mean(path.spot, fixed, se=True)
    mean_v, se_v = _path_mean(path.value0, fixed, se=True)
    _write_csv(
        out / "rates.csv",
        {
            "t": path.times,
            "mean_short_rate": mean_r,
            "se_short_rate": se_r,
            "mean_value0": mean_v,
            "se_value0": se_v,
        },
    )
    _write_json(out / "moments.json", moment_diagnostic(path))

    check_rollover_maturity(cfg, rollover_maturity)
    if strategies and market.measure != "P":
        raise ConfigInvalid("strategy ledgers need measure 'P' (gains are P-dynamics)")
    # the rollover account reads S's point and derivative atoms
    reads = [([rollover_maturity], 0), ([rollover_maturity], 1)]
    reads += [read for strat in strategies for read in strat.reads(cfg.times)]
    # per-path seeding makes the detail ensemble a prefix of the full one
    detail = market.simulate(
        n_paths=int(scn["detail_paths"]), keep_states=node_request(cfg.grid, cfg.times, reads)
    )
    roll = simulate_rollover(detail, rollover_maturity)
    mean_account = _path_mean(roll.account, fixed)
    mean_wealth, se_wealth = _path_mean(roll.wealth, fixed, se=True)
    _write_csv(
        out / "rollover.csv",
        {
            "t": roll.times,
            "mean_forward": _path_mean(roll.forward, fixed),
            "mean_account": mean_account,
            "mean_bond_value": _path_mean(roll.bond_value, fixed),
            "mean_wealth": mean_wealth,
            "se_wealth": se_wealth,
        },
    )

    ledger_residuals = {}
    for i, strat in enumerate(strategies):
        led = ledger(strat, detail, market.schedule)
        led.to_csv(out / f"ledger_{i}.csv")
        ledger_residuals[f"ledger_{i}"] = {
            "strategy": strat.name,
            "max_residual": led.max_residual,
        }

    summary = {
        "backend": kernels.backend_name(),
        "measure": market.measure,
        "gamma": market.gamma,
        "gamma_info": market.gamma_info,
        "boundary_residual": boundary_residual(path),
        "terminal_mean": {f"{x:.17g}": m for x, m in zip(maturities.tolist(), mean_p[-1])},
        "rollover_terminal_account_mean": mean_account[-1],
        "ledgers": ledger_residuals,
    }
    _write_json(out / "summary.json", summary)
    return summary


def _claim_from_spec(spec: dict):
    """The claim: a constant payoff (float) or a strategy's terminal wealth."""
    with _reading_scenario():
        kind = spec.get("kind")
        if kind == "constant":
            return float(spec["value"])
        if kind == "strategy_terminal":
            return strategy_from_spec(spec["strategy"])
    raise ConfigInvalid(f"unknown claim kind {kind!r}")


def _claim_payoff(claim, path, schedule, n_factors: int):
    """Returns (X, price0, integrands, reference_residual, label)."""
    K, P = path.n_steps, path.n_paths
    if isinstance(claim, float):
        return np.full(P, claim), claim, np.zeros((K, P, n_factors)), 0.0, "constant"
    # one pairing: the vol pairings of the claim's ledger are its integrands
    pr = pairings(claim, path, schedule)
    led = LedgerPath.from_pairings(claim.name, pr, path)
    return led.wealth[K], led.wealth[0], pr.vol, led.max_residual, claim.name


def _cmd_hedge(scn: dict, out: Path, fixed: bool) -> dict:
    market = _Market(scn)
    if market.measure != "P":
        raise ConfigInvalid("hedging runs under measure 'P' (set measure to 'P')")
    if market.gamma is None:
        raise ConfigInvalid("hedging needs a drift spec that provides gamma")
    cfg = market.config
    claim = _claim_from_spec(scn["claim"])
    hed = scn["hedge"]
    with _reading_scenario():
        eps_rank, eps_residual = float(hed["eps_rank"]), float(hed["eps_residual"])
        weight_index = WeightedSequenceIndex(float(hed["weight_order"]))
        atom_maturities = hed["atom_maturities"]
        if atom_maturities is not None:
            atom_maturities = np.asarray(atom_maturities, dtype=np.float64)
    ops = gram_operators(market.p0, market.schedule, cfg.times, market.s)
    n = ops.n_factors
    if atom_maturities is None:
        atom_maturities = default_atom_maturities(n, cfg.grid, cfg.horizon)
    # the hedge holds cash at 0 and its atom basis; then the claim's own atoms
    reads = [([0.0], 0), (atom_maturities, 0)]
    if not isinstance(claim, float):
        reads += claim.reads(cfg.times)
    path = market.simulate(keep_states=node_request(cfg.grid, cfg.times, reads))

    X, price0, integrands, ref_residual, label = _claim_payoff(claim, path, market.schedule, n)
    result = complete_hedge(
        ops,
        path,
        integrands,
        price0,
        gamma=market.gamma,
        atom_maturities=atom_maturities,
        eps_rank=eps_rank,
        eps_residual=eps_residual,
    )
    led = ledger(result.strategy, path, market.schedule)
    err_prop = result.conditional_value[-1] - X
    err_ledger = led.wealth[0] + led.gains[-1] - X

    M = result.atom_maturities.shape[0]
    _write_csv(
        out / "hedge_report.csv",
        {
            "t": cfg.times[: cfg.n_steps],
            "residual": np.max(result.gram_residual, axis=1),
            "cash": _path_mean(result.cash[: cfg.n_steps], fixed),
            **{f"w_{j}": _path_mean(result.weights[..., j], fixed) for j in range(M)},
        },
    )
    _write_csv(
        out / "replication.csv",
        {
            "path": np.arange(cfg.n_paths),
            "claim": X,
            "value": result.conditional_value[-1],
            "error": err_prop,
            "ledger_error": err_ledger,
        },
    )
    diag = weighted_condition_diagnostic(ops.A, weight_index)
    _write_json(
        out / "spectrum.json",
        {
            "eigenvalues_t0": ops.eigvals[0],
            "min_eigenvalue_path": np.min(ops.eigvals, axis=1),
            "weighted_condition": diag,
        },
    )
    summary = {
        "backend": kernels.backend_name(),
        "claim": label,
        "price0": _path_mean(np.broadcast_to(price0, (cfg.n_paths,)), fixed),
        "atom_maturities": result.atom_maturities,
        "claim_reference_residual": ref_residual,
        "rms_replication_error": np.sqrt(_path_mean(err_ledger * err_ledger, fixed)),
        "rms_propagation_error": np.sqrt(_path_mean(err_prop * err_prop, fixed)),
        "max_gram_residual": float(np.max(result.gram_residual)),
        "hedge_ledger_residual": led.max_residual,
    }
    _write_json(out / "summary.json", summary)
    return summary


def _cmd_optimize(scn: dict, out: Path, fixed: bool) -> dict:
    market = _Market(scn)
    if market.measure != "P":
        raise ConfigInvalid("optimization runs under measure 'P' (set measure to 'P')")
    if market.gamma is None:
        raise ConfigInvalid("optimization needs a drift spec that provides gamma")
    cfg = market.config
    with _reading_scenario():
        v = float(scn["utility"]["budget"])
        maturities = scn["condition_c_maturities"]
        if maturities is not None:
            maturities = np.asarray(maturities, dtype=np.float64)
        specs = [scn["utility"]] + [
            dict(entry, budget=v) for entry in scn["comparison_utilities"]
        ]
        utilities = [_utility_from_spec(spec) for spec in specs]
    ops = gram_operators(market.p0, market.schedule, cfg.times, market.s)
    # condition C depends on ops, gamma and the maturities only: solve it once,
    # before simulating, since every plan holds cash and atoms at its maturities
    try:
        theta0 = solve_condition_C(ops, market.gamma, cfg.dt, maturities)
        reads = [([0.0], 0), (theta0.maturities, 0)]
    except ConditionCFails:
        # then every plan fails: the primary one raises it again, after its own
        # calibration errors, as it always has
        theta0, reads = None, [([0.0], 0)]
    path = market.simulate(keep_states=node_request(cfg.grid, cfg.times, reads))

    plans: dict[tuple, object] = {}
    rows = []
    seen = set()
    for spec, u in zip(specs, utilities):
        key = (u.family, None if u.family == "log" else u.mu)
        if key in seen:
            continue
        seen.add(key)
        mu_out = float("nan") if u.family == "log" else u.mu
        try:
            plan = optimal_strategy_deterministic(
                u, v, ops, path, market.gamma, maturities, theta0=theta0
            )
        except (BudgetInfeasible, ConditionCFails) as exc:
            if spec is specs[0]:
                raise
            rows.append(
                [u.family, mu_out, type(exc).__name__, float("nan"), "none",
                 float("nan"), float("nan"), float("nan")]
            )
            continue
        plans[key] = plan
        # the primary plan is paired once, with the schedule, for its ledger too
        pr = pairings(plan.strategy, path, market.schedule if spec is specs[0] else None)
        if spec is specs[0]:
            pr0 = pr
        rows.append(
            [
                u.family,
                mu_out,
                "ok",
                plan.lambda_hat,
                plan.calibration.method,
                plan.expected_utility,
                _path_mean(plan.x_hat, fixed),
                float(np.max(np.abs(pr.value - plan.Y))),
            ]
        )
    header = _SCHEMA["comparison.csv"]["columns"]
    _write_csv(out / "comparison.csv", dict(zip(header, map(np.array, zip(*rows)))))

    u0 = utilities[0]
    key0 = (u0.family, None if u0.family == "log" else u0.mu)
    plan0 = plans[key0]
    led = LedgerPath.from_pairings(plan0.strategy.name, pr0, path)
    led.to_csv(out / "ledger_optimal.csv")
    identity_audit = float(np.max(np.abs(led.wealth - plan0.Y)))

    M = plan0.theta0.maturities.shape[0]
    _write_csv(
        out / "coefficients.csv",
        {
            "t": cfg.times,
            **{f"theta0_w_{j}": plan0.theta0.weights[:, j] for j in range(M)},
            "mean_Y": _path_mean(plan0.Y, fixed),
            "mean_y": _path_mean(plan0.y, fixed),
            "mean_cash": _path_mean(plan0.cash, fixed),
        },
    )

    fund_key = ("log", None)
    mutual_fund = {}
    if fund_key not in plans:
        try:
            plans[fund_key] = optimal_strategy_deterministic(
                log_utility(), v, ops, path, market.gamma, maturities, theta0=theta0
            )
        except (BudgetInfeasible, ConditionCFails) as exc:
            mutual_fund["fund_error"] = f"{type(exc).__name__}: {exc}"
    if fund_key in plans:
        fund = plans[fund_key]
        for key, plan in plans.items():
            if key == fund_key:
                continue
            name = key[0] if key[1] is None else f"{key[0]}(mu={key[1]:g})"
            try:
                dec = mutual_fund_decompose(plan, fund)
                mutual_fund[name] = {"ok": True, "residual": dec.residual}
            except DecompositionFails as exc:
                mutual_fund[name] = {"ok": False, "message": str(exc)}
        # rank-1 audit on stacked risky atoms over a path subsample:
        # (K+1, 32, plans, M), one batched SVD
        stack = np.stack([plans[key].weights[:, :32] for key in sorted(plans, key=str)], axis=2)
        ratios = np.zeros(cfg.n_steps + 1)
        if min(stack.shape[2:]) > 1:
            sv = np.linalg.svd(stack, compute_uv=False)
            top = sv[..., 0]
            ratio = np.divide(sv[..., 1], top, out=np.zeros_like(top), where=top > 0.0)
            ratios = np.max(ratio, axis=1, initial=0.0)
        _write_csv(out / "mutual_fund.csv", {"t": cfg.times, "max_sv_ratio": ratios})
        mutual_fund["max_sv_ratio"] = float(np.max(ratios))

    plan_report = {
        "family": u0.family,
        "mu": None if u0.family == "log" else u0.mu,
        "budget": v,
        "lambda_hat": plan0.lambda_hat,
        "method": plan0.calibration.method,
        "phi_residual": plan0.calibration.phi_residual,
        "sign_flag": plan0.calibration.sign_flag,
        "expected_utility": plan0.expected_utility,
        "identity_residual": identity_audit,
        "ledger_residual": led.max_residual,
        "theta0_maturities": plan0.theta0.maturities,
        "theta0_condition_max": float(np.max(plan0.theta0.condition_numbers)),
        "gamma": market.gamma,
    }
    _write_json(out / "plan.json", plan_report)
    summary = {
        "backend": kernels.backend_name(),
        "plan": plan_report,
        "mutual_fund": mutual_fund,
    }
    _write_json(out / "summary.json", summary)
    return summary


def _cmd_hjb(scn: dict, out: Path, fixed: bool) -> dict:
    market = _Market(scn)
    if market.gamma is None:
        raise ConfigInvalid("the HJB solver needs a drift spec that provides gamma")
    spec = scn["hjb"]
    with _reading_scenario():
        u = _utility_from_spec(scn["utility"])
        w_min, w_max = float(spec["w_min"]), float(spec["w_max"])
        n_t, n_w = int(spec["n_t"]), int(spec["n_w"])
        clamp_budget = float(spec["clamp_budget"])
    vg = solve_reduced_hjb(
        u,
        market.gamma,
        market.config.horizon,
        w_min,
        w_max,
        n_t,
        n_w,
        clamp_budget=clamp_budget,
    )
    gamma = market.gamma
    n = gamma.shape[0]
    w_int = vg.wealth[1:-1]
    all_controls = feedback_controls(vg, gamma)  # (T, W, n) on the interior nodes
    T, W = all_controls.shape[:2]
    _write_csv(
        out / "value_grid.csv",
        {
            "t": np.repeat(vg.times, W),
            "w": np.tile(w_int, T),
            "F": vg.F[:, 1:-1].ravel(),
            **{f"xhat_{i}": all_controls[..., i].ravel() for i in range(n)},
        },
    )

    dual = kernel_weight_of_wealth(u, w_int)[:, None] * gamma[None, :]
    errors = np.abs(all_controls - dual[None, :, :])
    max_err = float(np.nanmax(errors)) if errors.size else 0.0
    sample = np.unique(np.linspace(0, T - 1, 33).astype(int))
    _write_csv(
        out / "cross_validation.csv",
        {
            "t": np.repeat(vg.times[sample], W),
            "w": np.tile(w_int, sample.size),
            **{f"hjb_{i}": all_controls[sample, :, i].ravel() for i in range(n)},
            **{f"dual_{i}": np.tile(dual[:, i], sample.size) for i in range(n)},
            "max_error": np.max(errors[sample], axis=2).ravel(),
        },
    )

    exact = closed_form_value(u, vg)
    closed_form_error = None if exact is None else float(np.max(np.abs(vg.F - exact)))

    summary = {
        "backend": kernels.backend_name(),
        "family": u.family,
        "clamp_fraction": vg.clamp_fraction,
        "substeps_used": vg.substeps_used,
        "max_control_error": max_err,
        "closed_form_error": closed_form_error,
        "gamma": gamma,
    }
    _write_json(out / "summary.json", summary)
    return summary


def _cmd_report(out: Path) -> dict:
    meta_path = out / "metadata.json"
    if not meta_path.is_file():
        raise ConfigInvalid(f"no metadata.json in {out.name!r}; run a command first")
    meta = json.loads(meta_path.read_text())
    checks = {}
    for name, digest in sorted(meta.get("artifacts", {}).items()):
        target = out / name
        if not target.is_file():
            checks[name] = "missing"
            continue
        actual = hashlib.sha256(target.read_bytes()).hexdigest()
        checks[name] = "ok" if actual == digest else "modified"
    summary = {}
    summary_path = out / "summary.json"
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text())
    report = {
        "command": meta.get("command"),
        "scenario_sha256": meta.get("scenario_sha256"),
        "backend": meta.get("backend"),
        "seed": meta.get("seed"),
        "artifacts": checks,
        "verified": all(v == "ok" for v in checks.values()),
        "headline": summary,
    }
    _write_json(out / "report.json", report)
    lines = [
        "bondlab run report",
        f"command: {report['command']}",
        f"scenario sha256: {report['scenario_sha256']}",
        f"backend: {report['backend']}",
        f"seed: {report['seed']}",
        "artifacts:",
    ]
    lines.extend(f"  {name}: {state}" for name, state in sorted(checks.items()))
    lines.append(f"verified: {'yes' if report['verified'] else 'NO'}")
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    return report


# --- entry point ------------------------------------------------------------------

_COMMANDS = {
    "simulate": _cmd_simulate,
    "hedge": _cmd_hedge,
    "optimize": _cmd_optimize,
    "hjb": _cmd_hjb,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bondlab",
        description="Bond-market laboratory: simulate, hedge, optimize, solve, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("simulate", "hedge", "optimize", "hjb"):
        p = sub.add_parser(verb, help=f"run the {verb} pipeline")
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--paths", type=int, default=None, help="override path count")
        p.add_argument("--steps", type=int, default=None, help="override step count")
        p.add_argument(
            "--fixed-order",
            action="store_true",
            help="bitwise-reproducible statistical reductions",
        )
    p = sub.add_parser("report", help="verify and summarize a previous run")
    p.add_argument("--out", required=True, help="output directory of a previous run")
    p.add_argument(
        "--scenario", default=None, help="optional scenario file to check the hash against"
    )
    p.add_argument("--fixed-order", action="store_true", help=argparse.SUPPRESS)
    return parser


def _emit_error(exc: Exception, out: Path | None, code: int | None = None) -> int:
    if code is None:
        code = getattr(exc, "exit_code", 3 if isinstance(exc, NumericalFailure) else 2)
    payload = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    # where in the ensemble it failed, when the error knows (DegenerateCurve,
    # NodeNotRecorded)
    for key in ("step", "path", "node"):
        if getattr(exc, key, None) is not None:
            payload[key] = getattr(exc, key)
    # numpy's allocation error names the array it could not allocate
    shape, dtype = getattr(exc, "shape", None), getattr(exc, "dtype", None)
    if isinstance(exc, MemoryError) and shape is not None and dtype is not None:
        payload["shape"] = [int(n) for n in shape]
        payload["bytes"] = math.prod(payload["shape"]) * np.dtype(dtype).itemsize
    print(json.dumps(payload, sort_keys=True))
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_json(out / "error.json", payload)
        except OSError:
            pass
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.command == "report":
            report = _cmd_report(out)
            if args.scenario is not None:
                digest = hashlib.sha256(Path(args.scenario).read_bytes()).hexdigest()
                if digest != report["scenario_sha256"]:
                    raise ValidationFailure(
                        "scenario file hash does not match the recorded run"
                    )
            if not report["verified"]:
                raise ValidationFailure("artifact verification failed; see report.json")
            print(f"report written to {out / 'report.txt'}")
            return 0

        scenario_path = Path(args.scenario)
        try:
            raw = json.loads(scenario_path.read_text())
        except FileNotFoundError as exc:
            raise ValidationFailure(f"scenario file not found: {args.scenario}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationFailure(f"scenario is not valid JSON: {exc}") from exc
        digest = hashlib.sha256(scenario_path.read_bytes()).hexdigest()
        overrides = {"seed": args.seed, "paths": args.paths, "steps": args.steps}
        scn = _resolve_scenario(raw, overrides)

        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "resolved_scenario.json", scn)
        _write_json(out / "schema.json", _SCHEMA)
        try:
            _COMMANDS[args.command](scn, out, args.fixed_order)
        except np.linalg.LinAlgError:
            raise
        except MemoryError as exc:
            return _emit_error(exc, out, code=_EXIT_RESOURCES)
        except (ValueError, TypeError, LookupError) as exc:
            # the scenario was resolved and read above: this is a program bug
            traceback.print_exc()
            return _emit_error(exc, out, code=_EXIT_INTERNAL)

        artifacts = {}
        for target in sorted(out.iterdir()):
            if target.name == "metadata.json" or not target.is_file():
                continue
            artifacts[target.name] = hashlib.sha256(target.read_bytes()).hexdigest()
        _write_json(
            out / "metadata.json",
            {
                "command": args.command,
                "package": "bondlab",
                "version": __version__,
                "backend": kernels.backend_name(),
                "kernel_flags": kernels.kernel_flags(),
                "scenario_sha256": digest,
                "seed": scn["seed"],
                "paths": scn["paths"],
                "steps": scn["steps"],
                "fixed_order": bool(args.fixed_order),
                "artifacts": artifacts,
            },
        )
        print(f"{args.command}: {len(artifacts) + 1} artifacts in {out}")
        return 0
    except BondLabError as exc:
        return _emit_error(exc, out if args.command != "report" else None)
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but raised by a failed solve, not by bad input
        failure = NumericalFailure(f"LinAlgError: {exc}")
        return _emit_error(failure, out if args.command != "report" else None)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        return _emit_error(ValidationFailure(f"{type(exc).__name__}: {exc}"), None)


if __name__ == "__main__":
    sys.exit(main())
