"""One workload run in one fresh process, with its output checks.

Usage (normally started by run.py, with src/ on PYTHONPATH):
    python3 perfbench/worker.py --workload cli_hedge --seed 3 --workdir DIR \
        [--trace] [--launched T] [--setup-only]

--launched is the time.monotonic() reading taken by the parent just before
it started this process; set-up time runs from there to the first call into
bondlab's layers. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import bondlab
from bondlab import cli, dynamics, kernels
from spans import Recorder, layer_metrics, traced, wrapped_bindings

WORKLOADS = ("ensemble_q10k", "cli_simulate", "cli_hedge", "cli_plan")

# criterion 02's maturities and market: one humped factor, scale 0.01,
# decay 1, gamma 0.2
MATURITIES = np.array([0.25, 0.5, 1.0, 1.5, 2.5])
GAMMA = np.array([0.2])

# Output-check tolerances. None depends on the seed: |z| <= 6 fails by chance
# with probability ~1e-8 over the 5 maturities (criterion 02 uses 3 at one
# fixed seed); the others are the tolerances of the acceptance criteria and
# CLI tests, or the program's own stated budgets.
Z_MAX = 6.0
BOUNDARY_MAX = 1e-3
PLAN_IDENTITY_MAX = 1e-9
HJB_CLOSED_FORM_MAX = 1e-3


# --- inputs -------------------------------------------------------------------------


def _ensemble_inputs(seed: int, paths: int):
    from bondlab.curve_space import Curve, MaturityGrid, SobolevIndex
    from bondlab.market_model import (
        DriftCurve,
        VolatilityOperator,
        constant_coefficients,
        humped_volatility,
    )

    grid = MaturityGrid(4.0, 513)
    p0 = dynamics.flat_forward_curve(grid, 0.05)
    sigma = humped_volatility(grid, 0.01, 1.0)
    drift = DriftCurve(Curve(grid, GAMMA[0] * sigma.g, GAMMA[0] * sigma.a))
    schedule = constant_coefficients(drift, VolatilityOperator((sigma,)))
    cfg = dynamics.SimConfig(
        grid=grid, s=SobolevIndex(1), horizon=1.0, n_steps=256, n_paths=paths, seed=seed
    )
    return p0, schedule, cfg


def _cli_inputs(name: str, seed: int, workdir: Path, paths: int | None):
    """(span name, argv) of each cli.main call; the scenario is the default one."""
    scenario = workdir / "scenario.json"
    scenario.write_text("{}\n")
    verbs = {"cli_simulate": ["simulate"], "cli_hedge": ["hedge"], "cli_plan": ["optimize", "hjb"]}[name]
    calls = []
    for verb in verbs:
        out = str(workdir / verb)
        argv = [verb, "--scenario", str(scenario), "--out", out, "--seed", str(seed)]
        if paths is not None:
            argv += ["--paths", str(paths)]
        calls.append(("cli.verb", argv))
        calls.append(("cli.verify", ["report", "--out", out]))
    return calls


# --- output checks ----------------------------------------------------------------


def _check_ensemble(path, p0, cfg) -> dict:
    obs = path.observations[-1]
    target = p0.value_at(cfg.horizon + MATURITIES)
    se = obs.std(axis=0, ddof=1) / math.sqrt(cfg.n_paths)
    z = float(np.max(np.abs(obs.mean(axis=0) - target) / se))
    resid = dynamics.boundary_residual(path)
    return {
        "max_abs_z": (z, z <= Z_MAX),
        "boundary_residual": (resid, resid <= BOUNDARY_MAX),
    }


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _read(out: Path, name: str):
    return json.loads((out / name).read_text())


def _check_cli(name: str, workdir: Path, codes: list[int]) -> dict:
    checks = {"exit_codes": (codes, all(c == 0 for c in codes))}
    if not checks["exit_codes"][1]:
        return checks
    if name == "cli_simulate":
        out = workdir / "simulate"
        resid = _read(out, "summary.json")["boundary_residual"]
        checks["boundary_residual"] = (resid, resid <= BOUNDARY_MAX)
        checks["moments_finite"] = (None, _all_finite(_read(out, "moments.json")))
    elif name == "cli_hedge":
        out = workdir / "hedge"
        summary = _read(out, "summary.json")
        eps = float(_read(out, "resolved_scenario.json")["hedge"]["eps_residual"])
        gram = summary["max_gram_residual"]
        checks["max_gram_residual"] = (gram, gram <= eps)
        # the hedge of a strategy's own terminal wealth replicates it up to
        # the strategy's own ledger defect (same budget as the CLI tests)
        rms, ref = summary["rms_replication_error"], summary["claim_reference_residual"]
        checks["rms_replication_error"] = (rms, math.isfinite(rms) and rms <= 2.0 * ref)
    else:
        out = workdir / "optimize"
        plan = _read(out, "plan.json")
        scn = _read(out, "resolved_scenario.json")
        ident = plan["identity_residual"]
        checks["identity_residual"] = (ident, ident <= PLAN_IDENTITY_MAX)
        # portfolio.self_financing_tolerance: 10 dt max(1, max |V|)
        wealth = np.loadtxt(out / "ledger_optimal.csv", delimiter=",", skiprows=1, usecols=2)
        tol = 10.0 * float(scn["horizon"]) / int(scn["steps"]) * max(1.0, float(np.max(np.abs(wealth))))
        led = plan["ledger_residual"]
        checks["ledger_residual"] = (led, led <= tol)
        cf = _read(workdir / "hjb", "summary.json")["closed_form_error"]
        checks["closed_form_error"] = (cf, cf is not None and cf <= HJB_CLOSED_FORM_MAX)
    return checks


def _artifact_mb(workdir: Path) -> float:
    return sum(f.stat().st_size for f in workdir.rglob("*") if f.is_file()) / 1e6


# --- one run --------------------------------------------------------------------------


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import scipy

    return {
        "backend": kernels.backend_name(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bondlab": bondlab.__version__,
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_workload(
    name: str,
    seed: int,
    workdir: Path,
    *,
    trace: bool = False,
    launched: float | None = None,
    paths: int | None = None,
    setup_only: bool = False,
) -> dict:
    """Set up, run and check one workload; returns the result record.

    paths overrides the ensemble size (tests use small ensembles).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "ensemble_q10k":
        p0, schedule, cfg = _ensemble_inputs(seed, 10_000 if paths is None else paths)
    else:
        calls = _cli_inputs(name, seed, workdir, paths)
    setup_s = None if launched is None else time.monotonic() - launched
    result = {"workload": name, "seed": seed, "setup_s": setup_s}
    if setup_only:
        return result

    rec = Recorder()
    codes: list[int] = []
    error = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with traced(rec) if trace else nullcontext([]) as missing:
        try:
            if name == "ensemble_q10k":
                path = dynamics.simulate_mild(
                    p0, schedule, cfg, measure="Q", gamma=GAMMA, record_locations=MATURITIES
                )
            else:
                for span, argv in calls:
                    with rec.span(span):
                        codes.append(cli.main(argv))
        except Exception as exc:  # a failed run is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    still_wrapped = wrapped_bindings()
    if still_wrapped:
        raise RuntimeError(f"wrappers left installed: {still_wrapped}")

    if error is not None:
        checks = {"exception": (error, False)}
    elif name == "ensemble_q10k":
        checks = _check_ensemble(path, p0, cfg)
    else:
        checks = _check_cli(name, workdir, codes)
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        ok=all(passed for _, passed in checks.values()),
        checks={k: v for k, (v, _) in checks.items()},
        failed_checks=[k for k, (_, passed) in checks.items() if not passed],
        env=environment(),
    )
    if trace:
        layers = {k: v for k, (v, _) in layer_metrics(rec).items()}
        layers["cli.artifact_mb"] = _artifact_mb(workdir) if name != "ensemble_q10k" else 0.0
        result.update(layers=layers, top_level_s=rec.top_level_ns * 1e-9, missing=missing)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--launched", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result = run_workload(
        args.workload,
        args.seed,
        Path(args.workdir),
        trace=args.trace,
        launched=args.launched,
        setup_only=args.setup_only,
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
