"""Spans and counters recorded from outside bondlab.

A traced run replaces selected module attributes of bondlab with wrappers
that record a span (or only a call count) around each call, and puts the
original attributes back afterwards. Nothing inside the program changes.

A span's self time is its duration minus the time covered by its child
spans. Counter-only wrappers push no span, so their time lands in the self
time of whichever span called them; they are used on the per-path calls
(hundreds of thousands per run), where timing every call would inflate the
traced run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Recorder:
    """Accumulates span durations, self times and call counts by name.

    `clock` returns nanoseconds; tests substitute a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self.top_level_ns = 0
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self._depth: dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        self._depth[name] += 1
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self._depth[name] -= 1
        self.self_ns[name] += dur - child
        # a span nested in a span of the same name is already covered by it
        if self._depth[name] == 0:
            self.total_ns[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_level_ns += dur

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) * 1e-9

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) * 1e-9


# --- what is wrapped ------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One name recorded at a set of attribute bindings.

    bindings: (module, attribute path) pairs; the attribute path may name a
        class attribute, as in "CoefficientSchedule.at". A function imported
        by name into several modules has one binding per module, and only the
        bindings listed are wrapped.
    timed: record a span; otherwise count calls only.
    measure: called as measure(recorder, args, kwargs, result) after each
        call, to accumulate values computed from the call.
    """

    name: str
    bindings: tuple[tuple[str, str], ...]
    timed: bool = True
    measure: Callable | None = None


def _kernel_traffic(rec: Recorder, args, kwargs, result) -> None:
    arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    if arrays:
        rec.values["kernels.elements"] += max(a.size for a in arrays)
        rec.values["kernels.bytes"] += sum(a.nbytes for a in arrays)


def _retained_states(rec: Recorder, args, kwargs, result) -> None:
    states = getattr(result, "states", None)
    if states is not None:
        rec.values["dynamics.states_bytes"] += states.nbytes


def _hjb_bookkeeping(rec: Recorder, args, kwargs, result) -> None:
    rec.values["hjb.substeps"] += getattr(result, "substeps_used", 0)
    rec.values["hjb.clamps"] += getattr(result, "clamp_count", 0)


def _b(module: str, *attrs: str) -> tuple[tuple[str, str], ...]:
    return tuple((f"bondlab.{module}", a) for a in attrs)


_TAP_TIMED = tuple(
    (f"bondlab.{m}", "atoms_value_matrix") for m in ("dynamics", "hedging", "optimizer", "cli")
)

PROBES: tuple[Probe, ...] = (
    Probe("dynamics.simulate", _b("dynamics", "simulate_mild") + _b("cli", "simulate_mild"),
          measure=_retained_states),
    Probe("dynamics.noise", _b("dynamics", "brownian_increments")),
    Probe("dynamics.norms", _b("dynamics", "hs_inner_samples")),
    Probe("dynamics.rollover", _b("cli", "simulate_rollover")),
    Probe("kernels.step", _b("kernels", "step_exp_shift"), measure=_kernel_traffic),
    Probe("market_model.coeff", _b("market_model", "CoefficientSchedule.at")),
    Probe("curve_space.taps", _TAP_TIMED),
    # inside pairing: ~0.4-0.5 M calls per run, counted only
    Probe("curve_space.taps", _b("portfolio", "atoms_value_matrix"), timed=False),
    Probe("portfolio.ledger", _b("cli", "ledger")),
    Probe("portfolio.value_path", _b("portfolio", "value_path") + _b("cli", "value_path")),
    Probe("portfolio.gains", _b("portfolio", "gains")),
    Probe("portfolio.materialize", _b("portfolio", "_strategy_atoms") + _b("hedging", "_strategy_atoms")),
    # the pairing routine as bound in portfolio (ledger and value paths)
    Probe("portfolio.pair", _b("portfolio", "_pair_batch"), timed=False),
    Probe("hedging.gram", _b("cli", "gram_operators")),
    Probe("hedging.integrand", _b("cli", "integrand_from_strategy")),
    Probe("hedging.complete", _b("cli", "complete_hedge")),
    # hedging calls it as np.linalg.pinv; nothing else in bondlab does
    Probe("hedging.pinv", (("numpy.linalg", "pinv"),)),
    Probe("hedging.diagnostic", _b("cli", "weighted_condition_diagnostic")),
    Probe("optimizer.plan", _b("cli", "optimal_strategy_deterministic")),
    Probe("optimizer.calibrate", _b("optimizer", "calibrate_lambda")),
    Probe("optimizer.condition_c", _b("optimizer", "condition_C_portfolio")),
    Probe("optimizer.mutual_fund", _b("cli", "mutual_fund_decompose")),
    Probe("utility.coefficients", _b("hedging", "conditional_coefficients")
          + _b("utility", "conditional_coefficients")),
    Probe("hjb.solve", _b("cli", "solve_reduced_hjb"), measure=_hjb_bookkeeping),
    Probe("cli.write", _b("cli", "_write_csv", "_write_json") + _b("portfolio", "LedgerPath.to_csv")),
)


def _span_wrapper(rec: Recorder, name: str, fn, measure):
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if measure is not None:
            measure(rec, args, kwargs, result)
        return result

    wrapper.probe_name = name
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    calls = rec.calls

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    wrapper.probe_name = name
    return wrapper


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


@contextmanager
def traced(rec: Recorder, probes=PROBES):
    """Wrap every listed binding for the duration of the block.

    Yields the list of bindings that do not exist in this version of the
    program; their metrics read zero. Every wrapped attribute is restored on
    exit, also when the block raises.
    """
    saved = []
    missing = []
    try:
        for probe in probes:
            for module, path in probe.bindings:
                found = _resolve(module, path)
                if found is None:
                    missing.append(f"{module}:{path}")
                    continue
                owner, attr, fn = found
                if probe.timed:
                    wrapped = _span_wrapper(rec, probe.name, fn, probe.measure)
                else:
                    wrapped = _count_wrapper(rec, probe.name, fn)
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def wrapped_bindings(probes=PROBES) -> list[str]:
    """Bindings that currently hold a wrapper; empty once restored."""
    out = []
    for probe in probes:
        for module, path in probe.bindings:
            found = _resolve(module, path)
            if found is not None and hasattr(found[2], "probe_name"):
                out.append(f"{module}:{path}")
    return out


# --- per-layer metrics ------------------------------------------------------------


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from one traced run.

    Entries that the benchmark measures itself (cli.artifact_mb,
    process.*, trace.*) are added by the worker and the runner.
    """
    s, calls, v = rec.seconds, rec.calls, rec.values
    step_s = s("kernels.step")
    elements = v.get("kernels.elements", 0.0)
    return {
        "dynamics.simulate_s": (s("dynamics.simulate"), "s"),
        "dynamics.simulate_self_s": (rec.self_seconds("dynamics.simulate"), "s"),
        "dynamics.simulate_calls": (calls.get("dynamics.simulate", 0), "count"),
        "dynamics.noise_s": (s("dynamics.noise"), "s"),
        "dynamics.norms_s": (s("dynamics.norms"), "s"),
        "dynamics.norm_calls": (calls.get("dynamics.norms", 0), "count"),
        "dynamics.rollover_s": (s("dynamics.rollover"), "s"),
        "dynamics.states_mb_computed": (v.get("dynamics.states_bytes", 0.0) / 1e6, "MB"),
        "kernels.step_s": (step_s, "s"),
        "kernels.step_calls": (calls.get("kernels.step", 0), "count"),
        "kernels.ns_per_element": (step_s * 1e9 / elements if elements else 0.0, "ns/element"),
        "kernels.mb_moved_computed": (v.get("kernels.bytes", 0.0) / 1e6, "MB"),
        "market_model.coeff_s": (s("market_model.coeff"), "s"),
        "market_model.coeff_calls": (calls.get("market_model.coeff", 0), "count"),
        "curve_space.tap_calls": (calls.get("curve_space.taps", 0), "count"),
        "curve_space.taps_s": (s("curve_space.taps"), "s"),
        "portfolio.ledger_s": (s("portfolio.ledger"), "s"),
        "portfolio.value_path_s": (s("portfolio.value_path"), "s"),
        "portfolio.gains_s": (s("portfolio.gains"), "s"),
        "portfolio.materialize_s": (s("portfolio.materialize"), "s"),
        "portfolio.pair_calls": (calls.get("portfolio.pair", 0), "count"),
        "hedging.gram_s": (s("hedging.gram"), "s"),
        "hedging.integrand_s": (s("hedging.integrand"), "s"),
        "hedging.complete_s": (s("hedging.complete"), "s"),
        "hedging.pinv_s": (s("hedging.pinv"), "s"),
        "hedging.pinv_calls": (calls.get("hedging.pinv", 0), "count"),
        "hedging.diagnostic_s": (s("hedging.diagnostic"), "s"),
        "optimizer.plan_s": (s("optimizer.plan"), "s"),
        "optimizer.plan_calls": (calls.get("optimizer.plan", 0), "count"),
        "optimizer.calibrate_s": (s("optimizer.calibrate"), "s"),
        "optimizer.condition_c_s": (s("optimizer.condition_c"), "s"),
        "optimizer.condition_c_calls": (calls.get("optimizer.condition_c", 0), "count"),
        "optimizer.mutual_fund_s": (s("optimizer.mutual_fund"), "s"),
        "utility.coefficients_s": (s("utility.coefficients"), "s"),
        "utility.coefficients_calls": (calls.get("utility.coefficients", 0), "count"),
        "hjb.solve_s": (s("hjb.solve"), "s"),
        "hjb.substeps": (v.get("hjb.substeps", 0.0), "count"),
        "hjb.clamps": (v.get("hjb.clamps", 0.0), "count"),
        "cli.verb_s": (s("cli.verb"), "s"),
        "cli.self_s": (rec.self_seconds("cli.verb"), "s"),
        "cli.write_s": (s("cli.write"), "s"),
        "cli.verify_s": (s("cli.verify"), "s"),
    }


# measured by the worker and the runner rather than by a probe
EXTRA_UNITS = {
    "cli.artifact_mb": "MB",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.top_level_frac": "ratio",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {name: unit for name, (_, unit) in layer_metrics(Recorder()).items()}
    units.update(EXTRA_UNITS)
    return units
