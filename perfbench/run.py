"""bondlab benchmark: end-to-end and per-layer figures of four workloads.

Usage, from the root of a source checkout:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):
    ensemble_q10k  library simulate_mild under Q, 10 000 paths x 256 steps x 513 nodes
    cli_simulate   `bondlab simulate` on the default scenario
    cli_hedge      `bondlab hedge` on the default scenario
    cli_plan       `bondlab optimize`, then `bondlab hjb`, on the default scenario

The load is closed-loop with one client: each workload run is one fresh
worker process (perfbench/worker.py), started only after the previous one has
ended, and runs are repeated until --seconds have passed (at least one).
The seed becomes the program's scenario seed.

--trace 0 reports, as medians over the runs:
    wall_s       wall time of the run's calls into bondlab (for the CLI
                 workloads, the cli.main calls of the verbs and of `report`)
    peak_rss_mb  peak resident set of the run's process
    setup_s      process launch to first call into bondlab's layers
                 (interpreter, import bondlab, input generation); median of
                 SETUP_LAUNCHES extra set-up-only launches plus the runs
and error_rate = failed runs / runs attempted, carried by the `attempted`
and `failed` fields. A run fails on a raised exception, a non-zero exit of a
verb or of `report`, or a failed output check (see worker.py).

--trace 1 alternates an untraced and a traced run and reports the per-layer
metrics of perfbench/spans.py, plus process.* figures of the untraced runs
and trace.overhead_frac = traced wall / untraced wall - 1.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Lines before it give each metric with its unit and sample count, and the
machine record. The program is built once per checkout into .bench_build/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

WORKLOADS = ("ensemble_q10k", "cli_simulate", "cli_hedge", "cli_plan")
SETUP_LAUNCHES = 2
# every run of this script must end within 180 s; workers get what is left
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class HarnessError(Exception):
    """The benchmark cannot run here (as opposed to the program failing)."""


# --- build and machine record ----------------------------------------------------


def build() -> None:
    """Build the program in place once per checkout, as an install would.

    Compiles the optional kernel extension when setup.py can, and the
    bytecode, so neither lands in the first run's set-up time.
    """
    if not (SRC / "bondlab" / "__init__.py").is_file() or not (ROOT / "setup.py").is_file():
        raise HarnessError(f"no bondlab source tree under {ROOT}")
    stamp = BUILD / "built"
    if stamp.is_file():
        return
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as fh:
        for cmd in (
            [sys.executable, "setup.py", "build_ext", "--inplace",
             "--build-temp", str(BUILD / "tmp")],
            [sys.executable, "-m", "compileall", "-q", str(SRC / "bondlab")],
        ):
            proc = subprocess.run(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT, timeout=800)
            if proc.returncode != 0:
                raise HarnessError(f"build step {cmd[1:3]} failed; see {log}")
    stamp.write_text("ok\n")


def _lscpu() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts and f.suffix not in (".so", ".pyc"):
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    """Read-only facts about the host, the interpreter and the source."""
    cpu = _lscpu()
    flags = cpu.get("Flags", "").split()
    if not flags:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("flags"):
                    flags = line.partition(":")[2].split()
                    break
        except OSError:
            pass
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has only source_sha256
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu.get("Model name") or platform.processor(),
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": _source_sha256(),
    }


# --- worker launches -------------------------------------------------------------------


def launch(workload: str, seed: int, deadline: float, *, trace=False, setup_only=False) -> dict | None:
    """Run one worker process to completion; None if it produced no result."""
    workdir = BUILD / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        launched = time.monotonic()
        proc = subprocess.run(
            cmd + ["--launched", repr(launched)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        print(f"# {workload}: worker timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    sys.stderr.write(proc.stderr[-2000:])
    print(f"# {workload}: worker exited with {proc.returncode} without a result", file=sys.stderr)
    return None


def _runs(workload, seed, seconds, deadline, traced_too):
    """Worker results until `seconds` have passed; pairs when traced_too."""
    plain, traced, attempted = [], [], 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < seconds:
        last = time.monotonic()
        for trace in (False, True) if traced_too else (False,):
            attempted += 1
            r = launch(workload, seed, deadline, trace=trace)
            (traced if trace else plain).append(r)
        # stop early rather than overrun the deadline with one more round
        if deadline - time.monotonic() < 2.0 * (time.monotonic() - last):
            break
    return plain, traced, attempted


def _failed(results) -> int:
    return sum(1 for r in results if r is None or not r["ok"])


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    setups = []
    for _ in range(SETUP_LAUNCHES):
        r = launch(workload, seed, deadline, setup_only=True)
        setups.append(r["setup_s"] if r else None)
    runs, _, attempted = _runs(workload, seed, seconds, deadline, traced_too=False)
    good = [r for r in runs if r is not None]
    setups += [r["setup_s"] for r in good]
    samples = {
        "wall_s": [r["wall_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "setup_s": [s for s in setups if s is not None],
    }
    return {
        "attempted": attempted,
        "failed": _failed(runs),
        "metrics": {k: (_median(v), END_TO_END_UNITS[k], len(v)) for k, v in samples.items()},
        "runs": runs,
    }


def measure_traced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    plain, traced, attempted = _runs(workload, seed, seconds, deadline, traced_too=True)
    good_plain = [r for r in plain if r is not None]
    good_traced = [r for r in traced if r is not None]
    units = layer_units()
    metrics = {
        name: (_median([r["layers"].get(name) for r in good_traced]), unit, len(good_traced))
        for name, unit in units.items()
        if name.split(".")[0] not in ("process", "trace")
    }
    wall_plain = _median([r["wall_s"] for r in good_plain])
    wall_traced = _median([r["wall_s"] for r in good_traced])
    cpu = _median([r["cpu_s"] for r in good_plain])
    n_plain, n_traced = len(good_plain), len(good_traced)
    metrics["process.cpu_s"] = (cpu, units["process.cpu_s"], n_plain)
    metrics["process.cpu_util"] = (cpu / wall_plain if wall_plain else 0.0, units["process.cpu_util"], n_plain)
    metrics["trace.overhead_frac"] = (
        wall_traced / wall_plain - 1.0 if wall_plain and wall_traced else 0.0,
        units["trace.overhead_frac"], min(n_plain, n_traced))
    metrics["trace.top_level_frac"] = (
        _median([r["top_level_s"] / r["wall_s"] for r in good_traced]),
        units["trace.top_level_frac"], n_traced)
    missing = sorted({m for r in good_traced for m in r.get("missing", [])})
    return {
        "attempted": attempted,
        "failed": _failed(plain + traced),
        "metrics": metrics,
        "runs": plain + traced,
        "missing": missing,
    }


# --- report -----------------------------------------------------------------------------


def _print_summary(workload: str, res: dict) -> None:
    print(f"== {workload}: {res['attempted']} runs attempted, {res['failed']} failed")
    for name, (value, unit, n) in res["metrics"].items():
        print(f"  {name:30s} {value:14.6g} {unit:11s} median of {n}")
    print(f"  {'error_rate':30s} {res['failed'] / res['attempted']:14.6g} {'ratio':11s} "
          f"{res['failed']} of {res['attempted']} runs")
    for r in res["runs"]:
        if r is not None and not r["ok"]:
            print(f"  failed checks: {r['failed_checks']} {json.dumps(r['checks'])}")
    if res.get("missing"):
        print(f"  bindings not found (metrics read 0): {', '.join(res['missing'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bondlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    try:
        build()
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    machine = machine_record()
    results = {}
    for w in workloads:
        deadline = time.monotonic() + DEADLINE_S
        fn = measure_traced if args.trace else measure
        results[w] = fn(w, args.seed, args.seconds, deadline)
        _print_summary(w, results[w])
    envs = [r["env"] for res in results.values() for r in res["runs"] if r is not None]
    if envs:
        machine.update(envs[0])
    print("machine " + json.dumps(machine, sort_keys=True))

    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    metrics = {}
    for w, res in results.items():
        prefix = "" if len(workloads) == 1 else f"{w}."
        for name, (value, unit, _) in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
