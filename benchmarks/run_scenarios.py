"""Run every verb on the checked-in artifact scenarios.

    python benchmarks/run_scenarios.py OUT_DIR

Runs simulate, hedge, optimize and hjb on each benchmarks/scenarios/*.json,
once with --fixed-order and once without, into
OUT_DIR/<scenario>/<mode>/<verb> with mode "fixed" or "default". The
bondlab under this checkout's src/ is the one run. Exits 1 if any run
exits non-zero. Two checkouts' trees then compare with one call:

    python benchmarks/compare_outputs.py OUT_A OUT_B
"""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_VERBS = ("simulate", "hedge", "optimize", "hjb")
_MODES = {"fixed": ["--fixed-order"], "default": []}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failed = 0
    for scenario in sorted((_ROOT / "benchmarks" / "scenarios").glob("*.json")):
        for mode, flags in _MODES.items():
            for verb in _VERBS:
                target = out / scenario.stem / mode / verb
                cmd = [sys.executable, "-m", "bondlab", verb, "--scenario", str(scenario),
                       "--out", str(target)] + flags
                rc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
                print(f"{scenario.stem}/{mode}/{verb}: exit {rc}")
                failed += rc != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
