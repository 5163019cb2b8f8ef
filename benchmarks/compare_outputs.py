"""Compare two artifact directories file by file.

    python benchmarks/compare_outputs.py DIR_A DIR_B

Lists every file under either directory as identical, different or only on
one side. For a CSV or JSON file that differs it prints, per column or key,
the largest |b - a| / max(1, |a|) over its numbers (the list indices of a
JSON key are folded together), or "text" where non-numbers differ. Exits 0
when every file is identical, 1 otherwise.
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np


def _flatten(obj, key, out):
    """Leaves of a JSON value as {key path: [values]}; list indices fold to []."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{key}.{k}" if key else k, out)
    elif isinstance(obj, list):
        for v in obj:
            _flatten(v, key + "[]", out)
    else:
        out.setdefault(key, []).append(obj)
    return out


def _columns(path):
    if path.suffix == ".json":
        return _flatten(json.loads(path.read_text()), "", {})
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _largest_difference(va, vb) -> str:
    try:
        xa, xb = (np.array([float(v) for v in column]) for column in (va, vb))
    except (TypeError, ValueError):
        return "text"
    if xa.shape != xb.shape or xa.size == 0:
        return "text"
    return f"{float(np.max(np.abs(xb - xa) / np.maximum(1.0, np.abs(xa)))):.3e}"


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    dirs = [Path(d) for d in argv]
    names = sorted({p.relative_to(d).as_posix() for d in dirs for p in d.rglob("*") if p.is_file()})
    same = True
    for name in names:
        a, b = (d / name for d in dirs)
        if not (a.is_file() and b.is_file()):
            print(f"only in {'A' if a.is_file() else 'B'}  {name}")
        elif a.read_bytes() != b.read_bytes():
            print(f"different  {name}")
            if a.suffix in (".csv", ".json"):
                ca, cb = _columns(a), _columns(b)
                for key in sorted(set(ca) | set(cb)):
                    if ca.get(key) != cb.get(key):
                        print(f"    {key}: {_largest_difference(ca.get(key, []), cb.get(key, []))}")
        else:
            print(f"identical  {name}")
            continue
        same = False
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
