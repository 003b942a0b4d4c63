"""Compare the CLI records of another tree with those of the working tree.

    python3 tools/record_diff.py OLD [--small]

``OLD`` is a git revision of this repository (``HEAD``, ``main~2``, a
commit hash) or a directory that holds the ``psmaxwell`` package (a
``src`` directory).  Every config below runs as ``python -m psmaxwell.cli``
in fresh processes, once on ``OLD``'s package and once on the working
tree's ``src``:

- the benchmark workloads table-n32 (``run``), drift-aniso (``drift``) and
  propagate-n128 (``convergence``) at seeds 1 and 2, built by
  ``perfbench/workloads.py``;
- a ``run`` and a ``drift`` of the standing wave on an 8 x 10 x 12 grid of
  a box whose sides differ, with eps = 0.5 (``--small`` runs only these).

For each config it prints every record key, with list indices dropped
(``drifts.e3.value`` covers all three axes): the keys whose values are the
same bits in every record on one ``identical`` line, and for each other key
the largest absolute and relative change over the records.
``wall_seconds`` is ignored.  The exit status is 0 when every record is
identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import make_workload  # noqa: E402

_BOX = {"x_lo": 0, "x_hi": 2, "y_lo": 0, "y_hi": 4, "z_lo": 0, "z_hi": 3}
_SMALL = {
    "case": "standing", "n_x": 8, "n_y": 10, "n_z": 12,
    "k_x": 1, "k_y": 1, "k_z": -2, "eps": 0.5, **_BOX,
}
_IGNORED = {"wall_seconds"}


def configs(small: bool) -> list[tuple[str, dict, list[str]]]:
    """``(label, config, flags)`` for each comparison, in order."""
    out = [
        ("run box-8x10x12", {**_SMALL, "t_end": [0.7, -13.1, 2900.0]}, ["run"]),
        ("drift box-8x10x12", _SMALL, ["drift", "--t-max", "2500.5", "--samples", "4"]),
    ]
    if not small:
        for name in ("table-n32", "drift-aniso", "propagate-n128"):
            for seed in (1, 2):
                wl = make_workload(name, seed)
                out.append((f"{name} seed {seed}", wl.config, [wl.command, *wl.flags]))
    return out


def old_package(old: str, scratch: Path) -> Path:
    """The directory holding ``OLD``'s ``psmaxwell``: given, or exported from git."""
    if Path(old, "psmaxwell").is_dir():
        return Path(old).resolve()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", old, "src"],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(scratch)], input=archive, check=True)
    return scratch / "src"


def run_both(packages: list[Path], config: dict, flags: list[str], scratch: Path) -> list:
    """Each package's records for one config, from processes run side by side."""
    path = scratch / "config.json"
    path.write_text(json.dumps(config))
    procs = []
    for i, package in enumerate(packages):
        env = {**os.environ, "PYTHONPATH": str(package), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "psmaxwell.cli", flags[0], "--config", str(path),
                *flags[1:], "--out", str(scratch / f"records{i}.json")]
        procs.append(subprocess.Popen(argv, cwd=scratch, env=env, stderr=subprocess.PIPE))
    records = []
    for i, proc in enumerate(procs):
        _, err = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"{packages[i]}: exit {proc.returncode}\n{err.decode()}")
        records.append(json.loads((scratch / f"records{i}.json").read_text()))
    return records


def flatten(value, key: str = ""):
    """``(key, leaf)`` pairs of a record, list indices dropped from the keys."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from flatten(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for item in value:
            yield from flatten(item, key)
    else:
        yield key, value


def compare(old: list, new: list) -> dict[str, tuple[float, float] | None]:
    """Per key, ``None`` when every value has the same bits, else the largest
    absolute and relative change (``nan`` for a value that is not a number)."""
    changes: dict[str, tuple[float, float] | None] = {}
    if len(old) != len(new):
        return {"record count": (math.nan, math.nan)}
    for a, b in zip(old, new):
        pairs_a, pairs_b = list(flatten(a)), list(flatten(b))
        if [k for k, _ in pairs_a] != [k for k, _ in pairs_b]:
            changes["keys"] = (math.nan, math.nan)
            continue
        for (key, x), (_, y) in zip(pairs_a, pairs_b):
            if key.split(".")[-1] in _IGNORED:
                continue
            changes.setdefault(key, None)
            if repr(x) == repr(y):
                continue
            numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
            delta = abs(x - y) if numbers else math.nan
            rel = delta / max(abs(x), abs(y)) if numbers else math.nan
            worst = changes[key] or (0.0, 0.0)
            changes[key] = (max(worst[0], delta), max(worst[1], rel))
    return changes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="git revision, or a directory holding psmaxwell")
    parser.add_argument("--small", action="store_true", help="only the two 8x10x12 configs")
    args = parser.parse_args(argv)
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        packages = [old_package(args.old, scratch), ROOT / "src"]
        for label, config, flags in configs(args.small):
            changes = compare(*run_both(packages, config, flags, scratch))
            same = [key for key, change in changes.items() if change is None]
            print(f"{label}:")
            if same:
                print(f"  identical: {', '.join(same)}")
            for key, change in changes.items():
                if change is not None:
                    print(f"  {key}: max abs {change[0]:.2g}, max rel {change[1]:.2g}")
            differing += len(same) < len(changes)
    total = len(configs(args.small))
    print(f"summary: {total - differing} of {total} configs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
