"""Seeded workload inputs and the correctness check of their outputs.

Each workload turns a seed into one CLI invocation: a config JSON (the only
thing the program sees of the seed) plus the subcommand flags that have no
config field.  The propagation cost does not depend on ``t`` (there is no CFL
limit) or on the standing-wave ``k``, so the seed changes the inputs but not
the amount of work.

The checker holds every record to the acceptance suite's pinned tolerances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

T_MAX = 1e4
K_MAX = 7  # |k_i| <= 7 is resolved by every axis used here (n >= 2|k| + 2 with n >= 16)

# Pinned tolerances of the acceptance suite (tests/test_acceptance.py).
LINF_TOL = 1e-8  # criterion 2
ENERGY_DRIFT_TOL = 1e-12  # criterion 6, applied to E1..E4
DIV_TOL = 1e-12  # criterion 5
HELICITY_TOL = 1e-10  # criterion 4

# FFTs per call at the seed: 42 forward + 98 inverse per invariant_report,
# 6 + 6 per propagate.
FFTS_PER_REPORT = 140
FFTS_PER_PROPAGATE = 12


@dataclass(frozen=True)
class Workload:
    """One generated CLI invocation and what its output must look like."""

    name: str
    seed: int
    command: str  # run | drift | convergence
    config: dict
    flags: tuple[str, ...]  # subcommand flags without a config field
    case: str
    k: tuple[int, int, int] | None
    grid: tuple[int, int, int]  # (n_x, n_y, n_z)
    times: tuple[float, ...]  # expected per-record target time, in order
    reports: int  # invariant_report calls per invocation
    propagates: int  # propagate calls per invocation

    @property
    def n_total(self) -> int:
        return self.grid[0] * self.grid[1] * self.grid[2]

    @property
    def state_bytes(self) -> int:
        """Size of the six real float64 field components."""
        return 6 * 8 * self.n_total

    @property
    def expected_fft_calls(self) -> int:
        return FFTS_PER_REPORT * self.reports + FFTS_PER_PROPAGATE * self.propagates

    def argv(self, config_path: str, out_path: str) -> list[str]:
        return [self.command, "--config", config_path, *self.flags, "--out", out_path]

    def describe(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "command": self.command,
            "config": self.config,
            "flags": list(self.flags),
            "grid": list(self.grid),
            "state_bytes": self.state_bytes,
            "records": len(self.times),
            "expected_fft_calls": self.expected_fft_calls,
        }


def _draw_k(rng: random.Random) -> tuple[int, int, int]:
    """Integer standing-wave vector with sum 0 and every |k_i| <= K_MAX."""
    while True:
        kx = rng.randint(-K_MAX, K_MAX)
        ky = rng.randint(-K_MAX, K_MAX)
        kz = -(kx + ky)
        if abs(kz) <= K_MAX and (kx, ky, kz) != (0, 0, 0):
            return kx, ky, kz


def _draw_t(rng: random.Random) -> float:
    """Uniform in (0, T_MAX]."""
    return T_MAX * (1.0 - rng.random())


def _standing_config(k: tuple[int, int, int], grid: tuple[int, int, int]) -> dict:
    return {
        "case": "standing",
        "n_x": grid[0], "n_y": grid[1], "n_z": grid[2],
        "k_x": k[0], "k_y": k[1], "k_z": k[2],
    }


def _table_n32(seed: int, rng: random.Random) -> Workload:
    grid = (32, 32, 32)
    k = _draw_k(rng)
    times = tuple(_draw_t(rng) for _ in range(8))
    config = {**_standing_config(k, grid), "t_end": list(times)}
    return Workload("table-n32", seed, "run", config, (), "standing", k, grid,
                    times, reports=1 + len(times), propagates=len(times))


def _drift_aniso(seed: int, rng: random.Random) -> Workload:
    grid = (32, 24, 16)
    k = _draw_k(rng)
    t_max = rng.uniform(5e3, T_MAX)
    samples = 100
    times = tuple(t_max * i / samples for i in range(1, samples + 1))
    flags = ("--t-max", repr(t_max), "--samples", str(samples))
    return Workload("drift-aniso", seed, "drift", _standing_config(k, grid), flags,
                    "standing", k, grid, times, reports=1 + samples, propagates=samples)


def _propagate_n128(seed: int, rng: random.Random) -> Workload:
    n = 128
    times = tuple(_draw_t(rng) for _ in range(3))
    config = {"case": "traveling", "t_end": list(times)}
    return Workload("propagate-n128", seed, "convergence", config, ("--n-list", str(n)),
                    "traveling", None, (n, n, n), times, reports=0, propagates=len(times))


GENERATORS = {
    "table-n32": _table_n32,
    "drift-aniso": _drift_aniso,
    "propagate-n128": _propagate_n128,
}


def make_workload(name: str, seed: int) -> Workload:
    """The same (name, seed) always yields the same inputs."""
    return GENERATORS[name](seed, random.Random(f"{name}:{seed}"))


# --- correctness ----------------------------------------------------------


def _numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield float(value)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)


def _drift_values(entry) -> list[float]:
    entries = entry if isinstance(entry, list) else [entry]
    return [e["value"] for e in entries]


def _record_problems(wl: Workload, rec: dict, t_expected: float) -> list[str]:
    problems = []
    if not all(math.isfinite(v) for v in _numbers(rec)):
        problems.append("non-finite value")
    t_key = "t" if wl.command == "drift" else "t_end"
    if not math.isclose(rec[t_key], t_expected, rel_tol=1e-12):
        problems.append(f"{t_key}={rec[t_key]!r}, expected {t_expected!r}")

    def bound(label: str, value: float, tol: float) -> None:
        if not value <= tol:
            problems.append(f"{label}={value:.3e} > {tol:.0e}")

    if wl.command == "run":
        bound("linf", rec["linf"], LINF_TOL)
        for name in ("e1", "e2", "e3", "e4"):
            for v in _drift_values(rec["drifts"][name]):
                bound(f"drift {name}", v, ENERGY_DRIFT_TOL)
        for name in ("h1", "h2"):
            bound(f"drift {name}", rec["drifts"][name]["value"], HELICITY_TOL)
        bound("div_e", rec["div_e"], DIV_TOL)
        bound("div_h", rec["div_h"], DIV_TOL)
        if (rec["nx"], rec["ny"], rec["nz"]) != wl.grid:
            problems.append(f"grid {(rec['nx'], rec['ny'], rec['nz'])} != {wl.grid}")
    elif wl.command == "drift":
        for name in ("re_e1", "re_e2", "re_e3", "re_e4"):
            for v in _drift_values(rec[name]):
                bound(name, v, ENERGY_DRIFT_TOL)
    else:
        bound("linf", rec["linf"], LINF_TOL)
        if rec["n"] != wl.grid[0]:
            problems.append(f"n={rec['n']} != {wl.grid[0]}")
    return problems


def check_records(wl: Workload, returncode: int, records) -> tuple[int, list[str]]:
    """Number of failed records (of ``len(wl.times)``) and why they failed.

    A non-zero exit, an unreadable output or a wrong record count fails
    every record of the invocation.
    """
    expected = len(wl.times)
    if returncode != 0:
        return expected, [f"exit code {returncode}"]
    if not isinstance(records, list) or len(records) != expected:
        got = len(records) if isinstance(records, list) else type(records).__name__
        return expected, [f"expected {expected} records, got {got}"]
    failed, problems = 0, []
    for i, (rec, t) in enumerate(zip(records, wl.times)):
        try:
            found = _record_problems(wl, rec, t)
        except (KeyError, TypeError, IndexError) as exc:
            found = [f"malformed record: {exc!r}"]
        if found:
            failed += 1
            problems.append(f"record {i}: " + "; ".join(found))
    return failed, problems


def record_extremes(wl: Workload, records: list[dict]) -> dict:
    """Largest solution error, energy drift and divergence present in the records."""
    out = {}
    if wl.command in ("run", "convergence"):
        out["diagnostics.max_linf"] = max(r["linf"] for r in records)
    if wl.command == "run":
        out["diagnostics.max_energy_drift"] = max(
            v for r in records for n in ("e1", "e2", "e3", "e4")
            for v in _drift_values(r["drifts"][n]))
        out["diagnostics.max_div"] = max(max(r["div_e"], r["div_h"]) for r in records)
    elif wl.command == "drift":
        out["diagnostics.max_energy_drift"] = max(
            v for r in records for n in ("re_e1", "re_e2", "re_e3", "re_e4")
            for v in _drift_values(r[n]))
    return out
