"""Experiment runner: error tables, invariant drifts, and convergence sweeps.

Subcommands:

- ``run``: propagate an analytic case to one or more target times and emit
  one record per time with solution errors, invariant drifts, divergence
  norms, and the wall-clock cost of the propagation call.
- ``drift``: sample invariant drifts at many times across a long interval,
  each reached by a single propagator application from the initial state.
- ``convergence``: repeat a run over a list of resolutions; the analytic
  cases are band-limited, so errors sit at the roundoff floor for every
  resolving grid rather than decaying algebraically.

Configuration comes from a JSON file plus flag overrides; unknown config
fields are rejected.  Exit codes: 0 success, 2 configuration error,
3 numerical-flag error (non-finite fields or excess imaginary residue).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticCase, StandingWave, TravelingWave, sample_initial
from .diagnostics import (
    DriftValue,
    InvariantDrifts,
    InvariantReport,
    error_norms,
    invariant_report,
    relative_change,
)
from .grid import DomainSpec, build_grid
from .propagator import MediumParams, propagate
from .spectral import ImaginaryResidueError

__all__ = ["RunConfig", "main", "run_records", "drift_records", "convergence_records"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DEFAULT_T_END = (1.0, 5.0, 10.0, 15.0, 20.0)

_CONFIG_FIELDS = {
    "case",
    "x_lo", "x_hi", "y_lo", "y_hi", "z_lo", "z_hi",
    "n_x", "n_y", "n_z",
    "mu", "eps",
    "k_x", "k_y", "k_z",
    "t_end",
    "report_axis",
}

_DOMAIN_FIELDS = ("x_lo", "x_hi", "y_lo", "y_hi", "z_lo", "z_hi")


class ConfigError(ValueError):
    """A run configuration failed validation."""


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration."""

    case: str
    n_x: int = 8
    n_y: int = 8
    n_z: int = 8
    mu: float = 1.0
    eps: float = 1.0
    k_x: int = 1
    k_y: int = 2
    k_z: int = -3
    t_end: tuple[float, ...] = DEFAULT_T_END
    report_axis: int = 1
    domain: DomainSpec | None = None

    def __post_init__(self) -> None:
        if self.case not in ("standing", "traveling"):
            raise ConfigError(f"case must be 'standing' or 'traveling', got {self.case!r}")
        for name in ("n_x", "n_y", "n_z"):
            n = getattr(self, name)
            if not isinstance(n, int) or n < 2 or n % 2 != 0:
                raise ConfigError(f"{name} must be an even integer >= 2, got {n!r}")
        if self.report_axis not in (1, 2, 3):
            raise ConfigError(f"report_axis must be 1, 2 or 3, got {self.report_axis!r}")
        if not self.t_end:
            raise ConfigError("t_end must contain at least one time")
        for t in self.t_end:
            if not np.isfinite(t):
                raise ConfigError(f"t_end entries must be finite, got {t!r}")

    def build_case(self) -> AnalyticCase:
        medium = MediumParams(mu=self.mu, eps=self.eps)
        try:
            if self.case == "standing":
                return StandingWave(self.k_x, self.k_y, self.k_z, medium)
            return TravelingWave(medium)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_grid(self, n: tuple[int, int, int] | None = None):
        case = self.build_case()
        domain = self.domain if self.domain is not None else case.default_domain
        nx, ny, nz = n if n is not None else (self.n_x, self.n_y, self.n_z)
        try:
            return build_grid(domain, nx, ny, nz)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_mapping(cls, raw: dict) -> "RunConfig":
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "case" not in raw:
            raise ConfigError("config must specify 'case'")
        if raw["case"] == "traveling":
            for name in ("k_x", "k_y", "k_z"):
                if name in raw:
                    raise ConfigError(f"{name} is only meaningful for the standing case")
        domain_given = [name for name in _DOMAIN_FIELDS if name in raw]
        domain = None
        if domain_given:
            missing = [name for name in _DOMAIN_FIELDS if name not in raw]
            if missing:
                raise ConfigError(f"incomplete domain bounds: missing {missing}")
            try:
                domain = DomainSpec(*(float(raw[name]) for name in _DOMAIN_FIELDS))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        t_end = raw.get("t_end", DEFAULT_T_END)
        if isinstance(t_end, (int, float)):
            t_end = (float(t_end),)
        else:
            try:
                t_end = tuple(float(t) for t in t_end)
            except (TypeError, ValueError) as exc:
                raise ConfigError("t_end must be a number or list of numbers") from exc
        kwargs = {}
        for name in ("n_x", "n_y", "n_z", "k_x", "k_y", "k_z", "report_axis"):
            if name in raw:
                value = raw[name]
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ConfigError(f"{name} must be an integer, got {value!r}")
                kwargs[name] = value
        for name in ("mu", "eps"):
            if name in raw:
                kwargs[name] = float(raw[name])
        return cls(case=raw["case"], t_end=t_end, domain=domain, **kwargs)


def _load_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
    if args.case is not None:
        raw["case"] = args.case
    if "case" not in raw:
        raise ConfigError("no case selected: pass --config or --case")
    if getattr(args, "n", None) is not None:
        raw["n_x"] = raw["n_y"] = raw["n_z"] = args.n
    if getattr(args, "t_end", None) is not None:
        raw["t_end"] = args.t_end
    return RunConfig.from_mapping(raw)


def _sig16(value: float) -> float:
    """Round-trip a float through 16 significant digits for stable output."""
    return float(f"{value:.16g}")


def _drift_dict(d: DriftValue) -> dict:
    return {"value": _sig16(d.value), "absolute": d.absolute}


def _report_dict(rep: InvariantReport) -> dict:
    return {
        "time": _sig16(rep.time),
        "e1": _sig16(rep.e1),
        "e2": _sig16(rep.e2),
        "e3": [_sig16(v) for v in rep.e3],
        "e4": [_sig16(v) for v in rep.e4],
        "e5": [_sig16(v) for v in rep.e5],
        "e6": [_sig16(v) for v in rep.e6],
        "h1": _sig16(rep.h1),
        "h2": _sig16(rep.h2),
        "m1": [_sig16(v) for v in rep.m1],
        "m2": [_sig16(v) for v in rep.m2],
        "div_e": _sig16(rep.div_e_norm),
        "div_h": _sig16(rep.div_h_norm),
    }


def _drifts_dict(d: InvariantDrifts) -> dict:
    out: dict = {}
    for name in ("e1", "e2", "h1", "h2"):
        out[name] = _drift_dict(getattr(d, name))
    for name in ("e3", "e4", "e5", "e6", "m1", "m2"):
        out[name] = [_drift_dict(v) for v in getattr(d, name)]
    return out


def run_records(config: RunConfig) -> list[dict]:
    """One record per configured t_end."""
    case = config.build_case()
    grid = config.build_grid()
    try:
        initial = sample_initial(case, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    before = invariant_report(initial)
    axis = config.report_axis - 1
    records = []
    for t_end in config.t_end:
        start = time.perf_counter()
        final = propagate(initial, t_end)
        wall_seconds = time.perf_counter() - start
        after = invariant_report(final)
        drifts = relative_change(before, after)
        errors = error_norms(final, case)
        records.append(
            {
                "case": config.case,
                "nx": grid.n_x,
                "ny": grid.n_y,
                "nz": grid.n_z,
                "t_end": _sig16(t_end),
                "report_axis": config.report_axis,
                "l2": _sig16(errors.l2),
                "linf": _sig16(errors.linf),
                "component_linf": [_sig16(v) for v in errors.component_linf],
                "wall_seconds": _sig16(wall_seconds),
                "invariants_initial": _report_dict(before),
                "invariants_final": _report_dict(after),
                "drifts": _drifts_dict(drifts),
                "div_e": _sig16(after.div_e_norm),
                "div_h": _sig16(after.div_h_norm),
                "imag_residue": _sig16(final.imag_residue),
                "axis_drifts_reported": {
                    "re_m1": _drift_dict(drifts.m1[axis]),
                    "re_m2": _drift_dict(drifts.m2[axis]),
                    "re_e3": _drift_dict(drifts.e3[axis]),
                    "re_e4": _drift_dict(drifts.e4[axis]),
                },
            }
        )
    return records


CSV_COLUMNS = (
    "case,nx,ny,nz,t_end,l2,linf,"
    "re_e1,re_e2,re_e3,re_e4,re_e5,re_e6,"
    "re_h1,re_h2,re_m1,re_m2,div_e,div_h,wall_seconds"
)


def records_to_csv(records: list[dict]) -> str:
    """Flatten run records to the fixed CSV schema (report_axis picks tuples)."""
    lines = [CSV_COLUMNS]
    for rec in records:
        axis = rec.get("report_axis", 1) - 1
        d = rec["drifts"]

        def dv(name: str) -> float:
            entry = d[name]
            if isinstance(entry, list):
                entry = entry[axis]
            return entry["value"]

        values = [
            rec["case"],
            str(rec["nx"]),
            str(rec["ny"]),
            str(rec["nz"]),
            f"{rec['t_end']:.16g}",
            f"{rec['l2']:.16g}",
            f"{rec['linf']:.16g}",
        ]
        values += [
            f"{dv(name):.16g}"
            for name in ("e1", "e2", "e3", "e4", "e5", "e6", "h1", "h2", "m1", "m2")
        ]
        values += [
            f"{rec['div_e']:.16g}",
            f"{rec['div_h']:.16g}",
            f"{rec['wall_seconds']:.16g}",
        ]
        lines.append(",".join(values))
    return "\n".join(lines) + "\n"


def drift_records(config: RunConfig, t_max: float, samples: int) -> list[dict]:
    """Energy drifts at ``samples`` times ``i*t_max/samples``, i = 1..samples."""
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    if not np.isfinite(t_max):
        raise ConfigError(f"t_max must be finite, got {t_max}")
    case = config.build_case()
    grid = config.build_grid()
    try:
        initial = sample_initial(case, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    before = invariant_report(initial)
    records = []
    for i in range(1, samples + 1):
        t_i = t_max * i / samples
        final = propagate(initial, t_i)
        after = invariant_report(final)
        d = relative_change(before, after)
        records.append(
            {
                "t": _sig16(t_i),
                "re_e1": _drift_dict(d.e1),
                "re_e2": _drift_dict(d.e2),
                "re_e3": [_drift_dict(v) for v in d.e3],
                "re_e4": [_drift_dict(v) for v in d.e4],
                "re_e5": [_drift_dict(v) for v in d.e5],
                "re_e6": [_drift_dict(v) for v in d.e6],
            }
        )
    return records


def convergence_records(config: RunConfig, n_list: list[int]) -> list[dict]:
    """Solution errors per resolution; band-limited cases sit at roundoff."""
    if not n_list:
        raise ConfigError("n-list must contain at least one resolution")
    case = config.build_case()
    note = (
        "analytic cases are band-limited: errors sit at the roundoff floor "
        "for every resolving grid; no algebraic decay rate applies"
    )
    records = []
    for n in n_list:
        grid = config.build_grid((n, n, n))
        try:
            initial = sample_initial(case, grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for t_end in config.t_end:
            start = time.perf_counter()
            final = propagate(initial, t_end)
            wall_seconds = time.perf_counter() - start
            errors = error_norms(final, case)
            records.append(
                {
                    "case": config.case,
                    "n": n,
                    "t_end": _sig16(t_end),
                    "l2": _sig16(errors.l2),
                    "linf": _sig16(errors.linf),
                    "wall_seconds": _sig16(wall_seconds),
                    "note": note,
                }
            )
    return records


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psmaxwell",
        description="Pseudospectral Maxwell solver: error tables and invariant drifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--case", choices=["standing", "traveling"], help="analytic case")
        p.add_argument("--n", type=int, help="grid points per axis (overrides config)")
        p.add_argument("--out", help="output file (default: stdout)")

    p_run = sub.add_parser("run", help="error and conservation tables")
    add_common(p_run)
    p_run.add_argument("--t-end", type=_float_list, help="comma-separated target times")
    p_run.add_argument("--csv", action="store_true", help="emit the fixed CSV schema")

    p_drift = sub.add_parser("drift", help="long-time invariant drift series")
    add_common(p_drift)
    p_drift.add_argument("--t-max", type=float, required=True, help="end of the interval")
    p_drift.add_argument("--samples", type=int, required=True, help="number of samples")

    p_conv = sub.add_parser("convergence", help="errors across resolutions")
    add_common(p_conv)
    p_conv.add_argument("--t-end", type=_float_list, help="comma-separated target times")
    p_conv.add_argument("--n-list", type=_int_list, required=True,
                        help="comma-separated resolutions, e.g. 8,16,32")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "run":
            records = run_records(config)
            if args.csv:
                _emit(records_to_csv(records), args.out)
            else:
                _emit(json.dumps(records, indent=2), args.out)
        elif args.command == "drift":
            records = drift_records(config, args.t_max, args.samples)
            _emit(json.dumps(records, indent=2), args.out)
        else:
            records = convergence_records(config, args.n_list)
            _emit(json.dumps(records, indent=2), args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ImaginaryResidueError as exc:
        print(f"numerical flag: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
