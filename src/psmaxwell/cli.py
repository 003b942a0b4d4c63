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

Each command forward-transforms its initial state once per grid and hands
that spectrum to :func:`psmaxwell.propagator.propagate` for every target
time, which returns the stepped spectrum.  ``run`` and ``drift`` measure
a record's invariants on that spectrum itself, without transforming it
back and forth.
``run`` and ``convergence`` then transform it back with
:func:`psmaxwell.propagator.to_physical` for the solution errors; a
record's ``wall_seconds`` covers the coefficients, the flow, the
Hermitian-plane check and the inverse transform, not the initial transform,
the invariants or the errors.  ``drift`` makes no six-field inverse
transform.  Each record is built by its own helper, so a record's states
are freed before the next time is reached.  A record's invariants and
drifts are written field by field from
:class:`~psmaxwell.diagnostics.InvariantReport` and
:class:`~psmaxwell.diagnostics.InvariantDrifts`, in their declared order,
so those two classes alone list the invariants; floats are written to 16
significant digits.

Configuration comes from a JSON file plus flag overrides; unknown config
fields are rejected.  Exit codes: 0 success, 2 configuration error,
3 numerical-flag error (non-finite fields or excess imaginary residue).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .analytic import AnalyticCase, StandingWave, TravelingWave, sample_initial
from .diagnostics import InvariantReport, error_norms, invariant_report, relative_change
from .grid import DomainSpec, build_grid
from . import propagator
from .propagator import FieldState, MediumParams, propagate, to_spectral
from .spectral import ImaginaryResidueError

__all__ = ["RunConfig", "main", "run_records", "drift_records", "convergence_records"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DEFAULT_T_END = (1.0, 5.0, 10.0, 15.0, 20.0)

_CASES = ("standing", "traveling")

_DOMAIN_FIELDS = tuple(f.name for f in fields(DomainSpec))


class ConfigError(ValueError):
    """A run configuration failed validation."""


def _number(name: str, value) -> float:
    """A real-valued config field as a float; bool, str, None and the like are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} is out of the float range, got {value!r}") from exc


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
        if self.case not in _CASES:
            raise ConfigError(f"case must be {' or '.join(map(repr, _CASES))}, got {self.case!r}")
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
        try:
            medium = MediumParams(mu=self.mu, eps=self.eps)
            if self.case == "standing":
                return StandingWave(self.k_x, self.k_y, self.k_z, medium)
            return TravelingWave(medium)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_mapping(cls, raw: dict) -> "RunConfig":
        keys = {f.name for f in fields(cls) if f.name != "domain"}
        unknown = set(raw) - keys - set(_DOMAIN_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "case" not in raw:
            raise ConfigError("config must specify 'case'")
        if raw["case"] == "traveling":
            for name in ("k_x", "k_y", "k_z"):
                if name in raw:
                    raise ConfigError(f"{name} is only meaningful for the standing case")
        domain = None
        if any(name in raw for name in _DOMAIN_FIELDS):
            missing = [name for name in _DOMAIN_FIELDS if name not in raw]
            if missing:
                raise ConfigError(f"incomplete domain bounds: missing {missing}")
            try:
                domain = DomainSpec(*(_number(name, raw[name]) for name in _DOMAIN_FIELDS))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        t_end = raw.get("t_end", DEFAULT_T_END)
        if isinstance(t_end, (list, tuple)):
            t_end = tuple(_number("t_end", t) for t in t_end)
        else:
            t_end = (_number("t_end", t_end),)
        kwargs = {}
        for name in ("n_x", "n_y", "n_z", "k_x", "k_y", "k_z", "report_axis"):
            if name in raw:
                value = raw[name]
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ConfigError(f"{name} must be an integer, got {value!r}")
                kwargs[name] = value
        for name in ("mu", "eps"):
            if name in raw:
                kwargs[name] = _number(name, raw[name])
        return cls(case=raw["case"], t_end=t_end, domain=domain, **kwargs)


def _load_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "rb") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


def _json(value):
    """A report, a drift or one of their values as JSON data.

    A dataclass becomes a dict in field order, with ``div_e_norm`` and
    ``div_h_norm`` keyed ``div_e`` and ``div_h``; a tuple becomes a list, a
    bool stays as it is and a number becomes its :func:`_sig16` float.
    """
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if is_dataclass(value):
        return {
            f.name.removesuffix("_norm"): _json(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, bool):
        return value
    return _sig16(value)


def _initial_state(
    config: RunConfig, case: AnalyticCase, counts: tuple[int, int, int]
) -> FieldState:
    """The case sampled at t = 0 on the configured domain with ``counts`` points."""
    domain = config.domain if config.domain is not None else case.default_domain
    try:
        return sample_initial(case, build_grid(domain, *counts))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _start(config: RunConfig) -> tuple[AnalyticCase, FieldState, InvariantReport]:
    """The case, its initial spectrum on the configured grid and that spectrum's report."""
    case = config.build_case()
    initial = to_spectral(
        _initial_state(config, case, (config.n_x, config.n_y, config.n_z))
    )
    return case, initial, invariant_report(initial)


def _timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the wall time of the call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def run_records(config: RunConfig) -> list[dict]:
    """One record per configured t_end, all reached from one initial spectrum."""
    case, initial, before = _start(config)
    return [_run_record(config, case, initial, before, t_end) for t_end in config.t_end]


def _run_record(
    config: RunConfig,
    case: AnalyticCase,
    initial: FieldState,
    before: InvariantReport,
    t_end: float,
) -> dict:
    stepped, step_seconds = _timed(propagate, initial, t_end)
    after = invariant_report(stepped)
    # Called through the module: the benchmark's tracer binds
    # psmaxwell.propagator.to_physical, so a name imported here would be untraced.
    final, inverse_seconds = _timed(propagator.to_physical, stepped, overwrite=True)
    errors = error_norms(final, case)
    drifts = relative_change(before, after)
    axis = config.report_axis - 1
    return {
        "case": config.case,
        "nx": initial.grid.n_x,
        "ny": initial.grid.n_y,
        "nz": initial.grid.n_z,
        "t_end": _sig16(t_end),
        "report_axis": config.report_axis,
        "l2": _sig16(errors.l2),
        "linf": _sig16(errors.linf),
        "component_linf": _json(errors.component_linf),
        "wall_seconds": _sig16(step_seconds + inverse_seconds),
        "invariants_initial": _json(before),
        "invariants_final": _json(after),
        "drifts": _json(drifts),
        "div_e": _sig16(after.div_e_norm),
        "div_h": _sig16(after.div_h_norm),
        "imag_residue": _sig16(final.imag_residue),
        "axis_drifts_reported": {
            f"re_{name}": _json(getattr(drifts, name)[axis])
            for name in ("m1", "m2", "e3", "e4")
        },
    }


CSV_COLUMNS = (
    "case,nx,ny,nz,t_end,l2,linf,"
    "re_e1,re_e2,re_e3,re_e4,re_e5,re_e6,"
    "re_h1,re_h2,re_m1,re_m2,div_e,div_h,wall_seconds"
)


def records_to_csv(records: list[dict]) -> str:
    """Flatten run records to the fixed CSV schema (report_axis picks tuples).

    Each column is the record's field of that name; a ``re_*`` column is the
    value of the drift it names, taken at ``report_axis`` for a per-axis one.
    """
    lines = [CSV_COLUMNS]
    for rec in records:
        axis = rec.get("report_axis", 1) - 1

        def cell(column: str) -> str:
            if column.startswith("re_"):
                entry = rec["drifts"][column.removeprefix("re_")]
                value = (entry[axis] if isinstance(entry, list) else entry)["value"]
            else:
                value = rec[column]
            return value if isinstance(value, str) else f"{value:.16g}"

        lines.append(",".join(map(cell, CSV_COLUMNS.split(","))))
    return "\n".join(lines) + "\n"


def drift_records(config: RunConfig, t_max: float, samples: int) -> list[dict]:
    """Energy drifts at ``samples`` times ``i*t_max/samples``, i = 1..samples."""
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    if not np.isfinite(t_max):
        raise ConfigError(f"t_max must be finite, got {t_max}")
    _, initial, before = _start(config)
    return [
        _drift_record(initial, before, t_max * i / samples)
        for i in range(1, samples + 1)
    ]


def _drift_record(initial: FieldState, before: InvariantReport, t: float) -> dict:
    d = relative_change(before, invariant_report(propagate(initial, t)))
    names = ("e1", "e2", "e3", "e4", "e5", "e6")
    return {"t": _sig16(t)} | {f"re_{name}": _json(getattr(d, name)) for name in names}


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
        initial = to_spectral(_initial_state(config, case, (n, n, n)))
        records += [
            _convergence_record(config, case, initial, t_end, note)
            for t_end in config.t_end
        ]
    return records


def _convergence_record(
    config: RunConfig, case: AnalyticCase, initial: FieldState, t_end: float, note: str
) -> dict:
    stepped, step_seconds = _timed(propagate, initial, t_end)
    final, inverse_seconds = _timed(propagator.to_physical, stepped, overwrite=True)
    errors = error_norms(final, case)
    return {
        "case": config.case,
        "n": initial.grid.n_x,
        "t_end": _sig16(t_end),
        "l2": _sig16(errors.l2),
        "linf": _sig16(errors.linf),
        "wall_seconds": _sig16(step_seconds + inverse_seconds),
        "note": note,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc


def _list_of(kind, what: str):
    """An argparse type for comma-separated ``kind`` values, called ``what`` in errors."""

    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psmaxwell",
        description="Pseudospectral Maxwell solver: error tables and invariant drifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--case", choices=_CASES, help="analytic case")
        p.add_argument("--n", type=int, help="grid points per axis (overrides config)")
        p.add_argument("--out", help="output file (default: stdout)")

    times = {"type": _list_of(float, "numbers"), "help": "comma-separated target times"}

    p_run = sub.add_parser("run", help="error and conservation tables")
    add_common(p_run)
    p_run.add_argument("--t-end", **times)
    p_run.add_argument("--csv", action="store_true", help="emit the fixed CSV schema")

    p_drift = sub.add_parser("drift", help="long-time invariant drift series")
    add_common(p_drift)
    p_drift.add_argument("--t-max", type=float, required=True, help="end of the interval")
    p_drift.add_argument("--samples", type=int, required=True, help="number of samples")

    p_conv = sub.add_parser("convergence", help="errors across resolutions")
    add_common(p_conv)
    p_conv.add_argument("--t-end", **times)
    p_conv.add_argument("--n-list", type=_list_of(int, "integers"), required=True,
                        help="comma-separated resolutions, e.g. 8,16,32")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes "-1e5" or "-2.5,1" for an unknown option; no option
    # here starts with a digit, so such a word is the previous option's value.
    for i in range(len(argv) - 1, 0, -1):
        if re.match(r"-\.?\d", argv[i]) and argv[i - 1].startswith("--"):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "run":
            records = run_records(config)
        elif args.command == "drift":
            records = drift_records(config, args.t_max, args.samples)
        else:
            records = convergence_records(config, args.n_list)
        csv = getattr(args, "csv", False)
        _emit(records_to_csv(records) if csv else json.dumps(records, indent=2), args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ImaginaryResidueError as exc:
        print(f"numerical flag: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
