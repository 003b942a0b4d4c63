"""Benchmark of the psmaxwell command line, end to end and per layer.

    python3 perfbench/run.py --workload table-n32 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  The seed generates the workload's inputs (see ``workloads.py``);
the same seed gives the same inputs.  Each invocation runs in a fresh child
interpreter, one at a time (a closed loop with one client), because every
real ``psmaxwell`` call pays the import and cold-start costs.

``BENCHMARK.json`` lists ``table-n32`` and ``propagate-n128``.
``drift-aniso`` runs by name or in ``all`` but is not listed: its 4-9 s
invocations leave too few samples in one run for a steady figure on a
noisy shared host.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: import + ``build_grid`` + ``sample_initial`` in a fresh
  interpreter, median of several set-ups, at reference host speed;
- ``command_s``: wall time of one ``cli.main`` call, lower quartile over the
  run, at reference host speed;
- ``peak_rss_mib``: the child's ``ru_maxrss`` after the command, which also
  counts native FFT scratch buffers;
- ``ok_frac``: records that passed the correctness check / records
  attempted, i.e. ``1 - failed_frac``; it is reported this way round so that
  the metric is never 0.

The speed of a shared host swings for minutes at a time, which no
repetition inside one run removes.  So children that time fixed work
independent of the package run next to the measured ones: a numpy import in
a fresh interpreter before every set-up, and FFTs on the workload's grid
shape (``child.py calibrate``) before every invocation and after the last.
``setup_s`` is the median set-up scaled by the reference import time over
the median import.  ``command_s`` is the lower quartile of the invocations
scaled by the reference FFT time over the lower quartile of the calibration
FFTs: slowdowns only ever add time, and bursts of them come and go within
seconds, so the fast quarter of either is the steadiest.  Both are thus
seconds on a host where the calibrations take the reference times below.
The raw figures are printed and kept in the report.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics listed in ``PER_LAYER`` (see ``tracer.py``).  The untraced
ones give the CPU time.  The run fails if the tracer's own bookkeeping is
inconsistent.  The traced FFT count is compared with 140 per
``invariant_report`` plus 12 per ``propagate``; a mismatch is printed, not
failed, because later changes are meant to lower that count.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn, each ending with its own
JSON line.  The full report, with inputs, run metadata, every sample and the
spans, is written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from tracer import ROOT as ROOT_SPAN
from tracer import check_spans, span_names, summarize
from workloads import GENERATORS, Workload, check_records, make_workload, record_extremes

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT_DIR = CHECKOUT / ".perfbench_out"

SETUP_SAMPLES = 15
# A child that hangs is killed this long after the measuring window of its
# workload; it covers one more invocation and the remaining set-ups.
RUN_MARGIN_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIB = 1024 * 1024

# Metric names and units, as declared in BENCHMARK.json.  The per-layer ones
# are those every workload produces at the seed; function-level numbers that
# only some workloads reach (invariant_report, error_norms, ...) are in the
# printed table and the report.
_SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Calibration times (numpy import; FFTs) on the reference host: 2 vCPUs,
# 105 MiB L3, Python 3.11 with numpy 2.4.6; medians of 12 calibrations each.
REF_IMPORT_S = 0.065
REF_FFT_S = {"table-n32": 0.32, "drift-aniso": 0.27, "propagate-n128": 0.80}

# Computed (not measured) bytes one 3-D complex FFT moves: read and write
# n_total complex128 values.
FFT_BYTES_PER_POINT = 2 * 16
# Computed bytes one step moves: read 6 complex spectra and 9 real
# coefficient arrays (c11..c33, s12, s13, s23), write 6 complex spectra.
STEP_BYTES_PER_POINT = 6 * 16 + 9 * 8 + 6 * 16


def unit_of(name: str) -> str:
    """Unit of a row of the printed per-layer table."""
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith((".calls", "fft_calls", "ffts_per_record")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_gbs"):
        return "GB/s"
    return "1"


# --- environment ----------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def l3_bytes() -> int | None:
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": MIB}.get(size[-1], 1)
        return int(size.rstrip("KM")) * scale
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env.setdefault(var, str(nproc()))
    return env


def git_sha() -> str | None:
    if not (CHECKOUT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def package_version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def run_metadata(env: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "nproc": nproc(),
        "l3_bytes": l3_bytes(),
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
    }


# --- children -------------------------------------------------------------


class Runner:
    """Starts one child interpreter at a time and collects its result."""

    def __init__(self, tmp: Path, env: dict, seconds: float) -> None:
        self.tmp = tmp
        self.env = env
        self.count = 0
        self.kill_at = time.perf_counter() + seconds + RUN_MARGIN_S

    def child(self, mode: str, *args: str) -> tuple[dict | None, float, str]:
        """(result or None, parent-side wall seconds, stderr tail)."""
        self.count += 1
        result_path = self.tmp / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path), *args]
        start = time.perf_counter()
        timeout = self.kill_at - start
        if timeout <= 0:
            raise RuntimeError(f"run exceeded its window by {RUN_MARGIN_S} s")
        try:
            proc = subprocess.run(cmd, cwd=CHECKOUT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
            stderr, ok = proc.stderr, proc.returncode == 0
        except subprocess.TimeoutExpired:
            stderr, ok = f"timed out after {timeout:.0f} s", False
        wall = time.perf_counter() - start
        result = json.loads(result_path.read_text()) if ok and result_path.exists() else None
        return result, wall, stderr[-2000:]

    def setup(self, wl: Workload) -> dict:
        """One set-up, preceded by the numpy import that calibrates it."""
        calibration, _, stderr = self.child("numpy-import")
        if calibration is None:
            raise RuntimeError(f"import calibration child failed:\n{stderr}")
        k = [str(v) for v in wl.k] if wl.k else []
        result, _, stderr = self.child("setup", wl.case, *map(str, wl.grid), *k)
        if result is None:
            raise RuntimeError(f"set-up child failed:\n{stderr}")
        if result["state_bytes"] != wl.state_bytes:
            raise RuntimeError(f"state is {result['state_bytes']} B, expected {wl.state_bytes}")
        return {"setup_s": result["setup_s"], "import_s": calibration["import_s"]}

    def calibrate(self, wl: Workload) -> float:
        result, _, stderr = self.child("calibrate", *map(str, wl.grid))
        if result is None:
            raise RuntimeError(f"calibration child failed:\n{stderr}")
        return result["fft_s"]

    def command(self, wl: Workload, trace: bool) -> dict:
        """One invocation, checked; the returned sample always has a time."""
        config_path = self.tmp / "config.json"
        config_path.write_text(json.dumps(wl.config))
        out_path = self.tmp / "records.json"
        out_path.unlink(missing_ok=True)
        argv = wl.argv(str(config_path), str(out_path))
        result, wall, stderr = self.child("command", "1" if trace else "0", json.dumps(argv))
        records = None
        if result is None:
            returncode = -1
        else:
            returncode = result["returncode"]
            if out_path.exists():
                records = json.loads(out_path.read_text())
        failed, problems = check_records(wl, returncode, records)
        if result is None:
            problems.append(f"child failed:\n{stderr}")
        sample = {
            "trace": trace,
            "command_s": result["command_s"] if result else wall,
            "attempted": len(wl.times),
            "failed": failed,
            "problems": problems[:5],
            "extremes": record_extremes(wl, records) if failed == 0 else {},
        }
        if result:
            sample.update(cpu_s=result["cpu_s"], peak_rss_mib=result["maxrss_kib"] / 1024)
            for key in ("spans", "max_imag_residue", "tracemalloc_peak_bytes", "unbound",
                        "wrapper_cost_s"):
                if key in result:
                    sample[key] = result[key]
        return sample


# --- metrics --------------------------------------------------------------


def layer_table(wl: Workload, sample: dict, copy_bw_gbs: float) -> tuple[dict, list[str]]:
    """Per-layer numbers of one traced invocation, and the never-called spans."""
    summary = summarize(sample["spans"])
    table: dict[str, float] = {}
    for name, entry in summary.items():
        if name == ROOT_SPAN:
            table["cli.self_s"] = entry["self_s"]
            continue
        for key in ("calls", "self_s", "total_s"):
            table[f"{name}.{key}"] = entry[key]
    absent = [name for name in span_names() if name not in summary]
    diag = [e["self_s"] for n, e in summary.items() if n.startswith("diagnostics.")]
    if diag:
        table["diagnostics.self_s"] = sum(diag)
    ffts = [summary[n]["calls"] for n in ("spectral.dft3_forward", "spectral.dft3_inverse")
            if n in summary]
    if ffts:
        table["spectral.fft_calls"] = sum(ffts)
        table["spectral.ffts_per_record"] = sum(ffts) / len(wl.times)
        table["spectral.fft_bytes_computed"] = sum(ffts) * FFT_BYTES_PER_POINT * wl.n_total
    if "propagator.step" in summary:
        step = summary["propagator.step"]
        step_bytes = step["calls"] * STEP_BYTES_PER_POINT * wl.n_total
        table["propagator.step.bytes_computed"] = step_bytes
        table["propagator.step.bw_frac"] = step_bytes / step["self_s"] / (copy_bw_gbs * 1e9)
    if sample.get("max_imag_residue") is not None:
        table["spectral.max_imag_residue"] = sample["max_imag_residue"]
    for name, peak in sample["tracemalloc_peak_bytes"].items():
        table[f"{name}.tracemalloc_peak_mib"] = peak / MIB
    table["host.copy_bw_gbs"] = copy_bw_gbs
    return table, absent


def median_table(tables: list[dict]) -> dict:
    names = sorted(set().union(*tables))
    return {n: statistics.median(t[n] for t in tables if n in t) for n in names}


def measure(wl: Workload, runner: Runner, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + seconds
    report: dict = {"samples": [], "setups": [], "calibration_fft_s": []}
    if trace:
        l3 = l3_bytes()
        array_bytes = max(4 * (l3 or 0), 128 * MIB)
        result, _, stderr = runner.child("copybw", str(array_bytes))
        if result is None:
            raise RuntimeError(f"copy-bandwidth child failed:\n{stderr}")
        report["copy_bw"] = {**result, "l3_bytes": l3}
    setups = report["setups"]
    walls: list[float] = []
    while True:
        # Set-ups are spread over the run so that they see the same host
        # load as the commands; traced runs need none.
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while not trace and len(setups) < SETUP_SAMPLES * share:
            setups.append(runner.setup(wl))
        t0 = time.perf_counter()
        if not trace:
            report["calibration_fft_s"].append(runner.calibrate(wl))
        # Traced runs alternate untraced and traced invocations, untraced first.
        traced = trace and len(report["samples"]) % 2 == 1
        report["samples"].append(runner.command(wl, traced))
        walls.append(time.perf_counter() - t0)
        enough = not trace or len(report["samples"]) >= 2
        # Start no invocation that would likely end after the deadline.
        if enough and time.perf_counter() + max(walls) > deadline:
            break
    if not trace:
        report["calibration_fft_s"].append(runner.calibrate(wl))
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup(wl))
    report["measured_s"] = time.perf_counter() - start
    return report


def lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(wl: Workload, report: dict, attempted: int, failed: int) -> tuple[dict, dict]:
    """(end-to-end metrics, raw figures they were scaled from)."""
    samples = report["samples"]
    rss = [s["peak_rss_mib"] for s in samples if "peak_rss_mib" in s]
    if not rss:
        raise RuntimeError("no invocation produced a result")
    commands = [s["command_s"] for s in samples]
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in report["setups"]),
        "import_s": statistics.median(s["import_s"] for s in report["setups"]),
        "command_s": statistics.median(commands),
        "command_q1_s": lower_quartile(commands),
        "fft_q1_s": lower_quartile(report["calibration_fft_s"]),
    }
    metrics = {
        "setup_s": raw["setup_s"] * REF_IMPORT_S / raw["import_s"],
        "command_s": raw["command_q1_s"] * REF_FFT_S[wl.name] / raw["fft_q1_s"],
        "peak_rss_mib": statistics.median(rss),
        "ok_frac": (attempted - failed) / attempted,
    }
    return metrics, raw


def per_layer(wl: Workload, report: dict) -> tuple[dict, dict]:
    """(full table of medians, tracer self-check), from a traced run."""
    samples = report["samples"]
    untraced = [s for s in samples if not s["trace"] and "cpu_s" in s]
    traced = [s for s in samples if s["trace"] and "spans" in s]
    if not untraced or not traced:
        raise RuntimeError("a traced run needs at least one untraced and one traced result")
    copy_bw = report["copy_bw"]["copy_bw_gbs"]
    tables, absent = [], set()
    for s in traced:
        table, missing = layer_table(wl, s, copy_bw)
        tables.append(table)
        absent.update(missing)
    table = median_table(tables)
    # What the wrappers add to one traced invocation, measured in its child:
    # the cost of one wrapped call times the number of spans.  The slowdown of
    # the first calls run under tracemalloc is not in it.
    table["trace.overhead_s"] = statistics.median(
        s["wrapper_cost_s"] * len(s["spans"]) for s in traced)
    table["process.cpu_s"] = statistics.median(s["cpu_s"] for s in untraced)
    table["process.cpu_util"] = statistics.median(s["cpu_s"] / s["command_s"] for s in untraced)
    extremes = [s["extremes"] for s in samples if s["extremes"]]
    if extremes:
        table.update({k: max(e[k] for e in extremes) for k in extremes[0]})

    problems = []
    for s in traced:
        problems += check_spans(s["spans"])
    check = {
        "problems": problems,
        # Informational: too few invocations in one run to resolve the
        # difference from host noise, so it may come out negative.
        "traced_minus_untraced_median_s": (statistics.median(s["command_s"] for s in traced)
                                           - statistics.median(s["command_s"] for s in untraced)),
        "absent": sorted(absent),
        "unbound": sorted({b for t in traced for b in t["unbound"]}),
        "fft_formula": {
            "expected": wl.expected_fft_calls,
            "counted": table.get("spectral.fft_calls"),
            "match": table.get("spectral.fft_calls") == wl.expected_fft_calls,
        },
        "traced_invocations": len(traced),
        "untraced_invocations": len(untraced),
    }
    return table, check


# --- main -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its lines, the JSON result last."""
    wl = make_workload(name, seed)
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="tmp-"))
    try:
        report = measure(wl, Runner(tmp, env, seconds), seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    samples = report["samples"]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    full = {"meta": run_metadata(env), "inputs": wl.describe()}

    print(f"# {wl.name} seed {wl.seed}: {wl.command} {json.dumps(wl.config)} "
          f"{' '.join(wl.flags)}".rstrip())
    print(f"# {len(samples)} invocations in {report['measured_s']:.1f} s; "
          f"6-field state {wl.state_bytes / MIB:.2f} MiB; meta {json.dumps(full['meta'])}")
    for s in samples:
        for problem in s["problems"]:
            print(f"# FAILED: {problem}", file=sys.stderr)

    if trace:
        table, check = per_layer(wl, report)
        full.update(per_layer=table, tracer_check=check)
        for name, value in table.items():
            print(f"{name:<50} {value:.6g} {unit_of(name)}")
        print(f"# absent (never called): {', '.join(check['absent']) or 'none'}")
        print(f"# unbound (attribute not found): {', '.join(check['unbound']) or 'none'}")
        fft = check["fft_formula"]
        print(f"# FFT calls {fft['counted']} vs 140 per invariant_report + 12 per "
              f"propagate = {fft['expected']}: {'match' if fft['match'] else 'MISMATCH'}")
        print(f"# traced - untraced command, medians of {check['traced_invocations']} and "
              f"{check['untraced_invocations']}: {check['traced_minus_untraced_median_s']:.3g} s "
              "(unresolved by host noise; trace.overhead_s is measured directly)")
        bw = report["copy_bw"]
        print(f"# host copy bandwidth {bw['copy_bw_gbs']:.3g} GB/s on a "
              f"{bw['array_bytes'] / MIB:.0f} MiB array (L3 "
              + (f"{bw['l3_bytes'] / MIB:.0f} MiB)" if bw["l3_bytes"] else "size unknown)"))
        selfs = {n[:-len(".self_s")]: v for n, v in table.items()
                 if n.endswith(".self_s") and n != "diagnostics.self_s"}
        top = sorted(selfs, key=selfs.get, reverse=True)[:5]
        total = sum(selfs.values())
        print("# largest self-time shares: "
              + ", ".join(f"{n} {100 * selfs[n] / total:.0f}%" for n in top))
        metrics = {n: {"value": table[n], "unit": u} for n, u in PER_LAYER.items() if n in table}
    else:
        e2e, raw = end_to_end(wl, report, attempted, failed)
        full.update(end_to_end=e2e, raw_medians=raw)
        nsetup, ncal = len(report["setups"]), len(report["calibration_fft_s"])
        print(f"{'setup_s':<14} {e2e['setup_s']:.6g} s at reference speed (raw median of "
              f"{nsetup}: {raw['setup_s']:.6g} s; numpy import median of {nsetup}: "
              f"{raw['import_s']:.6g} s, reference {REF_IMPORT_S} s)")
        print(f"{'command_s':<14} {e2e['command_s']:.6g} s at reference speed (raw lower "
              f"quartile of {len(samples)}: {raw['command_q1_s']:.6g} s, median "
              f"{raw['command_s']:.6g} s; calibration FFTs lower quartile of {ncal}: "
              f"{raw['fft_q1_s']:.6g} s, reference {REF_FFT_S[wl.name]} s)")
        print(f"{'peak_rss_mib':<14} {e2e['peak_rss_mib']:.6g} MiB (median of {len(samples)}; "
              f"6-field state {wl.state_bytes / MIB:.3f} MiB)")
        print(f"{'failed_frac':<14} {failed / attempted:.6g} 1 ({failed} of {attempted} records)")
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}

    full["samples"] = samples
    full["setups"] = report["setups"]
    full["copy_bw"] = report.get("copy_bw")
    full["calibration_fft_s"] = report["calibration_fft_s"]
    report_path = OUT_DIR / f"{wl.name}-seed{wl.seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(full))
    print(f"# report: {report_path.relative_to(CHECKOUT)}")

    if trace and check["problems"]:
        for problem in check["problems"]:
            print(f"tracer self-check: {problem}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*GENERATORS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "psmaxwell" / "cli.py").is_file():
        print(f"error: no psmaxwell sources under {SRC}", file=sys.stderr)
        return 2
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    return max(run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names)


if __name__ == "__main__":
    sys.exit(main())
