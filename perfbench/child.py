"""One measurement in a fresh interpreter; writes its result as JSON.

    python3 perfbench/child.py setup   RESULT CASE NX NY NZ [KX KY KZ]
    python3 perfbench/child.py command RESULT TRACE ARGV_JSON
    python3 perfbench/child.py copybw  RESULT NBYTES
    python3 perfbench/child.py numpy-import RESULT
    python3 perfbench/child.py calibrate RESULT NX NY NZ

``setup`` times what a user pays before any solver call: importing the
package, building the grid and sampling the initial state.  ``command``
imports the CLI untimed, then times one ``cli.main(argv)`` call, optionally
under the tracer.  ``copybw`` measures host copy bandwidth on an array far
larger than the last-level cache.  ``numpy-import`` and ``calibrate`` time
fixed work that does not depend on the package: importing numpy in a fresh
interpreter, and FFTs of the workload's grid shape.  The harness divides by
these times to take the host's changing speed out of ``setup`` and
``command``.

The package must come from the ``src`` directory next to this one, so that a
checkout measures its own code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _check_origin(module) -> None:
    if SRC not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"psmaxwell imported from {module.__file__}, not from {SRC}")


def _setup(case: str, n: list[int], k: list[int]) -> dict:
    start = time.perf_counter()
    import psmaxwell as pm

    spec = pm.StandingWave(*k) if case == "standing" else pm.TravelingWave()
    grid = pm.build_grid(spec.default_domain, *n)
    state = pm.sample_initial(spec, grid)
    setup_s = time.perf_counter() - start
    _check_origin(pm)
    return {"setup_s": setup_s, "state_bytes": sum(a.nbytes for a in state.component_arrays())}


def _command(trace: bool, argv: list[str]) -> dict:
    from psmaxwell import cli

    _check_origin(cli)
    tracer = None
    main = cli.main
    if trace:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap(cli.main, ROOT)
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        returncode = main(argv)
    finally:
        command_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    out = {
        "returncode": returncode,
        "command_s": command_s,
        "cpu_s": cpu_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["wrapper_cost_s"] = _wrapper_cost()
        out["spans"] = tracer.spans
        out["max_imag_residue"] = tracer.max_imag_residue
        out["tracemalloc_peak_bytes"] = tracer.tracemalloc_peak_bytes
        out["unbound"] = tracer.unbound
    return out


def _wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds: a wrapped no-op minus a bare one, best of 3."""
    from tracer import Tracer

    def noop() -> None:
        return None

    wrapped = Tracer().wrap(noop, "noop")
    costs = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        middle = time.perf_counter()
        for _ in range(calls):
            wrapped()
        end = time.perf_counter()
        costs.append(((end - middle) - (middle - start)) / calls)
    return min(costs)


def _copy_bandwidth(nbytes: int) -> dict:
    import numpy as np

    src = np.ones(nbytes // 8)
    dst = np.zeros_like(src)  # touch every page before timing
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    best = min(times)
    # A copy reads and writes every byte once.
    return {"array_bytes": src.nbytes, "copy_bw_gbs": 2 * src.nbytes / best / 1e9}


# Transforms per calibration: about 2**23 grid points in all, at least two.
CALIBRATION_POINTS = 1 << 23


def _numpy_import() -> dict:
    start = time.perf_counter()
    import numpy  # noqa: F401

    return {"import_s": time.perf_counter() - start}


def _calibrate(shape: tuple[int, int, int]) -> dict:
    import numpy as np

    n_total = shape[0] * shape[1] * shape[2]
    count = max(2, CALIBRATION_POINTS // n_total)
    rng = np.random.default_rng(0)
    # Up to six complex fields, like the solver's state, and a real factor.
    fields = [rng.standard_normal(shape) + 0j for _ in range(min(6, count))]
    factor = rng.standard_normal(shape)
    start = time.perf_counter()
    for i in range(count):
        spectrum = np.fft.fftn(fields[i % len(fields)])
        spectrum *= factor
        fields[i % len(fields)] = np.fft.ifftn(spectrum)
    return {"fft_s": time.perf_counter() - start}


def main(args: list[str]) -> None:
    mode, result = args[0], Path(args[1])
    if mode == "setup":
        case, n, k = args[2], [int(v) for v in args[3:6]], [int(v) for v in args[6:9]]
        out = _setup(case, n, k)
    elif mode == "command":
        out = _command(args[2] == "1", json.loads(args[3]))
    elif mode == "copybw":
        out = _copy_bandwidth(int(args[2]))
    elif mode == "numpy-import":
        out = _numpy_import()
    elif mode == "calibrate":
        out = _calibrate(tuple(int(v) for v in args[2:5]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result.write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
