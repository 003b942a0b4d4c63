"""Slab-parallel stages: the bits of one thread on any worker count.

Every test that uses the ``workers`` fixture (``conftest.py``) drops the
size threshold to 0, so even the smallest array is cut into slabs.  Most run
each computation twice: with one worker (the calling thread alone) and with
three, which cuts 2 or 6 rows and 4, 6 or 32 z-planes into uneven slabs.
The in-place inverse runs on one, two and four workers, where its
temporaries are also measured, and it, ``step`` and ``error_norms`` each
run on four workers under fast thread switching.  Each test starts at most
one pool and shuts it down afterwards.
"""

import json
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from psmaxwell import (
    DomainSpec,
    FieldState,
    ImaginaryResidueError,
    MediumParams,
    StandingWave,
    TravelingWave,
    build_coefficients,
    build_grid,
    cli,
    dft3_forward,
    dft3_inverse,
    error_norms,
    invariant_report,
    realize,
    spectral,
    step,
    to_physical,
    to_spectral,
)
from psmaxwell.analytic import sample_exact

from conftest import random_band_limited_state

MEDIUM = MediumParams(mu=2.0, eps=0.5)

# 2x4x6 has one tiny block per slab; 32^3 has 7-plane blocks with a ragged
# last one; 128x64x4 has single-plane blocks over 4 planes.
COUNTS = [(2, 4, 6), (32, 32, 32), (128, 64, 4)]


def one_and_three(workers, fn):
    """``fn()`` on the calling thread alone, then on three workers."""
    workers(1)
    serial = fn()
    workers(3)
    return serial, fn()


def grid_for(counts):
    return build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), *counts)


@pytest.fixture(params=COUNTS, ids=lambda c: "x".join(map(str, c)))
def state(request, rng):
    return random_band_limited_state(grid_for(request.param), rng, MEDIUM)


@pytest.mark.parametrize("rows", [1, 2, 6])
def test_transforms(workers, state, rows):
    grid, data = state.grid, state.data[:rows]
    spectrum = dft3_forward(grid, data)
    forward = one_and_three(workers, lambda: dft3_forward(grid, data))
    inverse = one_and_three(workers, lambda: dft3_inverse(grid, spectrum))
    for serial, parallel in (forward, inverse):
        np.testing.assert_array_equal(serial, parallel)
    if rows == 1:  # a single field keeps its unbatched shape
        single = dft3_forward(grid, data[0])
        np.testing.assert_array_equal(single, spectrum[0])
        np.testing.assert_array_equal(dft3_inverse(grid, single), inverse[0][0])


@pytest.mark.parametrize(
    "block_modes", [spectral._POOLED_BLOCK_MODES, 1000 // 16], ids=["default", "1000B"]
)
@pytest.mark.parametrize("rows", [1, 2, 6])
def test_in_place_inverse(workers, monkeypatch, state, rows, block_modes):
    # On 2 and 4 workers every slab but the last saves a band of its last
    # lines; on 2x4x6 (n_x = 2) a band is a whole slab.  Blocks of at most
    # 62 modes (1000 bytes) make many blocks per slab, some of them
    # straddling a band's start.
    monkeypatch.setattr(spectral, "_POOLED_BLOCK_MODES", block_modes)
    grid = state.grid
    spectrum = dft3_forward(grid, state.data[:rows])
    workers(1)
    expected = dft3_inverse(grid, spectrum)
    for n in (1, 2, 4):
        workers(n)
        owned = spectrum.copy()
        np.testing.assert_array_equal(dft3_inverse(grid, owned, overwrite=True), expected)


def test_in_place_inverse_under_thread_switching(workers, monkeypatch, rng):
    # Four slabs on fewer cores, small blocks and a thread switch every
    # microsecond: a slab reading its last lines after the next slab wrote
    # its first samples over them would return wrong samples.
    grid = build_grid(DomainSpec.cube(0.0, 1.0), 16, 16, 64)
    spectrum = dft3_forward(grid, random_band_limited_state(grid, rng, MEDIUM).data)
    # 16-line blocks: each line is 9 modes.
    monkeypatch.setattr(spectral, "_POOLED_BLOCK_MODES", 16 * 9)
    workers(1)
    serial = dft3_inverse(grid, spectrum)
    workers(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            owned = spectrum.copy()
            np.testing.assert_array_equal(dft3_inverse(grid, owned, overwrite=True), serial)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_in_place_inverse_copies_one_block_per_worker(workers, rng, n):
    # irfft reads each block from the spectrum it writes its samples over,
    # and numpy copies the block, not the slab, where the two overlap.  So
    # besides the saved bands the x pass holds one block per worker.
    grid = build_grid(DomainSpec.cube(0.0, 1.0), 64, 64, 64)
    spectrum = dft3_forward(grid, random_band_limited_state(grid, rng, MEDIUM).data)
    n_xh = grid.spectral_shape[-1]
    lines = spectrum.size // n_xh
    workers(n)
    bounds = spectral._slab_bounds(lines, spectrum.size)
    band_lines = sum(hi - hi * grid.n_x // (2 * n_xh) for hi in bounds[1:-1])
    block_bytes = (spectral._POOLED_BLOCK_MODES // n_xh) * n_xh * spectrum.itemsize
    bound = band_lines * n_xh * spectrum.itemsize + (len(bounds) - 1) * block_bytes + (64 << 10)
    dft3_inverse(grid, spectrum.copy(), overwrite=True)  # starts any pool first
    owned = spectrum.copy()
    tracemalloc.start()
    try:
        dft3_inverse(grid, owned, overwrite=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_coefficients_and_step(workers, state):
    spectral_state = to_spectral(state)
    kept = spectral_state.data.copy()

    def flow():
        coeffs = build_coefficients(state.grid, MEDIUM, 1.3)
        owned = FieldState(state.grid, MEDIUM, kept.copy())
        in_place = step(owned, coeffs, overwrite=True).data
        return step(spectral_state, coeffs).data, in_place

    for serial, parallel in zip(*one_and_three(workers, flow)):
        np.testing.assert_array_equal(serial, parallel)
    np.testing.assert_array_equal(spectral_state.data, kept)


def test_realize(workers, state):
    spectrum = dft3_forward(state.grid, state.data)
    serial, parallel = one_and_three(workers, lambda: realize(state.grid, spectrum))
    assert serial[0] is parallel[0] is spectrum
    assert serial[1] == parallel[1]


@pytest.mark.parametrize("counts", COUNTS, ids=lambda c: "x".join(map(str, c)))
@pytest.mark.parametrize(
    "case", [StandingWave(medium=MediumParams(eps=0.5)), TravelingWave()],
    ids=["standing", "traveling"],
)
def test_sample_exact(workers, case, counts):
    grid = grid_for(counts)
    serial, parallel = one_and_three(workers, lambda: sample_exact(case, grid, 0.7))
    np.testing.assert_array_equal(serial, parallel)


@pytest.mark.parametrize(
    "case", [StandingWave(medium=MediumParams(eps=0.5)), TravelingWave()],
    ids=["standing", "traveling"],
)
def test_error_norms(workers, case, state):
    state = FieldState(state.grid, state.medium, state.data, time=0.7)
    serial, parallel = one_and_three(workers, lambda: error_norms(state, case))
    assert serial == parallel


def test_error_norms_scratches_under_thread_switching(workers, monkeypatch, rng):
    # Four slabs on fewer cores, one-plane blocks and a thread switch every
    # microsecond: two slabs handed the same scratch would mix their errors.
    grid = build_grid(DomainSpec.cube(0.0, 1.0), 16, 16, 64)
    state = random_band_limited_state(grid, rng, MEDIUM)
    state = FieldState(grid, MEDIUM, state.data, time=0.7)
    monkeypatch.setattr(spectral, "_POOLED_BLOCK_MODES", grid.n_y * grid.n_x)
    case = TravelingWave()
    workers(1)
    serial = error_norms(state, case)
    workers(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert error_norms(state, case) == serial
    finally:
        sys.setswitchinterval(interval)


def test_step_scratches_under_thread_switching(workers, monkeypatch, rng):
    # Four slabs on fewer cores, one-plane blocks and a thread switch every
    # microsecond: two slabs handed the same curls scratch would mix their
    # fields.
    grid = build_grid(DomainSpec.cube(0.0, 1.0), 16, 16, 64)
    spectral_state = to_spectral(random_band_limited_state(grid, rng, MEDIUM))
    coeffs = build_coefficients(grid, MEDIUM, 1.3)
    monkeypatch.setattr(spectral, "_POOLED_BLOCK_MODES", grid.n_y * grid.spectral_shape[-1])
    workers(1)
    serial = step(spectral_state, coeffs).data
    workers(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            np.testing.assert_array_equal(step(spectral_state, coeffs).data, serial)
            owned = FieldState(grid, MEDIUM, spectral_state.data.copy())
            np.testing.assert_array_equal(step(owned, coeffs, overwrite=True).data, serial)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("representation", ["physical", "spectral"])
def test_invariant_report(workers, state, representation):
    if representation == "spectral":
        state = to_spectral(state)
    serial, parallel = one_and_three(workers, lambda: invariant_report(state))
    assert serial == parallel


@pytest.mark.parametrize("modes", [1, 10**9], ids=["one-plane", "whole-array"])
def test_invariant_report_blocks(monkeypatch, state, modes):
    # One row of partial sums per z-plane: how the planes are cut into
    # blocks does not show in the report.
    def reports():
        return invariant_report(state), invariant_report(to_spectral(state))

    expected = reports()
    monkeypatch.setattr(spectral, "_BLOCK_MODES", modes)
    assert reports() == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--case", "standing", "--n", "8", "--t-end", "1,5"],
        ["drift", "--case", "standing", "--n", "8", "--t-max", "100", "--samples", "3"],
        ["convergence", "--case", "traveling", "--n-list", "4,8", "--t-end", "1,5"],
    ],
    ids=["run", "drift", "convergence"],
)
def test_cli_records(workers, capsys, argv):
    def records():
        assert cli.main(argv) == cli.EXIT_OK
        return [
            {k: v for k, v in r.items() if k != "wall_seconds"}
            for r in json.loads(capsys.readouterr().out)
        ]

    serial, parallel = one_and_three(workers, records)
    assert serial == parallel


def test_slabs_run_on_the_pool(workers):
    workers(3)
    threads = {}

    def job(slab):
        threads[slab.start] = threading.current_thread().name

    spectral._for_slabs(job, 7, 7, block=2)
    # Slabs 0-1, 2-3 and 4-6, the last cut into blocks of two planes.
    assert sorted(threads) == [0, 2, 4, 6]
    assert all(name.startswith("psmaxwell-slab") for name in threads.values())
    assert spectral._pool._max_workers == 3


@pytest.mark.parametrize("n", [1, 3])
def test_per_slab_state_comes_first(workers, n):
    # The inverse's saved bands rely on every slab's state being made, on
    # the calling thread, before any slab runs.
    workers(n)
    events = []

    def per_slab(start, stop):
        events.append(("state", (start, stop), threading.current_thread()))
        return start, stop

    def job(block, start, stop):
        events.append(("block", (start, stop), (block.start, block.stop)))

    spectral._for_slabs(job, 7, 7, 2, per_slab)
    slabs = [(0, 7)] if n == 1 else [(0, 2), (2, 4), (4, 7)]
    made, ran = events[: len(slabs)], events[len(slabs) :]
    assert [(kind, slab) for kind, slab, _ in made] == [("state", slab) for slab in slabs]
    assert all(thread is threading.current_thread() for *_, thread in made)
    # Each slab's blocks of two receive its tuple.
    assert sorted(ran) == [
        ("block", (start, stop), (first, min(first + 2, stop)))
        for start, stop in slabs
        for first in range(start, stop, 2)
    ]


def test_job_exception_reaches_caller(workers):
    class SlabError(Exception):
        pass

    workers(3)
    done = []

    def job(slab):
        if slab.start == 0:
            raise SlabError("first slab")
        done.append(slab)

    with pytest.raises(SlabError, match="first slab"):
        spectral._for_slabs(job, 6, 6)
    # The other slabs had finished by then.
    assert sorted(slab.start for slab in done) == [2, 4]


def test_non_finite_spectrum_still_refused(workers, rng):
    workers(3)
    state = to_spectral(random_band_limited_state(grid_for((32, 32, 32)), rng))
    data = state.data.copy()
    data[4, -1] = np.nan
    with pytest.raises(ImaginaryResidueError, match="non-finite"):
        to_physical(FieldState(state.grid, state.medium, data))
    assert spectral._pool is not None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_forked_child_makes_its_own_pool(workers, rng):
    # The child inherits the parent's pool object but none of its threads;
    # without a fresh pool its jobs would never run.
    workers(3)
    grid = grid_for((32, 32, 32))
    data = rng.standard_normal((6, grid.n_total))
    expected = dft3_forward(grid, data)
    assert spectral._pool is not None
    pid = os.fork()
    if pid == 0:
        ok = np.array_equal(dft3_forward(grid, data), expected)
        os._exit(0 if ok else 1)
    for _ in range(400):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's transform never finished")
    assert os.waitstatus_to_exitcode(status) == 0


def test_small_grid_starts_no_pool(monkeypatch, capsys):
    # With the real threshold a 32^3 command stays on the calling thread,
    # even where several CPUs are available.
    monkeypatch.setattr(spectral, "_WORKERS", 3)
    monkeypatch.setattr(spectral, "_pool", None)
    argv = ["run", "--case", "standing", "--n", "32", "--t-end", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert spectral._pool is None


def test_worker_count_is_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert spectral._WORKERS == len(os.sched_getaffinity(0))
    else:
        assert spectral._WORKERS == (os.cpu_count() or 1)
