"""Slab-parallel stages: the bits of one thread on any worker count.

Every test that uses the ``workers`` fixture drops the size threshold to 0,
so even the smallest array is cut into slabs, and runs each computation
twice: with one worker (the calling thread alone) and with three, which
cuts 2 or 6 rows and 4, 6 or 32 z-planes into uneven slabs.  The three-thread
pool is the only one these tests start, and it is shut down afterwards.
"""

import json
import os
import signal
import threading
import time

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


@pytest.fixture
def workers(monkeypatch):
    """Set the worker count with every array above the size threshold."""
    monkeypatch.setattr(spectral, "_PARALLEL_MIN_SIZE", 0)
    monkeypatch.setattr(spectral, "_pool", None)

    def set_workers(n: int) -> None:
        monkeypatch.setattr(spectral, "_WORKERS", n)

    yield set_workers
    if spectral._pool is not None:
        spectral._pool.shutdown()


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


def test_coefficients_and_step(workers, state):
    spectral_state = to_spectral(state)
    kept = spectral_state.data.copy()

    def flow():
        coeffs = build_coefficients(state.grid, MEDIUM, 1.3)
        return coeffs.r1, coeffs.r2, step(spectral_state, coeffs).data

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
