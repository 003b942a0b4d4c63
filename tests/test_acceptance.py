"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see
them on success).  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from psmaxwell import (
    FieldState,
    MediumParams,
    StandingWave,
    TravelingWave,
    build_coefficients,
    build_grid,
    error_norms,
    invariant_report,
    propagate,
    relative_change,
    sample_initial,
    step,
    to_physical,
    to_spectral,
)
from psmaxwell.grid import DomainSpec

from conftest import random_band_limited_state, state_norm
from oracle import (
    broadcast_wavenumbers,
    dense_curl,
    dense_diff_operator,
    dense_expm,
    flow_blocks,
)

T_TABLE = (1.0, 5.0, 10.0, 15.0, 20.0)


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _case(name: str):
    return StandingWave() if name == "standing" else TravelingWave()


@pytest.fixture(scope="module")
def table_data():
    """Propagation rows for both examples at both table resolutions."""
    data = {}
    for name in ("standing", "traveling"):
        case = _case(name)
        for n in (8, 16):
            grid = build_grid(case.default_domain, n, n, n)
            initial = sample_initial(case, grid)
            before = invariant_report(initial)
            rows = []
            for t_end in T_TABLE:
                start = time.perf_counter()
                final = propagate(initial, t_end)
                wall = time.perf_counter() - start
                after = invariant_report(final)
                rows.append(
                    {
                        "t": t_end,
                        "wall": wall,
                        "errors": error_norms(final, case),
                        "after": after,
                        "drifts": relative_change(before, after),
                    }
                )
            data[(name, n)] = rows
    return data


def test_criterion_1_standing_wave_accuracy(table_data):
    rows = table_data[("standing", 8)]
    worst_linf = max(r["errors"].linf for r in rows)
    worst_l2 = max(r["errors"].l2 for r in rows)
    worst_wall = max(r["wall"] for r in rows)
    ok = worst_linf <= 1e-10 and worst_l2 <= 1e-11 and worst_wall < 1.0
    _check(
        "criterion 1 (standing accuracy, N=8)",
        ok,
        f"Linf={worst_linf:.3e} (<=1e-10), L2={worst_l2:.3e} (<=1e-11), "
        f"wall={worst_wall:.3f}s (<1s)",
    )


def test_criterion_2_traveling_wave_accuracy(table_data):
    rows = table_data[("traveling", 16)]
    worst_linf = max(r["errors"].linf for r in rows)
    _check(
        "criterion 2 (traveling accuracy, N=16)",
        worst_linf <= 1e-8,
        f"Linf={worst_linf:.3e} (<=1e-8)",
    )


def test_criterion_3_energy_conservation(table_data):
    worst = 0.0
    for key, rows in table_data.items():
        for row in rows:
            d = row["drifts"]
            worst = max(
                worst,
                d.e1.value,
                d.e2.value,
                *(v.value for v in d.e3),
                *(v.value for v in d.e4),
            )
    _check(
        "criterion 3 (energy conservation, E1..E4)",
        worst <= 1e-13,
        f"worst Re(E_k)={worst:.3e} (<=1e-13)",
    )


def test_criterion_4_helicity_momentum_conservation(table_data):
    worst_h = max(
        max(r["drifts"].h1.value, r["drifts"].h2.value)
        for r in table_data[("standing", 8)]
    )
    worst_m = max(
        max(v.value for v in r["drifts"].m1 + r["drifts"].m2)
        for r in table_data[("standing", 8)]
    )
    ok = worst_h <= 1e-10 and worst_m <= 1e-9
    h2_details = []
    for row in table_data[("traveling", 16)]:
        h2 = row["drifts"].h2
        bound = 1e-10 if h2.absolute else 1e-5
        ok = ok and h2.value <= bound
        h2_details.append(h2)
    _check(
        "criterion 4 (helicity/momentum conservation)",
        ok,
        f"standing N=8 worst Re(H)={worst_h:.3e} (<=1e-10), "
        f"worst Re(M)={worst_m:.3e} (<=1e-9); traveling N=16 Re(H2)="
        + ",".join(
            f"{d.value:.2e}{'abs' if d.absolute else 'rel'}" for d in h2_details
        ),
    )


def test_criterion_5_divergence_conservation(table_data):
    worst = max(
        max(r["after"].div_e_norm, r["after"].div_h_norm)
        for rows in table_data.values()
        for r in rows
    )
    _check(
        "criterion 5 (divergence-free conservation)",
        worst <= 1e-12,
        f"worst max-norm divergence={worst:.3e} (<=1e-12)",
    )


def test_criterion_6_long_time_energy_drift():
    case = StandingWave()
    grid = build_grid(case.default_domain, 8, 8, 8)
    initial = sample_initial(case, grid)
    before = invariant_report(initial)
    start = time.perf_counter()
    worst = 0.0
    samples = 100
    for i in range(1, samples + 1):
        t_i = 10000.0 * i / samples
        after = invariant_report(propagate(initial, t_i))
        worst = max(worst, relative_change(before, after).e1.value)
    wall = time.perf_counter() - start
    ok = worst <= 1e-12 and wall < 30.0
    _check(
        "criterion 6 (long-time drift over [0, 10000])",
        ok,
        f"max Re(E1)={worst:.3e} (<=1e-12), total wall={wall:.2f}s (<30s)",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(7)
    medium = MediumParams()
    grid = build_grid(DomainSpec.cube(0.0, 2.0), 4, 4, 4)
    t = 0.3
    n = grid.n_total
    d = dense_curl(grid)
    z = np.zeros_like(d)
    flow = dense_expm(np.block([[z, -d], [d, z]]), t)

    worst = 0.0
    for _ in range(20):
        state = random_band_limited_state(grid, rng, medium)
        arrays = state.component_arrays()
        vec = np.concatenate(arrays[3:] + arrays[:3])  # (H; E), mu = eps = 1
        expected = flow @ vec
        out = propagate(state, t)
        got = np.concatenate(out.component_arrays()[3:] + out.component_arrays()[:3])
        worst = max(worst, np.max(np.abs(got - expected)) / state_norm(state))
    ok_states = worst <= 1e-11

    # Closed-form per-mode blocks against the series exponential.
    kappa = 0.7
    cos, sin = flow_blocks(build_coefficients(grid, medium, kappa))
    b_x, b_y, b_z = broadcast_wavenumbers(grid)
    worst_block = 0.0
    for m in range(n):
        k_cross = np.array(
            [
                [0.0, -b_z[m], b_y[m]],
                [b_z[m], 0.0, -b_x[m]],
                [-b_y[m], b_x[m], 0.0],
            ]
        )
        u_plus = dense_expm(1j * kappa * 1j * k_cross)
        u_minus = dense_expm(-1j * kappa * 1j * k_cross)
        worst_block = max(
            worst_block,
            np.max(np.abs(cos[m] - (u_plus + u_minus) / 2.0)),
            np.max(np.abs(sin[m] - (u_plus - u_minus) / 2j)),
        )
    ok_blocks = worst_block <= 1e-11
    _check(
        "criterion 7 (oracle equivalence at N=4)",
        ok_states and ok_blocks,
        f"propagate vs dense expm={worst:.3e} (<=1e-11, 20 states), "
        f"closed-form blocks vs series={worst_block:.3e} (<=1e-11)",
    )


def test_criterion_8_structural_properties():
    rng = np.random.default_rng(8)
    medium = MediumParams()
    grid = build_grid(DomainSpec.cube(0.0, 2.0), 4, 4, 4)
    details = []
    ok = True

    # Identity at t = 0, exact.
    state = to_spectral(random_band_limited_state(grid, rng, medium))
    out = step(state, build_coefficients(grid, medium, 0.0))
    identity_exact = all(
        np.array_equal(a, b)
        for a, b in zip(state.component_arrays(), out.component_arrays())
    )
    ok &= identity_exact
    details.append(f"t=0 identity exact={identity_exact}")

    # Group property and reversibility.
    phys = random_band_limited_state(grid, rng, medium)
    scale = state_norm(phys)
    composed = propagate(propagate(phys, 0.4), 1.1)
    direct = propagate(phys, 1.5)
    group_err = max(
        np.max(np.abs(a - b)) / scale
        for a, b in zip(composed.component_arrays(), direct.component_arrays())
    )
    back = propagate(propagate(phys, 2.2), -2.2)
    rev_err = max(
        np.max(np.abs(a - b)) / scale
        for a, b in zip(back.component_arrays(), phys.component_arrays())
    )
    ok &= group_err <= 1e-11 and rev_err <= 1e-12
    details.append(f"group={group_err:.2e} (<=1e-11), reversal={rev_err:.2e} (<=1e-12)")

    # Per-mode unitarity and corrected divergence identities.
    cos, sin = flow_blocks(build_coefficients(grid, medium, 1.3))
    unit_err = 0.0
    for m in range(grid.n_total):
        c = cos[m]
        s = sin[m]
        unit_err = max(
            unit_err, np.max(np.abs(c.conj().T @ c + s.conj().T @ s - np.eye(3)))
        )
    c11, c12, c13 = cos[:, 0].T
    c22, c23, c33 = cos[:, 1, 1], cos[:, 1, 2], cos[:, 2, 2]
    # The sine magnitudes s12 = kappa b_z r2 and cyclic: S = i kappa r2 [b]x.
    s12, s13, s23 = -sin[:, 0, 1].imag, sin[:, 0, 2].imag, -sin[:, 1, 2].imag
    bx, by, bz = broadcast_wavenumbers(grid)
    b_scale = max(np.max(np.abs(bx)), np.max(np.abs(by)), np.max(np.abs(bz)), 1.0)
    div_err = max(
        np.max(np.abs(bx * c11 + by * c12 + bz * c13 - bx)),
        np.max(np.abs(bx * c12 + by * c22 + bz * c23 - by)),
        np.max(np.abs(bx * c13 + by * c23 + bz * c33 - bz)),
        np.max(np.abs(-bx * s12 + bz * s23)),
        np.max(np.abs(by * s12 - bz * s13)),
        np.max(np.abs(bx * s13 - by * s23)),
    ) / b_scale
    ok &= unit_err <= 1e-12 and div_err <= 1e-13
    details.append(f"unitarity={unit_err:.2e} (<=1e-12), div-ids={div_err:.2e} (<=1e-13)")

    # Symplecticity of the assembled flow matrix at N=4.
    n = grid.n_total
    dim = 6 * n
    zeros = np.zeros(n)
    flow_coeffs = build_coefficients(grid, medium, 0.7)
    m_mat = np.zeros((dim, dim))
    for col in range(dim):
        comps = [zeros.copy() for _ in range(6)]
        comps[col // n][col % n] = 1.0
        basis = FieldState(grid, medium, np.stack(comps))
        out_state = to_physical(step(to_spectral(basis), flow_coeffs))
        m_mat[:, col] = np.concatenate(out_state.component_arrays())
    eye = np.eye(3 * n)
    j = np.block([[np.zeros_like(eye), eye], [-eye, np.zeros_like(eye)]])
    sympl_err = np.max(np.abs(m_mat.T @ j @ m_mat - j))
    ok &= sympl_err <= 1e-10
    details.append(f"symplecticity={sympl_err:.2e} (<=1e-10)")

    # FFT diagonalization vs the dense cotangent matrix at N=8.
    grid8 = build_grid(DomainSpec.cube(0.0, 2.0), 8, 8, 8)
    from psmaxwell import apply_derivative, dft3_forward, dft3_inverse

    data = rng.standard_normal(grid8.n_total)
    diag_err = 0.0
    for axis in range(3):
        dense = dense_diff_operator(grid8, axis) @ data
        fast = dft3_inverse(grid8, apply_derivative(grid8, dft3_forward(grid8, data), axis))
        diag_err = max(
            diag_err,
            np.max(np.abs(fast - dense)) / max(np.max(np.abs(dense)), 1.0),
        )
    ok &= diag_err <= 1e-11
    details.append(f"fft-vs-cotangent={diag_err:.2e} (<=1e-11)")

    # Skew symmetry of <D_k u, v>_N.
    u = rng.standard_normal(grid8.n_total)
    v = rng.standard_normal(grid8.n_total)
    skew_err = 0.0
    for axis in range(3):
        du = dft3_inverse(grid8, apply_derivative(grid8, dft3_forward(grid8, u), axis))
        dv = dft3_inverse(grid8, apply_derivative(grid8, dft3_forward(grid8, v), axis))
        lhs = float(np.sum(du * v)) / grid8.n_total
        rhs = -float(np.sum(u * dv)) / grid8.n_total
        skew_err = max(skew_err, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    ok &= skew_err <= 1e-12
    details.append(f"skew-symmetry={skew_err:.2e} (<=1e-12)")

    _check("criterion 8 (structural properties)", bool(ok), "; ".join(details))


def test_criterion_9_cost_scaling():
    rng = np.random.default_rng(9)
    medium = MediumParams()
    times = {}
    for n in (16, 32, 64):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), n, n, n)
        state = random_band_limited_state(grid, rng, medium)
        propagate(state, 1.0)  # warm up FFT twiddle tables for this size
        best = np.inf
        for _ in range(7 if n < 64 else 3):
            start = time.perf_counter()
            propagate(state, 1.0)
            best = min(best, time.perf_counter() - start)
        times[n] = best

    def model(n):
        n_s = n**3
        return n_s * np.log(n_s)

    ok = True
    details = []
    for small, big in ((16, 32), (32, 64)):
        measured = times[big] / times[small]
        allowed = 2.0 * model(big) / model(small)
        ok = ok and measured <= allowed
        details.append(f"t({big})/t({small})={measured:.1f} (<= {allowed:.1f})")
    _check(
        "criterion 9 (cost scaling)",
        ok,
        "; ".join(details) + f"; raw times={ {k: round(v, 4) for k, v in times.items()} }",
    )
