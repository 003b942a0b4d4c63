"""Grid construction, wavenumber ladders, and the flat index convention."""

import numpy as np
import pytest

from psmaxwell import DomainSpec, build_grid


class TestDomainSpec:
    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            DomainSpec(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            DomainSpec(0.0, 1.0, 2.0, 1.0, 0.0, 1.0)

    def test_cube_helper(self):
        d = DomainSpec.cube(0.0, 2.0)
        assert d.bounds(0) == d.bounds(1) == d.bounds(2) == (0.0, 2.0)


class TestBuildGrid:
    def test_two_pi_cube_n4(self):
        grid = build_grid(DomainSpec.cube(0.0, 2.0 * np.pi), 4, 4, 4)
        np.testing.assert_allclose(np.diff(grid.points_x), np.pi / 2.0, rtol=1e-15)
        # Wavenumber ladder with the Nyquist entry zeroed.
        np.testing.assert_array_equal(grid.kvec_x, [0.0, 1.0, 0.0, -1.0])
        np.testing.assert_array_equal(grid.kvec_y, grid.kvec_x)

    def test_unit_bases_on_side_two_cube(self):
        grid = build_grid(DomainSpec.cube(0.0, 2.0), 8, 8, 8)
        assert grid.nu_x == pytest.approx(np.pi, rel=1e-15)
        np.testing.assert_allclose(
            grid.points_x, np.arange(8) * 0.25, rtol=0, atol=1e-15
        )

    def test_mixed_axes(self):
        grid = build_grid(DomainSpec(0, 1, 0, 2, 0, 4), 4, 8, 16)
        assert grid.nu_x == pytest.approx(2 * np.pi, rel=1e-15)
        assert grid.nu_y == pytest.approx(np.pi, rel=1e-15)
        assert grid.nu_z == pytest.approx(np.pi / 2, rel=1e-15)
        assert (len(grid.kvec_x), len(grid.kvec_y), len(grid.kvec_z)) == (4, 8, 16)
        assert grid.n_total == 4 * 8 * 16

    @pytest.mark.parametrize("bad_n", [1, 3, 7, 0, -4])
    def test_rejects_odd_or_nonpositive_counts(self, bad_n):
        with pytest.raises(ValueError):
            build_grid(DomainSpec.cube(0.0, 1.0), bad_n, 4, 4)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError):
            build_grid(DomainSpec.cube(0.0, 1.0), 4.0, 4, 4)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_kvec_antisymmetry_exact(self, n):
        grid = build_grid(DomainSpec.cube(0.0, 3.0), n, n, n)
        for k in (grid.kvec_x, grid.kvec_y, grid.kvec_z):
            assert k[0] == 0.0
            assert k[n // 2] == 0.0
            for m in range(1, n // 2):
                # Same magnitude, opposite sign, exactly.
                assert k[m] + k[n - m] == 0.0

    def test_uniform_spacing(self):
        grid = build_grid(DomainSpec(0.3, 1.9, -1.0, 2.0, 5.0, 11.0), 8, 8, 8)
        for axis, pts in enumerate((grid.points_x, grid.points_y, grid.points_z)):
            lo, hi = grid.domain.bounds(axis)
            np.testing.assert_allclose(np.diff(pts), (hi - lo) / 8, rtol=1e-15)

    def test_shape_is_the_x_fastest_layout(self):
        # flat = nx*ny*l + nx*k + j (module docstring) is C order over shape.
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 2, 4, 6)
        flat = np.arange(grid.n_total)
        l, k, j = np.unravel_index(flat, grid.shape)
        np.testing.assert_array_equal(grid.n_x * grid.n_y * l + grid.n_x * k + j, flat)

    def test_equal_inputs_give_equal_grids(self):
        domain = DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0)
        a = build_grid(domain, 4, 6, 8)
        b = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), 4, 6, 8)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "a", b: "b"} == {a: "b"}
        assert a != build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 4.0), 4, 6, 8)
        assert a != build_grid(domain, 4, 6, 6)
        assert a != build_grid(domain, 6, 4, 8)

    def test_arrays_read_only(self):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 4, 4, 4)
        with pytest.raises(ValueError):
            grid.kvec_x[0] = 5.0
