"""CLI surface: config parsing, record schemas, exit codes, determinism, and
the functions the benchmark's tracer wraps."""

import importlib.util
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from psmaxwell import (
    build_grid,
    cli,
    invariant_report,
    propagate,
    propagator,
    relative_change,
    sample_initial,
    to_physical,
    to_spectral,
)
from psmaxwell.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    convergence_records,
    drift_records,
    records_to_csv,
    run_records,
)
from psmaxwell.diagnostics import NEAR_ZERO_ABS
from psmaxwell.spectral import ImaginaryResidueError

from conftest import perturb_plane


# The standing wave's default domain, [0, 2]^3, spelled out field by field.
_STANDING_DOMAIN = {"x_lo": 0, "x_hi": 2, "y_lo": 0, "y_hi": 2, "z_lo": 0, "z_hi": 2}

# Grids on which invariants of the stepped spectrum are held to those of
# the physical fields.
_GRIDS = [
    {"case": "standing", "n_x": 32, "n_y": 32, "n_z": 32},
    {"case": "traveling", "n_x": 16, "n_y": 16, "n_z": 16},
    {"case": "standing", "n_x": 32, "n_y": 24, "n_z": 16, "eps": 0.5},
]
_GRID_IDS = ["standing-32", "traveling-16", "standing-32x24x16-eps0.5"]


def _initial_spectrum(cfg: RunConfig):
    case = cfg.build_case()
    grid = build_grid(case.default_domain, cfg.n_x, cfg.n_y, cfg.n_z)
    return to_spectral(sample_initial(case, grid))


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig.from_mapping({"case": "standing"})
        assert (cfg.n_x, cfg.n_y, cfg.n_z) == (8, 8, 8)
        assert (cfg.k_x, cfg.k_y, cfg.k_z) == (1, 2, -3)
        assert cfg.t_end == (1.0, 5.0, 10.0, 15.0, 20.0)
        assert cfg.report_axis == 1

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            RunConfig.from_mapping({"case": "standing", "dt": 0.1})

    def test_missing_case_rejected(self):
        with pytest.raises(ConfigError, match="case"):
            RunConfig.from_mapping({})

    def test_wavevector_rejected_for_traveling(self):
        with pytest.raises(ConfigError, match="standing"):
            RunConfig.from_mapping({"case": "traveling", "k_x": 1})

    def test_readme_config_example_accepted(self):
        # The accepted keys are derived from RunConfig and DomainSpec; the
        # README's example lists every documented key.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        cfg = RunConfig.from_mapping(example)
        assert (cfg.n_x, cfg.report_axis, cfg.domain.z_hi) == (8, 1, 2.0)
        for key in example:
            with pytest.raises(ConfigError, match="unknown config fields"):
                RunConfig.from_mapping({**example, key + "s": example[key]})
        with pytest.raises(ConfigError, match="unknown config fields"):
            RunConfig.from_mapping({**example, "domain": None})

    def test_incomplete_domain_rejected(self):
        with pytest.raises(ConfigError, match="incomplete domain"):
            RunConfig.from_mapping({"case": "standing", "x_lo": 0.0})

    def test_scalar_t_end_promoted(self):
        cfg = RunConfig.from_mapping({"case": "standing", "t_end": 2.5})
        assert cfg.t_end == (2.5,)

    def test_odd_n_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            RunConfig.from_mapping({"case": "standing", "n_x": 7})

    def test_bad_report_axis(self):
        with pytest.raises(ConfigError, match="report_axis"):
            RunConfig.from_mapping({"case": "standing", "report_axis": 4})

    def test_standing_constraint_surfaces_as_config_error(self):
        cfg = RunConfig.from_mapping({"case": "standing", "k_x": 1, "k_y": 2, "k_z": 3})
        with pytest.raises(ConfigError, match="sum to zero"):
            cfg.build_case()


class TestRunRecords:
    def test_standing_table_row(self):
        cfg = RunConfig.from_mapping({"case": "standing", "t_end": [1.0]})
        (record,) = run_records(cfg)
        assert record["case"] == "standing"
        assert record["nx"] == 8
        assert record["linf"] <= 1e-10
        drifts = record["drifts"]
        for name in ("e1", "e2"):
            assert drifts[name]["value"] <= 1e-13
        for name in ("e3", "e4"):
            assert all(d["value"] <= 1e-13 for d in drifts[name])

    def test_traveling_divergence_row(self):
        cfg = RunConfig.from_mapping(
            {"case": "traveling", "n_x": 16, "n_y": 16, "n_z": 16, "t_end": [20.0]}
        )
        (record,) = run_records(cfg)
        assert record["div_e"] <= 1e-12
        assert record["div_h"] <= 1e-12

    def test_zero_time_identity(self):
        cfg = RunConfig.from_mapping({"case": "standing", "t_end": [0.0]})
        (record,) = run_records(cfg)
        assert record["l2"] <= 1e-14
        assert record["linf"] <= 1e-14
        drifts = record["drifts"]
        assert drifts["e1"]["value"] <= 1e-14
        assert all(d["value"] <= 1e-13 for d in drifts["e4"])

    def test_determinism_modulo_timing(self):
        cfg = RunConfig.from_mapping({"case": "traveling", "t_end": [1.0, 3.0]})
        a = run_records(cfg)
        b = run_records(cfg)
        for ra, rb in zip(a, b):
            ra = {k: v for k, v in ra.items() if k != "wall_seconds"}
            rb = {k: v for k, v in rb.items() if k != "wall_seconds"}
            assert ra == rb

    def test_under_resolved_grid_is_config_error(self):
        cfg = RunConfig.from_mapping({"case": "standing", "n_x": 4, "n_y": 4, "n_z": 4})
        with pytest.raises(ConfigError, match="alias"):
            run_records(cfg)

    @pytest.mark.parametrize("raw", _GRIDS, ids=_GRID_IDS)
    def test_final_invariants_match_physical_output(self, raw):
        # A record's invariants are taken on the stepped spectrum; those of
        # the physical fields it is transformed back into differ only by the
        # inverse's roundoff: 4e-15 relative, or absolute below NEAR_ZERO_ABS.
        cfg = RunConfig.from_mapping({**raw, "t_end": [7.0, 1234.5, 1e4]})
        records = run_records(cfg)
        initial = _initial_spectrum(cfg)
        for record, t in zip(records, cfg.t_end, strict=True):
            got = record["invariants_final"]
            want = invariant_report(to_physical(propagate(initial, t), overwrite=True))
            for name in ("e1", "e2", "e3", "e4"):
                for g, w in zip(np.atleast_1d(got[name]), np.atleast_1d(getattr(want, name))):
                    scale = abs(w) if abs(w) >= NEAR_ZERO_ABS else 1.0
                    assert abs(g - w) <= 4e-15 * scale, (name, t, g, w)


class TestRecordSchema:
    """The exact ordered keys of each record kind, and the CSV's agreement with JSON."""

    REPORT = ["time", "e1", "e2", "e3", "e4", "e5", "e6", "h1", "h2", "m1", "m2",
              "div_e", "div_h"]
    DRIFTS = ["e1", "e2", "h1", "h2", "e3", "e4", "e5", "e6", "m1", "m2"]

    def test_ordered_keys(self):
        cfg = RunConfig.from_mapping({"case": "traveling", "t_end": [1.0]})
        (run,) = run_records(cfg)
        assert list(run) == [
            "case", "nx", "ny", "nz", "t_end", "report_axis", "l2", "linf",
            "component_linf", "wall_seconds", "invariants_initial", "invariants_final",
            "drifts", "div_e", "div_h", "imag_residue", "axis_drifts_reported",
        ]
        assert list(run["invariants_initial"]) == self.REPORT
        assert list(run["invariants_final"]) == self.REPORT
        assert list(run["drifts"]) == self.DRIFTS
        assert list(run["drifts"]["e1"]) == ["value", "absolute"]
        assert [list(d) for d in run["drifts"]["m1"]] == [["value", "absolute"]] * 3
        assert list(run["axis_drifts_reported"]) == ["re_m1", "re_m2", "re_e3", "re_e4"]
        drift = drift_records(cfg, t_max=1.0, samples=2)[0]
        assert list(drift) == ["t", "re_e1", "re_e2", "re_e3", "re_e4", "re_e5", "re_e6"]
        (convergence,) = convergence_records(cfg, [8])
        assert list(convergence) == ["case", "n", "t_end", "l2", "linf", "wall_seconds", "note"]

    def test_csv_rows_equal_json_records(self):
        cfg = RunConfig.from_mapping(
            {"case": "standing", "n_x": 16, "n_y": 12, "n_z": 8, "eps": 0.5,
             "report_axis": 2, "t_end": [1.0, 3.0]}
        )
        records = run_records(cfg)
        header, *rows = records_to_csv(records).splitlines()
        assert header == CSV_COLUMNS
        for row, rec in zip(rows, records, strict=True):
            d, axis = rec["drifts"], 1
            expected = [rec["case"], rec["nx"], rec["ny"], rec["nz"], rec["t_end"],
                        rec["l2"], rec["linf"]]
            expected += [d[name]["value"] for name in ("e1", "e2")]
            expected += [d[name][axis]["value"] for name in ("e3", "e4", "e5", "e6")]
            expected += [d[name]["value"] for name in ("h1", "h2")]
            expected += [d[name][axis]["value"] for name in ("m1", "m2")]
            expected += [rec["div_e"], rec["div_h"], rec["wall_seconds"]]
            got = row.split(",")
            assert got[0] == expected[0]
            assert [int(v) for v in got[1:4]] == expected[1:4]
            assert [float(v) for v in got[4:]] == expected[4:]


class TestDriftRecords:
    def test_sample_schedule(self):
        cfg = RunConfig.from_mapping({"case": "standing"})
        records = drift_records(cfg, t_max=10.0, samples=2)
        assert [r["t"] for r in records] == [5.0, 10.0]

    def test_minimum_samples(self):
        cfg = RunConfig.from_mapping({"case": "standing"})
        with pytest.raises(ConfigError, match="samples"):
            drift_records(cfg, t_max=10.0, samples=1)

    def test_energy_drift_values_small(self):
        cfg = RunConfig.from_mapping({"case": "traveling"})
        records = drift_records(cfg, t_max=100.0, samples=4)
        assert len(records) == 4
        assert max(r["re_e1"]["value"] for r in records) <= 1e-12

    @pytest.mark.parametrize("raw", _GRIDS, ids=_GRID_IDS)
    def test_drifts_match_propagated_physical_fields(self, raw):
        # Drifts measured on the stepped spectrum agree with those of the
        # physical fields it is transformed back into, up to the inverse's
        # roundoff.
        cfg = RunConfig.from_mapping(raw)
        t_max, samples = 1e4, 5
        records = drift_records(cfg, t_max=t_max, samples=samples)
        initial = _initial_spectrum(cfg)
        before = invariant_report(initial)
        for i, record in enumerate(records, start=1):
            t = t_max * i / samples
            assert record["t"] == t
            final = to_physical(propagate(initial, t), overwrite=True)
            physical = relative_change(before, invariant_report(final))
            for name in ("e1", "e2", "e3", "e4", "e5", "e6"):
                got = record[f"re_{name}"]
                want = getattr(physical, name)
                pairs = zip(got, want) if isinstance(want, tuple) else [(got, want)]
                for g, w in pairs:
                    assert abs(g["value"] - w.value) <= 1e-15, (name, t, g, w)
                    assert g["absolute"] == w.absolute, (name, t)
                    if name in ("e5", "e6"):
                        assert g["value"] == 0.0


class TestConvergenceRecords:
    def test_roundoff_floor_across_resolutions(self):
        cfg = RunConfig.from_mapping({"case": "traveling", "t_end": [1.0]})
        records = convergence_records(cfg, [4, 8, 16])
        assert [r["n"] for r in records] == [4, 8, 16]
        assert all(r["linf"] <= 1e-9 for r in records)
        assert all("roundoff floor" in r["note"] for r in records)

    def test_under_resolved_entry_rejected(self):
        cfg = RunConfig.from_mapping({"case": "standing", "t_end": [1.0]})
        with pytest.raises(ConfigError, match="alias"):
            convergence_records(cfg, [6, 8])

    def test_standing_sweep_stays_at_floor(self):
        cfg = RunConfig.from_mapping({"case": "standing", "t_end": [1.0]})
        records = convergence_records(cfg, [8, 16, 32])
        assert all(r["linf"] <= 1e-9 for r in records)


class TestMainEntry:
    def test_run_json_output(self, tmp_path, capsys):
        code = cli.main(["run", "--case", "standing", "--t-end", "1"])
        assert code == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["t_end"] == 1.0

    def test_run_csv_schema(self, capsys):
        code = cli.main(["run", "--case", "traveling", "--t-end", "1,5", "--csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "traveling"
        assert float(first[6]) <= 1e-10  # linf column

    @pytest.mark.parametrize(
        "argv, times",
        [
            (["run", "--t-end", "-2.5,1"], [-2.5, 1.0]),
            (["run", "--t-end", "-1e5"], [-1e5]),
            (["drift", "--t-max", "-1e4", "--samples", "2"], [-5e3, -1e4]),
        ],
        ids=["t-end-list", "t-end-exponent", "t-max-exponent"],
    )
    def test_negative_time_as_its_own_word(self, capsys, argv, times):
        # Not only as --t-end=-2.5,1: argparse alone reads these words as
        # unknown options.
        code = cli.main([argv[0], "--case", "standing", "--n", "8", *argv[1:]])
        assert code == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        assert [r["t_end" if argv[0] == "run" else "t"] for r in records] == times

    def test_config_file_with_overrides(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"case": "standing", "n_x": 8, "n_y": 8, "n_z": 8, "t_end": [7.0]}
        )
        out = tmp_path / "records.json"
        code = cli.main(
            ["run", "--config", path, "--t-end", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        records = json.loads(out.read_text())
        assert [r["t_end"] for r in records] == [2.0]

    def test_unwritable_out_exits_config(self, tmp_path, capsys):
        out = tmp_path / "missing" / "records.json"
        argv = ["run", "--case", "standing", "--n", "8", "--t-end", "1", "--out", str(out)]
        assert cli.main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: cannot write output file")
        assert not out.parent.exists()

    def test_failed_run_leaves_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "records.json"
        out.write_text("kept")
        argv = ["run", "--case", "traveling", "--n", "8", "--t-end", "1e200", "--out", str(out)]
        assert cli.main(argv) == EXIT_NUMERICAL
        assert out.read_text() == "kept"

    def test_config_not_utf8_exits_config(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"case": "standing", "n_x": \xff}')
        assert cli.main(["run", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: config file is not valid JSON")

    def test_n_flag_sets_all_axes(self, capsys):
        code = cli.main(["run", "--case", "traveling", "--n", "4", "--t-end", "1"])
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)[0]
        assert (record["nx"], record["ny"], record["nz"]) == (4, 4, 4)

    def test_missing_case_exits_config(self, capsys):
        assert cli.main(["run"]) == EXIT_CONFIG
        assert "no case selected" in capsys.readouterr().err

    def test_unknown_config_field_exits_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {"case": "standing", "bogus": 1})
        assert cli.main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "unknown config fields" in capsys.readouterr().err

    def test_invalid_json_exits_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "fields",
        [
            {"eps": "inf"},
            {"eps": float("inf")},
            {"mu": -1.0},
            {"eps": -2},
            {"mu": "abc"},
            {"eps": None},
            {"mu": True},
            pytest.param({"mu": 10**400}, id="{'mu': 10**400}"),  # beyond float range
            pytest.param(
                {"k_x": 10**400, "k_y": -10**400, "k_z": 0},
                id="{'k_x': 10**400, 'k_y': -10**400, 'k_z': 0}",
            ),
            {"t_end": "12"},
            {"t_end": True},
            {"t_end": [1.0, None]},
            {**_STANDING_DOMAIN, "x_lo": None},
            {**_STANDING_DOMAIN, "z_hi": "2"},
        ],
        ids=repr,
    )
    def test_bad_numeric_field_exits_config(self, tmp_path, capsys, fields):
        # Each config is valid but for one numeric field.
        path = write_config(tmp_path, {"case": "standing", **fields})
        assert cli.main(["run", "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err

    def test_odd_n_exits_config(self, capsys):
        assert cli.main(["run", "--case", "standing", "--n", "7"]) == EXIT_CONFIG

    def test_drift_entry(self, capsys):
        code = cli.main(
            ["drift", "--case", "standing", "--t-max", "10", "--samples", "2"]
        )
        assert code == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        assert [r["t"] for r in records] == [5.0, 10.0]

    def test_convergence_entry(self, capsys):
        code = cli.main(
            ["convergence", "--case", "traveling", "--n-list", "4,8", "--t-end", "1"]
        )
        assert code == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in records] == [4, 8]

    @pytest.mark.parametrize(
        "argv, calls",
        [
            # Each record is stepped from the initial spectrum, and its
            # invariants are taken on the stepped spectrum.
            (["run", "--case", "standing", "--t-end", "1,2,3,4,5,6,7,8"], 1),
            # Errors only: the initial transform is the one forward call.
            (["convergence", "--case", "traveling", "--n-list", "8",
              "--t-end", "1,2,3"], 1),
            # Each sample is stepped from that spectrum; the invariants are
            # taken on the stepped spectrum.
            (["drift", "--case", "standing", "--t-max", "10", "--samples", "4"], 1),
        ],
        ids=["run", "convergence", "drift"],
    )
    def test_initial_state_transformed_once(self, monkeypatch, capsys, argv, calls):
        forward = propagator.dft3_forward
        counted = []

        def counting_forward(*args, **kwargs):
            counted.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(propagator, "dft3_forward", counting_forward)
        assert cli.main(argv) == EXIT_OK
        assert len(counted) == calls

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["run", "--case", "standing", "--t-end", "1,2,3"], 3),
            (["convergence", "--case", "traveling", "--n-list", "4,8",
              "--t-end", "1,2"], 4),
        ],
        ids=["run", "convergence"],
    )
    def test_inverse_overwrites_the_stepped_spectrum(self, monkeypatch, capsys, argv, calls):
        # Each record's inverse writes its samples over the spectrum
        # propagate returned; a copy would hold a second spectrum, which
        # test_propagator's peak-memory tests bound for this same call.
        to_physical, overwrites = propagator.to_physical, []

        def recording_to_physical(state, **kwargs):
            overwrites.append(kwargs.get("overwrite", False))
            return to_physical(state, **kwargs)

        monkeypatch.setattr(propagator, "to_physical", recording_to_physical)
        assert cli.main(argv) == EXIT_OK
        assert overwrites == [True] * calls

    def test_drift_steps_each_sample_with_no_six_field_inverse(self, monkeypatch, capsys):
        step, times = propagator.step, []

        def recording_step(state, coeffs, **kwargs):
            times.append(coeffs.t)
            return step(state, coeffs, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("drift inverse-transformed a state")

        monkeypatch.setattr(propagator, "step", recording_step)
        monkeypatch.setattr(propagator, "dft3_inverse", refuse)
        argv = ["drift", "--case", "standing", "--t-max", "10", "--samples", "4"]
        assert cli.main(argv) == EXIT_OK
        assert times == [2.5, 5.0, 7.5, 10.0]

    def test_numerical_flag_exits_three(self, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise ImaginaryResidueError("synthetic residue failure")

        monkeypatch.setattr(cli, "propagate", explode)
        code = cli.main(["run", "--case", "standing", "--t-end", "1"])
        assert code == EXIT_NUMERICAL
        assert "numerical flag" in capsys.readouterr().err

    def test_overflowing_time_exits_three(self, capsys):
        # kappa^2 |b|^2 overflows; the coefficient build refuses it before
        # any array work, so no record is written and no numpy warning is
        # printed.
        code = cli.main(["run", "--case", "standing", "--n", "8", "--t-end", "1e200"])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    @pytest.mark.parametrize("column", [0, 4], ids=["kx=0", "kx=n/2"])
    def test_off_hermitian_spectrum_exits_three(self, monkeypatch, capsys, column):
        # A stepped spectrum knocked off Hermitian in a self-conjugate plane
        # by 1e-6 x its magnitude is refused before the inverse transform.
        step = propagator.step

        def perturbed_step(state, coeffs, **kwargs):
            data = step(state, coeffs, **kwargs).data
            size = 1e-6 * np.max(np.abs(data))
            return replace(state, data=perturb_plane(data, state.grid, column, size))

        monkeypatch.setattr(propagator, "step", perturbed_step)
        code = cli.main(["run", "--case", "standing", "--n", "8", "--t-end", "1"])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Hermitian" in captured.err

    def test_json_floats_have_16_significant_digits(self, capsys):
        cli.main(["run", "--case", "standing", "--t-end", "1"])
        out = capsys.readouterr().out
        record = json.loads(out)[0]
        e2 = record["invariants_initial"]["e2"]
        assert e2 == float(f"{e2:.16g}")


def test_benchmark_tracer_bindings_resolve():
    # The benchmark's tracer wraps each (module, attribute) it lists; one that
    # no longer exists is reported unbound, and CI's smoke run refuses that.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unbound = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.BINDINGS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert unbound == []
