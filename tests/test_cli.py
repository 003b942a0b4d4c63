"""CLI surface: config parsing, record schemas, exit codes, determinism."""

import json

import pytest

from psmaxwell import cli
from psmaxwell.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    convergence_records,
    drift_records,
    run_records,
)
from psmaxwell.spectral import ImaginaryResidueError


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

    def test_json_floats_have_16_significant_digits(self, capsys):
        cli.main(["run", "--case", "standing", "--t-end", "1"])
        out = capsys.readouterr().out
        record = json.loads(out)[0]
        e2 = record["invariants_initial"]["e2"]
        assert e2 == float(f"{e2:.16g}")
