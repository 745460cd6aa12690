import csv
import io
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import revisit as rv
from revisit import cli
from revisit.cases import (
    CSV_COLUMNS,
    CaseConfig,
    SweepSpec,
    case_from_dict,
    case_row,
    parse_walker,
    resolve_case,
    rows_to_csv,
    run_sweep,
    sweep_from_dict,
)
from revisit.cli import _case_from_args, build_parser, main
from revisit.engine import EngineSettings, analyze
from revisit.errors import ConfigError

FAST = dict(window_days=3.0, grid_res_deg=1.0)

BASE = CaseConfig(
    altitude_km=600.0, inclination_deg=55.0, elevation_deg=15.0,
    latitude_deg=20.0, **FAST,
)


class TestCaseConfig:
    def test_requires_exactly_one_inclination_source(self):
        with pytest.raises(ConfigError):
            resolve_case(CaseConfig(altitude_km=500.0, elevation_deg=10.0))
        with pytest.raises(ConfigError):
            resolve_case(
                CaseConfig(altitude_km=500.0, inclination_deg=50.0, sso=True, elevation_deg=10.0)
            )

    def test_requires_exactly_one_sensor(self):
        with pytest.raises(ConfigError):
            resolve_case(CaseConfig(altitude_km=500.0, inclination_deg=50.0))
        with pytest.raises(ConfigError):
            resolve_case(
                CaseConfig(
                    altitude_km=500.0, inclination_deg=50.0,
                    elevation_deg=10.0, boresight_deg=30.0,
                )
            )

    def test_requires_exactly_one_size(self):
        with pytest.raises(ConfigError):
            resolve_case(CaseConfig(inclination_deg=50.0, elevation_deg=10.0))
        with pytest.raises(ConfigError):
            resolve_case(
                CaseConfig(
                    altitude_km=500.0, semi_major_axis_km=6878.0,
                    inclination_deg=50.0, elevation_deg=10.0,
                )
            )

    def test_sso_resolution(self):
        rc = resolve_case(
            CaseConfig(altitude_km=500.0, sso=True, elevation_deg=30.0, **FAST)
        )
        assert rc.inclination_deg == pytest.approx(97.4, abs=0.1)

    def test_walker_string_and_dict(self):
        assert parse_walker("3/3/1") == (3, 3, 1)
        with pytest.raises(ConfigError):
            parse_walker("3-3-1")
        cfg = case_from_dict({"altitude_km": 500.0, "walker": "4/2/1"})
        assert cfg.walker == (4, 2, 1)
        with pytest.raises(ConfigError):
            case_from_dict({"no_such_field": 1})
        with pytest.raises(ConfigError, match=r"t/p/f.*\[t, p, f\]"):
            case_from_dict({"altitude_km": 500.0, "walker": {"t": 3, "p": 3, "f": 1}})
        for walker in (["a", "b", "c"], [1.5, 1, 0], [True, True, False]):
            cfg = case_from_dict({"altitude_km": 500.0, "walker": walker})
            with pytest.raises(ConfigError, match=r"^walker entries must be integers"):
                resolve_case(cfg)

    def test_case_inputs_match_engine(self):
        rc = resolve_case(BASE)
        rep = analyze(**rc.inputs())
        want = analyze(rc.elements, rc.sensor, rc.lat, walker=rc.walker, settings=rc.settings)
        assert rep == want

    def test_degenerate_walker_identical_to_single(self):
        single = analyze(**resolve_case(BASE).inputs())
        walker = analyze(**resolve_case(replace(BASE, walker=(1, 1, 0))).inputs())
        assert walker == single


def _refusal(make, **kwargs) -> str | None:
    """The ConfigError message of make(**kwargs), or None when it accepts them."""
    try:
        make(**kwargs)
    except ConfigError as exc:
        return str(exc)
    return None


class TestSettingsHaveOneHome:
    def test_a_case_that_sets_no_engine_field_runs_the_engine_defaults(self):
        unset = CaseConfig(altitude_km=700.0, inclination_deg=60.0, elevation_deg=10.0)
        assert resolve_case(unset).settings == EngineSettings()

    @pytest.mark.parametrize("case_field, engine_field, to_engine, accepts", [
        ("window_days", "window", lambda d: d * 86400.0, {
            0.0: False, 5e-324: True, 3660.0: True, float(np.nextafter(3660.0, 4e3)): False,
        }),
        ("grid_res_deg", "grid_res", math.radians, {
            float(np.nextafter(0.001, 0.0)): False, 0.001: True,
            1.0: True, float(np.nextafter(1.0, 2.0)): False,
        }),
        ("segment_samples", "segment_samples", lambda n: n, {
            2: False, 3: True, 1_000_000: True, 1_000_001: False,
        }),
    ], ids=["window", "grid", "samples"])
    def test_case_and_engine_share_each_bound(self, case_field, engine_field, to_engine, accepts):
        # At each bound and one step past it, a case and the engine's own
        # settings accept and refuse alike, each naming its own field.
        def case(value):
            return resolve_case(replace(BASE, **{case_field: value}))

        for value, accepted in accepts.items():
            by_case = _refusal(case, value=value)
            by_engine = _refusal(EngineSettings, **{engine_field: to_engine(value)})
            assert (by_case is None, by_engine is None) == (accepted, accepted), value
            if not accepted:
                assert by_case.startswith(f"{case_field} "), by_case
                assert by_engine.startswith(f"{engine_field} "), by_engine


class TestSweep:
    def test_axis_values_inclusive(self):
        spec = SweepSpec(base=BASE, axes={"altitude_km": (400.0, 600.0, 100.0)})
        assert spec.axis_values("altitude_km").tolist() == [400.0, 500.0, 600.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec(base=BASE, axes={}).cells()
        with pytest.raises(ConfigError):
            SweepSpec(base=BASE, axes={"walker": (1, 2, 1)}).cells()
        with pytest.raises(ConfigError):
            SweepSpec(base=BASE, axes={"altitude_km": (500.0, 400.0, 50.0)}).cells()

    def test_single_cell_sweep_equals_analyze(self):
        spec = SweepSpec(base=BASE, axes={"altitude_km": (600.0, 600.0, 50.0)})
        rows = run_sweep(spec, max_workers=1)
        assert len(rows) == 1
        rep = analyze(**resolve_case(BASE).inputs())
        assert rows[0]["mrt_h"] == f"{rep.mrt_hours:.6f}"
        assert rows[0]["error"] == ""

    def test_two_axis_row_order_and_schema(self):
        spec = SweepSpec(
            base=BASE,
            axes={"altitude_km": (500.0, 600.0, 100.0), "latitude_deg": (0.0, 10.0, 10.0)},
        )
        rows = run_sweep(spec, max_workers=2)
        assert len(rows) == 4
        assert [r["case_id"] for r in rows] == ["0", "1", "2", "3"]
        assert [r["alt_km"][:3] for r in rows] == ["500", "500", "600", "600"]
        csv = rows_to_csv(rows)
        header = csv.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_determinism_byte_identical(self):
        spec = SweepSpec(base=BASE, axes={"latitude_deg": (0.0, 20.0, 10.0)})
        a = rows_to_csv(run_sweep(spec, max_workers=1))
        b = rows_to_csv(run_sweep(spec, max_workers=2))
        assert a == b

    def test_error_cell_continues(self):
        # Latitude above the inclination: that cell errors, others run.
        spec = SweepSpec(base=BASE, axes={"latitude_deg": (50.0, 60.0, 10.0)})
        rows = run_sweep(spec, max_workers=1)
        assert "LatitudeUnreachableError" in rows[1]["error"]
        assert rows[0]["error"] == "" and rows[0]["mrt_h"] != ""

    @pytest.mark.parametrize(
        "name, axis, cells, bad",
        [
            ("boresight_deg", [80.0, 95.0, 5.0], ["80.000", "85.000", "90.000", "95.000"],
             ["90.000", "95.000"]),
            ("elevation_deg", [-10.0, 10.0, 10.0], ["-10.000", "0.000", "10.000"], ["-10.000"]),
        ],
        ids=["boresight", "elevation"],
    )
    def test_bad_sensor_angle_stays_in_its_cell(self, tmp_path, capsys, name, axis, cells, bad):
        case = {"altitude_km": 600.0, "inclination_deg": 55.0, "latitude_deg": 20.0, **FAST}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"case": case, "sweep": {name: axis}}))
        out_path = tmp_path / "out.csv"
        code = main(["sweep", "--config", str(path), "--workers", "1", "--out", str(out_path)])
        header, *lines = out_path.read_text().splitlines()
        assert all(line.count(",") == header.count(",") for line in lines)
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert code == 1
        assert "cell(s) failed" in capsys.readouterr().err
        assert [r["sensor_deg"] for r in rows] == cells
        for row in rows:
            if row["sensor_deg"] in bad:
                assert row["error"].startswith(f"ConfigError: {name}=")
                assert row["mrt_h"] == ""
            else:
                assert row["error"] == "" and row["mrt_h"] != ""

    def test_error_messages_with_commas_stay_in_one_cell(self):
        rows = [
            case_row(0, replace(BASE, eccentricity=1.5)),
            case_row(1, CaseConfig(altitude_km=6000.0, sso=True, elevation_deg=10.0, **FAST)),
        ]
        header, *read = csv.reader(io.StringIO(rows_to_csv(rows)))
        assert header == list(CSV_COLUMNS)
        assert [len(r) for r in read] == [len(CSV_COLUMNS)] * 2
        errors = [dict(zip(header, r))["error"] for r in read]
        assert errors == [
            "ConfigError: eccentricity must be in [0, 1)",
            "SunSyncInfeasibleError: no sun-synchronous inclination for a=12378.1 km, e=0.0000",
        ]

    def test_bad_altitude_stays_in_its_cell(self):
        spec = SweepSpec(base=BASE, axes={"altitude_km": (-10.0, 590.0, 300.0)})
        rows = run_sweep(spec, max_workers=1)
        assert rows[0]["error"].startswith("ConfigError: altitude_km ")
        assert rows[0]["mrt_h"] == ""
        assert all(r["error"] == "" and r["mrt_h"] != "" for r in rows[1:])

    def test_oversized_window_stays_in_its_cell(self, tmp_path, capsys):
        # A 1e9-day window would ask numpy for over 100 GiB.
        path = tmp_path / "sweep.json"
        sweep = {"window_days": [3, 1e9, 1e9 - 3]}
        path.write_text(json.dumps({"case": BASE.__dict__, "sweep": sweep}))
        out_path = tmp_path / "out.csv"
        code = main(["sweep", "--config", str(path), "--workers", "1", "--out", str(out_path)])
        rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
        assert code == 1
        assert "1 cell(s) failed" in capsys.readouterr().err
        assert [r["window_days"] for r in rows] == ["3.000", "1000000000.000"]
        assert rows[0]["error"] == "" and rows[0]["mrt_h"] != ""
        assert rows[1]["error"].startswith("ConfigError: window_days ")
        assert rows[1]["mrt_h"] == ""

    @pytest.mark.parametrize(
        "name, value, error",
        [("walker", "3/2/0", "walker 3/2/0 "), ("window_days", "2", "window_days ")],
        ids=["walker", "window_str"],
    )
    def test_bad_case_value_fails_every_cell(self, tmp_path, capsys, name, value, error):
        case = {**BASE.__dict__, name: value}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"case": case, "sweep": {"latitude_deg": [0, 20, 10]}}))
        out_path = tmp_path / "out.csv"
        code = main(["sweep", "--config", str(path), "--workers", "1", "--out", str(out_path)])
        rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
        assert code == 1
        assert "3 cell(s) failed" in capsys.readouterr().err
        assert [r["lat_deg"] for r in rows] == ["0.000", "10.000", "20.000"]
        assert all(r["error"].startswith(f"ConfigError: {error}") for r in rows)

    def test_window_exceeded_sentinel(self):
        cfg = CaseConfig(
            altitude_km=600.0, inclination_deg=55.0, boresight_deg=1.0,
            latitude_deg=20.0, window_days=0.5, grid_res_deg=1.0,
        )
        row = case_row(0, cfg)
        assert row["error"] == "window_exceeded"
        assert row["mrt_h"] == ""
        assert row["coverage_frac"] != ""

    def test_sweep_from_dict(self):
        spec = sweep_from_dict(
            {
                "case": {"altitude_km": 500.0, "inclination_deg": 50.0,
                         "elevation_deg": 10.0, "window_days": 2.0, "grid_res_deg": 1.0},
                "sweep": {"altitude_km": {"min": 400.0, "max": 500.0, "step": 50.0}},
            }
        )
        assert len(spec.cells()) == 3


class TestCli:
    def test_run_basic(self, capsys):
        code = main([
            "run", "--altitude-km", "600", "--inclination-deg", "55",
            "--elevation-deg", "15", "--latitude-deg", "20",
            "--window-days", "3", "--grid-res-deg", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "mrt_h=" in out and "coverage_frac=" in out

    @pytest.mark.parametrize("boresight_deg, warned", [("80", True), ("30", False)])
    def test_run_warns_of_a_clamped_footprint(self, capsys, boresight_deg, warned):
        code = main([
            "run", "--altitude-km", "500", "--inclination-deg", "60",
            "--boresight-deg", boresight_deg, "--window-days", "1", "--grid-res-deg", "1",
        ])
        err = capsys.readouterr().err
        assert code == 0
        assert err == ("warning: field of regard reaches past the horizon; ground range clamped\n"
                       if warned else "")

    def test_run_csv_row(self, capsys):
        code = main([
            "run", "--altitude-km", "600", "--inclination-deg", "55",
            "--elevation-deg", "15", "--latitude-deg", "20",
            "--window-days", "3", "--grid-res-deg", "1", "--csv",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert len(out.splitlines()) == 2

    def test_csv_with_oracle_is_named_config_error(self, capsys):
        # The CSV schema has no oracle columns, so the pair is refused
        # rather than the oracle dropped.
        code = main([
            "run", "--walker", "3/3/0", "--altitude-km", "600", "--inclination-deg", "55",
            "--elevation-deg", "15", "--window-days", "3", "--grid-res-deg", "1",
            "--csv", "--oracle",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--csv" in captured.err and "--oracle" in captured.err

    def test_every_case_field_is_set_by_its_flag(self, capsys):
        argv = [
            "--altitude-km", "601", "--semi-major-axis-km", "7001", "--eccentricity", "0.01",
            "--inclination-deg", "51", "--sso", "--boresight-deg", "31", "--elevation-deg", "11",
            "--latitude-deg", "21", "--walker", "6/3/2", "--raan-deg", "1", "--argp-deg", "2",
            "--nu0-deg", "3", "--window-days", "4", "--grid-res-deg", "0.5",
            "--segment-samples", "500",
        ]
        want = CaseConfig(
            altitude_km=601.0, semi_major_axis_km=7001.0, eccentricity=0.01,
            inclination_deg=51.0, sso=True, boresight_deg=31.0, elevation_deg=11.0,
            latitude_deg=21.0, walker=(6, 3, 2), raan_deg=1.0, argp_deg=2.0, nu0_deg=3.0,
            window_days=4.0, grid_res_deg=0.5, segment_samples=500,
        )
        # Every field differs from its default, so each flag must reach it.
        assert all(getattr(want, f.name) != f.default for f in fields(CaseConfig))
        got = _case_from_args(build_parser().parse_args(["run", *argv]))
        assert got == want
        assert [type(getattr(got, f.name)) for f in fields(CaseConfig)] == [
            type(getattr(want, f.name)) for f in fields(CaseConfig)
        ]
        # The help lists the flags in field order, after --config.
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        flags = ["--config"] + [a for a in argv if a.startswith("--")]
        assert [out.index(f"  {flag}") for flag in flags] == sorted(
            out.index(f"  {flag}") for flag in flags
        )

    def test_run_config_error_exit_code(self, capsys):
        code = main(["run", "--altitude-km", "600", "--elevation-deg", "15"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--altitude-km", "-10"], "altitude_km"),
            (["--altitude-km", "nan"], "altitude_km"),
            (["--semi-major-axis-km", "6370"], "semi_major_axis_km"),
            (["--window-days", "inf"], "window_days"),
            (["--grid-res-deg", "nan"], "grid_res_deg"),
            (["--grid-res-deg", "5"], "grid_res_deg"),
            (["--segment-samples", "2"], "segment_samples"),
            (["--grid-res-deg", "1e-9"], "grid_res_deg"),
            (["--window-days", "1e9"], "window_days"),
            (["--semi-major-axis-km", "1e9"], "semi_major_axis_km"),
            (["--walker", "3/2/0"], "walker"),
            (["--walker", "3/3/5"], "walker"),
            (["--walker", "0/1/0"], "walker"),
            (["--oracle", "--oracle-step", "0"], "oracle_step"),
            (["--oracle", "--oracle-step", "0.05"], "oracle_step"),
            (["--oracle", "--oracle-step", "nan"], "oracle_step"),
            (["--oracle", "--oracle-step", "inf"], "oracle_step"),
            (["--oracle", "--oracle-step", "0.06"], "oracle_step"),
        ],
        ids=[
            "alt_neg", "alt_nan", "sma_below", "window_inf", "grid_nan", "grid_5", "samples_2",
            "grid_1e-9", "window_1e9", "sma_1e9",
            "walker_divide", "walker_phasing", "walker_empty",
            "step_0", "step_below_tol", "step_nan", "step_inf", "step_count",
        ],
    )
    def test_bad_number_is_named_config_error(self, capsys, flags, name):
        size = [] if "--semi-major-axis-km" in flags else ["--altitude-km", "600"]
        code = main([
            "run", *size, "--inclination-deg", "55", "--elevation-deg", "15",
            "--window-days", "3", "--grid-res-deg", "1", *flags,
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {name} ")

    @pytest.mark.parametrize(
        "command, section, name",
        [
            ("run", {"case": {"sso": "no"}}, "sso"),
            ("run", {"case": {"window_days": "2"}}, "window_days"),
            ("run", {"case": {"latitude_deg": None}}, "latitude_deg"),
            ("run", {"case": {"segment_samples": 999.5}}, "segment_samples"),
            ("sweep", {"sweep": {"latitude_deg": [10, 20]}}, "latitude_deg"),
            ("sweep", {"sweep": {"latitude_deg": {"min": 10}}}, "latitude_deg"),
            ("sweep", {"sweep": {"latitude_deg": [10, 20, "x"]}}, "latitude_deg"),
            ("sweep", {"sweep": {"latitude_deg": [10, math.inf, 10]}}, "latitude_deg"),
            ("sweep", {"sweep": {"latitude_deg": [math.nan, 20, 10]}}, "latitude_deg"),
            ("sweep", {"sweep": {"latitude_deg": [10, 20, math.nan]}}, "latitude_deg"),
            ("sweep", {"sweep": {"latitude_deg": [10, 20, math.inf]}}, "latitude_deg"),
        ],
        ids=["sso_str", "window_str", "lat_null", "samples_float",
             "range_short", "range_dict_short", "range_str",
             "range_max_inf", "range_min_nan", "range_step_nan", "range_step_inf"],
    )
    def test_config_value_of_wrong_type_is_named(self, tmp_path, capsys, command, section, name):
        case = {"altitude_km": 600.0, "inclination_deg": 55.0, "elevation_deg": 15.0,
                "latitude_deg": 20.0, **FAST}
        config = {**section, "case": {**case, **section.get("case", {})}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name} ")

    @pytest.mark.parametrize(
        "command, config, name",
        [
            ("run", [1, 2], "config"),
            ("run", 5, "config"),
            ("sweep", 5, "config"),
            ("run", {"case": 5}, "case"),
            ("sweep", {"case": [1], "sweep": {"latitude_deg": [10, 20, 10]}}, "case"),
            ("sweep", {"case": {}, "sweep": [1, 2, 3]}, "sweep"),
        ],
        ids=["run_list", "run_number", "sweep_number", "case_number", "case_list",
             "sweep_list"],
    )
    def test_config_section_not_an_object_is_named(self, tmp_path, capsys, command, config, name):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} ") and "must be a JSON object" in err

    @pytest.mark.parametrize(
        "sweep, name, also",
        [
            ({"latitude_deg": [0, 80, 1e-12]}, "latitude_deg", "more than 100000 cells"),
            ({"latitude_deg": [0, 80, 5e-324]}, "latitude_deg", "more than 100000 cells"),
            ({"latitude_deg": [0, 1, 1e-5]}, "latitude_deg", "100001 cells"),
            ({"latitude_deg": [0, 80, 0.01], "altitude_km": [400, 800, 0.5]},
             "latitude_deg", "altitude_km"),
        ],
        ids=["axis", "axis_overflows", "axis_one_over", "product"],
    )
    def test_sweep_with_too_many_cells_is_named(self, tmp_path, capsys, sweep, name, also):
        case = {"altitude_km": 600.0, "inclination_deg": 55.0, "elevation_deg": 15.0, **FAST}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"case": case, "sweep": sweep}))
        assert main(["sweep", "--config", str(path), "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} ") and also in err

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_sweep_with_fewer_than_one_worker_is_named(self, tmp_path, capsys, workers):
        path = tmp_path / "sweep.json"
        sweep = {"latitude_deg": [0, 20, 10]}
        path.write_text(json.dumps({"case": BASE.__dict__, "sweep": sweep}))
        assert main(["sweep", "--config", str(path), "--workers", workers]) == 1
        assert capsys.readouterr().err.startswith("error: max_workers must be an integer")

    @pytest.mark.parametrize("workers", [0, -4, 2.5, True])
    def test_run_sweep_rejects_a_bad_worker_count(self, workers):
        spec = SweepSpec(base=BASE, axes={"latitude_deg": (0.0, 20.0, 10.0)})
        with pytest.raises(ConfigError, match="^max_workers "):
            run_sweep(spec, max_workers=workers)

    @pytest.mark.parametrize("axis", ["walker", "altitude"])
    def test_sweeping_a_field_that_cannot_be_swept_names_it(self, tmp_path, capsys, axis):
        case = {"altitude_km": 600.0, "inclination_deg": 55.0, "elevation_deg": 15.0, **FAST}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"case": case, "sweep": {axis: [1, 2, 1]}}))
        assert main(["sweep", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot sweep {axis!r}")

    def test_run_missing_config_file(self, capsys):
        code = main(["run", "--config", "/nonexistent.json"])
        assert code == 1

    def test_run_with_config_and_override(self, tmp_path, capsys):
        cfg = {
            "case": {
                "altitude_km": 600.0, "inclination_deg": 55.0,
                "elevation_deg": 15.0, "latitude_deg": 0.0,
                "window_days": 3.0, "grid_res_deg": 1.0,
            }
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--latitude-deg", "20", "--csv"])
        out = capsys.readouterr().out
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("lat_deg")] == "20.000"

    def test_sensor_override_replaces_mode(self, tmp_path, capsys):
        cfg = {"case": {"altitude_km": 600.0, "inclination_deg": 55.0,
                        "elevation_deg": 15.0, "window_days": 2.0, "grid_res_deg": 1.0}}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--boresight-deg", "30", "--csv"])
        out = capsys.readouterr().out
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("sensor_mode")] == "boresight"

    @pytest.mark.parametrize(
        "config, flags, error",
        [
            (None, ["--altitude-km", "600", "--sso", "--inclination-deg", "50",
                    "--elevation-deg", "15"], "inclination_deg / sso"),
            ({"altitude_km": 600.0, "inclination_deg": 55.0, "elevation_deg": 15.0},
             ["--elevation-deg", "10", "--boresight-deg", "30"], "boresight_deg / elevation_deg"),
        ],
        ids=["sso_and_inclination", "config_elevation_and_both_sensor_flags"],
    )
    def test_both_flags_of_a_pair_are_rejected(self, tmp_path, capsys, config, flags, error):
        args = ["run", *flags, "--window-days", "2", "--grid-res-deg", "1"]
        if config is not None:
            path = tmp_path / "case.json"
            path.write_text(json.dumps({"case": config}))
            args += ["--config", str(path)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: give exactly one of {error}\n"

    def test_flag_drops_the_files_other_side(self, tmp_path, capsys):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({"case": {
            "altitude_km": 600.0, "inclination_deg": 55.0, "elevation_deg": 15.0, **FAST,
        }}))
        code = main(["run", "--config", str(path), "--semi-major-axis-km", "7000", "--csv"])
        out = capsys.readouterr().out
        assert code == 0
        row = dict(zip(CSV_COLUMNS, out.splitlines()[1].split(",")))
        assert row["alt_km"] == f"{7000.0 - rv.EARTH.equatorial_radius:.3f}"
        assert row["error"] == ""

    def test_sweep_to_file(self, tmp_path):
        cfg = {
            "case": {"altitude_km": 600.0, "inclination_deg": 55.0,
                     "elevation_deg": 15.0, "latitude_deg": 20.0,
                     "window_days": 2.0, "grid_res_deg": 1.0},
            "sweep": {"altitude_km": {"min": 500.0, "max": 700.0, "step": 100.0}},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out_path = tmp_path / "out.csv"
        code = main(["sweep", "--config", str(path), "--workers", "1", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 4

    def test_sweep_requires_sweep_section(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"case": {"altitude_km": 500.0}}))
        assert main(["sweep", "--config", str(path)]) == 1

    def test_bad_oracle_step_fails_before_the_engine_runs(self, capsys, monkeypatch):
        def engine_ran(*args, **kwargs):
            raise AssertionError("analyze() ran before the oracle step was checked")

        monkeypatch.setattr(cli, "analyze", engine_ran)
        code = main([
            "run", "--altitude-km", "600", "--inclination-deg", "55", "--elevation-deg", "15",
            "--window-days", "3", "--grid-res-deg", "1", "--oracle", "--oracle-step", "0",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: oracle_step 0 is invalid: ")

    def test_oracle_cross_check(self, capsys):
        code = main([
            "run", "--altitude-km", "650", "--inclination-deg", "65",
            "--elevation-deg", "12", "--latitude-deg", "25",
            "--window-days", "2", "--grid-res-deg", "1",
            "--oracle", "--oracle-step", "20",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle_mrt_h=" in out
        assert "mrt_diff_h=" in out
