import dataclasses
import json
import warnings

import numpy as np
import pytest

from reldep.cli import _csv_text, main
from reldep.dataset import Sample, save_csv
from reldep.synthbench import ConvergencePoint, SynthConfig, sample_synthetic


def write_sample(path, data, label="s"):
    save_csv(Sample(np.asarray(data, dtype=float), label), path)
    return str(path)


@pytest.fixture
def xyz_files(tmp_path, rng):
    j = sample_synthetic(SynthConfig(m=120, gamma3=1.2, seed=4))
    x = write_sample(tmp_path / "x.csv", j.x.data)
    y = write_sample(tmp_path / "y.csv", j.y.data)
    z = write_sample(tmp_path / "z.csv", j.z.data)
    return x, y, z


class TestCmdTest:
    def test_identical_targets_p_half(self, tmp_path, capsys, xyz_files):
        x, y, _ = xyz_files
        assert main(["test", x, y, y]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p_value"] == 0.5
        assert payload["method"] == "dependent"
        assert list(payload) == [
            "method",
            "statistic",
            "std_dev",
            "p_value",
            "alpha",
            "reject_null",
            "m",
            "kernel",
            "warnings",
        ]

    def test_strong_signal_small_p(self, tmp_path, capsys):
        j = sample_synthetic(SynthConfig(m=500, gamma3=1.7, seed=6))
        x = write_sample(tmp_path / "x.csv", j.x.data)
        y = write_sample(tmp_path / "y.csv", j.y.data)
        z = write_sample(tmp_path / "z.csv", j.z.data)
        assert main(["test", x, y, z]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p_value"] < 1e-3
        assert payload["reject_null"] is True

    def test_missing_file_exit_2(self, tmp_path, capsys, xyz_files):
        x, y, _ = xyz_files
        assert main(["test", x, y, str(tmp_path / "nope.csv")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_small_m_exit_3(self, tmp_path, capsys):
        x = write_sample(tmp_path / "x.csv", [[1.0], [2.0], [3.0]])
        assert main(["test", x, x, x]) == 3
        assert "m >= 4" in capsys.readouterr().err

    def test_overflowing_input_exit_3(self, tmp_path, capsys, xyz_files):
        _, y, z = xyz_files
        x = write_sample(tmp_path / "big.csv", np.arange(120.0)[:, None] * 1e200)
        assert main(["test", x, y, z]) == 3
        assert "too large for squared distances" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma, word", [("1e-200", "underflows"), ("1e200", "overflows")])
    def test_out_of_range_bandwidth_exit_3(self, capsys, xyz_files, sigma, word):
        assert main(["test", *xyz_files, "--bandwidth-x", sigma]) == 3
        assert f"square {word} float64" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e160, 1e100])
    def test_overflowing_linear_estimate_exit_3(self, tmp_path, capsys, xyz_files, scale):
        # 1e160 overflows the Gram itself, 1e100 only the estimate's square;
        # either is refused without a NumPy RuntimeWarning.
        _, y, z = xyz_files
        x = write_sample(tmp_path / "big.csv", np.arange(120.0)[:, None] * scale)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["test", x, y, z, "--kernel-x", "linear"]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "HSIC estimate 0-1 overflows float64" in capsys.readouterr().err

    def test_independent_method(self, capsys, xyz_files):
        x, y, z = xyz_files
        assert main(["test", x, y, z, "--method", "independent"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "independent"
        assert isinstance(payload["kernel"]["x"]["bandwidth"], list)

    def test_invalid_alpha_exit_2(self, capsys, xyz_files):
        x, y, z = xyz_files
        assert main(["test", x, y, z, "--alpha", "2"]) == 2

    def test_generalized_pairs(self, tmp_path, capsys, xyz_files):
        x, y, z = xyz_files
        w = write_sample(
            tmp_path / "w.csv",
            sample_synthetic(SynthConfig(m=120, gamma3=0.6, seed=11)).z.data,
        )
        code = main(
            ["test", x, y, z, w, "--pairs", "0-1,0-2,0-3", "--weights", "1,1,-2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "generalized"
        assert 0.0 <= payload["p_value"] <= 1.0
        assert payload["pairs"] == ["0-1", "0-2", "0-3"]
        assert set(payload["kernel"]) == {"0", "1", "2", "3"}

    def test_generalized_needs_both_flags(self, capsys, xyz_files):
        x, y, z = xyz_files
        assert main(["test", x, y, z, "--weights", "1,-1"]) == 2

    def test_pair_index_out_of_range(self, capsys, xyz_files):
        x, y, z = xyz_files
        code = main(["test", x, y, z, "--pairs", "0-5,0-1", "--weights", "1,-1"])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kernel-x", "linear", "--bandwidth-x", "1"], "linear kernel takes no bandwidth"),
            (["--pairs", "0-1,0-2", "--weights", "0,0"], "weight vector must be nonzero"),
            (["--pairs", "0-1,0-2", "--weights", "1"], "weight length 1 does not match 2"),
        ],
    )
    def test_library_refusals_exit_2(self, capsys, xyz_files, flags, message):
        assert main(["test", *xyz_files, *flags]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--weights", "1"], ["--weights", "1,-1", "--alpha", "2"]]
    )
    def test_weights_and_alpha_checked_before_the_summary(self, tmp_path, capsys, xyz_files, flags):
        # A constant input fails the summary with exit 3; bad weights or
        # alpha must be refused first.
        x, y, _ = xyz_files
        c = write_sample(tmp_path / "c.csv", np.ones((120, 1)))
        assert main(["test", x, c, y, "--pairs", "0-1,0-2", *flags]) == 2

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--pairs", "0-1,0-2", "--weights", "1,-1", "--method", "independent"], "--method"),
            (["--pairs", "0-1,0-2", "--weights", "1,-1", "--method", "dependent"], "--method"),
            (["--pairs", "0-1,0-2", "--weights", "1,-1", "--shuffle-split"], "--shuffle-split"),
            (["--shuffle-split"], "--shuffle-split"),
            (["--shuffle-split", "--seed", "5"], "--shuffle-split"),
            (["--seed", "5"], "--seed"),
            (["--method", "independent", "--seed", "5"], "--seed"),
        ],
    )
    def test_flags_the_route_ignores_exit_2(self, capsys, xyz_files, flags, named):
        assert main(["test", *xyz_files, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + named)
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--kernel-z", "linear"], "--kernel-z"),
            (["--kernel-z", "gaussian"], "--kernel-z"),
            (["--bandwidth-z", "0.9"], "--bandwidth-z"),
        ],
    )
    def test_kernel_flags_without_a_file_exit_2(self, capsys, xyz_files, flags, named):
        x, y, _ = xyz_files
        assert main(["test", x, y, "--pairs", "0-1,1-0", "--weights", "1,-1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named} has no input file")
        assert captured.out == ""

    def test_kernel_flags_with_a_file_accepted(self, capsys, xyz_files):
        x, y, _ = xyz_files
        argv = ["test", x, y, "--pairs", "0-1,1-0", "--weights", "1,-1", "--kernel-y", "linear"]
        assert main([*argv, "--bandwidth-x", "0.9"]) == 0
        assert json.loads(capsys.readouterr().out)["kernel"]["1"]["family"] == "linear"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "dependent"],
            ["--method", "independent"],
            ["--method", "independent", "--shuffle-split"],
            ["--method", "independent", "--shuffle-split", "--seed", "7"],
        ],
    )
    def test_flags_of_the_chosen_route_accepted(self, capsys, xyz_files, flags):
        assert main(["test", *xyz_files, *flags]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == flags[1]

    def test_row_mismatch_exit_2_on_every_route(self, tmp_path, capsys, xyz_files):
        x, y, z = xyz_files
        short = write_sample(tmp_path / "short.csv", np.ones((119, 1)))
        for argv in ([x, y, short], [x, y, short, "--pairs", "0-1,0-2", "--weights", "1,-1"]):
            assert main(["test", *argv]) == 2
            assert "sample sizes 120,120,119 differ" in capsys.readouterr().err

    def test_kernel_and_bandwidth_flags(self, capsys, xyz_files):
        x, y, z = xyz_files
        code = main(
            ["test", x, y, z, "--kernel-x", "linear", "--bandwidth-y", "2.0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"]["x"] == {"family": "linear", "bandwidth": None}
        assert payload["kernel"]["y"]["bandwidth"] == 2.0

    def test_csv_format(self, capsys, xyz_files):
        x, y, z = xyz_files
        assert main(["test", x, y, z, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("method,statistic,")
        assert len(lines) == 2

    def test_out_file(self, tmp_path, capsys, xyz_files):
        x, y, z = xyz_files
        out = tmp_path / "result.json"
        assert main(["test", x, y, z, "--out", str(out)]) == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == stdout_payload


class TestCmdHsic:
    def test_self_dependence_positive(self, tmp_path, capsys, rng):
        data = rng.standard_normal((60, 2))
        x = write_sample(tmp_path / "x.csv", data)
        assert main(["hsic", x, x]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hsic"] > 0
        assert payload["variance"] >= 0
        assert payload["m"] == 60

    def test_constant_target_zero(self, tmp_path, capsys, rng):
        x = write_sample(tmp_path / "x.csv", rng.standard_normal((30, 2)))
        y = write_sample(tmp_path / "y.csv", np.ones((30, 1)), "const")
        assert main(["hsic", x, y, "--kernel-y", "linear"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["hsic"]) < 1e-12

    def test_m3_exit_3(self, tmp_path, capsys):
        x = write_sample(tmp_path / "x.csv", [[1.0], [2.0], [3.0]])
        assert main(["hsic", x, x]) == 3

    def test_row_mismatch_exit_2(self, tmp_path, capsys, rng):
        x = write_sample(tmp_path / "x.csv", rng.standard_normal((10, 1)))
        y = write_sample(tmp_path / "y.csv", rng.standard_normal((11, 1)))
        assert main(["hsic", x, y]) == 2

    @pytest.mark.parametrize("flags", [["--kernel-z", "linear"], ["--bandwidth-z", "1.0"]])
    def test_no_z_flags(self, tmp_path, capsys, rng, flags):
        x = write_sample(tmp_path / "x.csv", rng.standard_normal((30, 2)))
        assert main(["hsic", x, x, *flags]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_binary_garbage_exit_2(self, tmp_path, capsys, rng):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x9C, 0x80] * 20))
        x = write_sample(tmp_path / "x.csv", rng.standard_normal((10, 1)))
        assert main(["hsic", x, str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_csv_format_output(self, tmp_path, capsys, rng):
        x = write_sample(tmp_path / "x.csv", rng.standard_normal((30, 2)))
        assert main(["hsic", x, x, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("hsic,variance,m")

    def test_delimiter_and_header_flags(self, tmp_path, capsys):
        p = tmp_path / "semi.csv"
        p.write_text("a;b\n1;2\n3;4\n4;1\n2;0\n", encoding="utf-8")
        assert main(["hsic", str(p), str(p), "--delimiter", ";", "--header"]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 4


class TestExperimentCommands:
    def test_power_grid_rows(self, tmp_path, capsys):
        code = main(
            [
                "power",
                "--gamma3",
                "0.4:0.1:1.7",
                "--m",
                "64",
                "--trials",
                "2",
                "--seed",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert list(summary) == ["experiment", "m", "seed", "trials", "alpha", "rows", "csv"]
        assert summary["rows"] == 14
        csv_lines = (tmp_path / "power_64_5.csv").read_text().splitlines()
        assert len(csv_lines) == 15  # header + 14 grid points
        assert csv_lines[0] == "gamma3,power_dependent,power_independent,trials,alpha,m"
        assert json.loads((tmp_path / "power_64_5.json").read_text()) == summary

    def test_power_empty_grid_exit_2(self, tmp_path, capsys):
        code = main(
            ["power", "--gamma3", "", "--m", "64", "--trials", "2", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_power_byte_identical_reruns(self, tmp_path, capsys):
        argv = [
            "power",
            "--gamma3",
            "0.5,1.0",
            "--m",
            "64",
            "--trials",
            "3",
            "--seed",
            "9",
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == 0
        first_out = capsys.readouterr().out
        first_csv = (tmp_path / "power_64_9.csv").read_bytes()
        assert main(argv) == 0
        assert capsys.readouterr().out == first_out
        assert (tmp_path / "power_64_9.csv").read_bytes() == first_csv

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_calibrate_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        argv = ["calibrate", "--m", "20", "--trials", "2", "--jobs", jobs, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_calibrate(self, tmp_path, capsys):
        code = main(
            ["calibrate", "--m", "64", "--trials", "5", "--seed", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert list(summary) == [
            "experiment", "m", "seed", "trials", "alpha", "rejection_rate", "csv"
        ]
        assert 0.0 <= summary["rejection_rate"] <= 1.0
        lines = (tmp_path / "calibrate_64_2.csv").read_text().splitlines()
        assert lines == ["m,trials,alpha,rejection_rate", f"64,5,0.05,{summary['rejection_rate']!r}"]

    def test_scatter(self, tmp_path, capsys):
        code = main(
            [
                "scatter",
                "--gamma3",
                "0.9",
                "--m",
                "64",
                "--trials",
                "4",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert list(summary) == [
            "experiment", "m", "seed", "gamma3", "trials", "median_p_dep", "median_p_indep", "csv"
        ]
        lines = (tmp_path / "scatter_64_3.csv").read_text().splitlines()
        assert lines[0] == "trial,hsic_xy,hsic_xz,hsic_xy_half,hsic_xz_half,p_dep,p_indep"
        assert len(lines) == 5

    def test_converge(self, tmp_path, capsys):
        code = main(
            [
                "converge",
                "--m-grid",
                "16,32,64",
                "--trials",
                "4",
                "--seed",
                "8",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert list(summary) == [
            "experiment", "m_grid", "seed", "gamma3", "trials", "loglog_slope", "csv"
        ]
        assert summary["m_grid"] == [16, 32, 64]
        lines = (tmp_path / "converge_64_8.csv").read_text().splitlines()
        assert lines[0] == "m,median_abs_dev"
        assert [line.split(",")[0] for line in lines[1:]] == ["16", "32", "64"]

    def test_converge_single_point_exit_2(self, tmp_path, capsys):
        code = main(
            ["converge", "--m-grid", "100", "--trials", "3", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELDEP_SEED", "31")
        code = main(
            ["calibrate", "--m", "64", "--trials", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        env_summary = json.loads(capsys.readouterr().out)
        monkeypatch.delenv("RELDEP_SEED")
        code = main(
            [
                "calibrate",
                "--m",
                "64",
                "--trials",
                "3",
                "--seed",
                "31",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == env_summary

    def test_usage_error_exit_2(self, capsys):
        assert main(["power", "--m", "64", "--trials", "2"]) == 2

    def test_scatter_takes_no_alpha(self, tmp_path, capsys):
        argv = ["scatter", "--gamma3", "0.9", "--m", "64", "--trials", "2", "--alpha", "0.1"]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --alpha" in capsys.readouterr().err


class TestAbbreviatedFlags:
    """A prefix of a flag is not taken for the flag."""

    def test_pair_is_not_pairs(self, capsys, xyz_files):
        assert main(["test", *xyz_files, "--pair", "0-1,0-2", "--weights", "1,-1"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --pair" in captured.err
        assert captured.out == ""

    def test_m_is_not_m_grid(self, tmp_path, capsys):
        argv = ["converge", "--m-grid", "10,20,30", "--m", "10", "--trials", "2"]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --m" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestCsvWriter:
    def test_round_trip_text(self):
        rows = [dataclasses.asdict(ConvergencePoint(m=10, median_abs_dev=0.125))]
        text = _csv_text(rows)
        assert text.splitlines()[0] == "m,median_abs_dev"
        assert text.splitlines()[1] == "10,0.125"

    def test_cell_rules(self):
        row = {"f": 0.1, "d": {"k": 1}, "l": [1.5], "n": None, "b": True, "s": "a,b"}
        assert _csv_text([row]) == 'f,d,l,n,b,s\r\n0.1,"{""k"": 1}",[1.5],,True,"a,b"\r\n'
