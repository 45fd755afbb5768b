"""Tests for scenario files and the command-line front end."""

import json
from pathlib import Path

import pytest

from tdslink.analysis import BerMode
from tdslink.cli import main
from tdslink.config import ConfigError, load_scenario
from tdslink.montecarlo import CSV_HEADER

MINIMAL = """
[frame]
n_fft = 256
pn_len = 64
dual_pn = true
modulation = qam16

[sweep]
ebn0_db = 6, 8

[mc]
min_bits = 20000
min_errors = 20
max_frames = 400

[run]
seed = 5
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(MINIMAL)
    return path


class TestConfigFiles:
    def test_minimal_round_trip(self, cfg_file):
        cfg = load_scenario(cfg_file)
        assert cfg.frame.n_fft == 256
        assert cfg.frame.modulation == "qam16"
        assert cfg.ebn0_sweep == (6.0, 8.0)
        assert cfg.seed == 5
        assert cfg.ber_mode is BerMode.BITS_PER_AXIS
        assert cfg.channel.name == "awgn"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL.replace("n_fft = 256", "n_ffl = 256"))
        with pytest.raises(ConfigError, match="unknown key"):
            load_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "\n[shaping]\nspan = 8\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_scenario(path)

    def test_epsilon_and_grid_conflict(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "\n[phase]\nepsilon = 0.25\ngrid = 8\n")
        with pytest.raises(ConfigError, match="either epsilon or grid"):
            load_scenario(path)

    def test_bad_values_rejected(self, tmp_path):
        for old, new, match in [
            ("n_fft = 256", "n_fft = twelve", "expected an integer"),
            ("modulation = qam16", "modulation = qam32", "unknown modulation"),
            ("seed = 5", "seed = 5\nber_mode = magic", "ber_mode"),
            ("ebn0_db = 6, 8", "ebn0_db = 10, 6", "sorted"),
            ("min_bits = 20000", "min_bits = 20000\nequalizer = psychic",
             "equalizer"),
            ("max_frames = 400", "max_frames = 400\nframes_per_burst = 2",
             "frames_per_burst"),
        ]:
            path = tmp_path / "bad.cfg"
            path.write_text(MINIMAL.replace(old, new))
            with pytest.raises(ConfigError, match=match):
                load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "nope.cfg")

    def test_profile_path_relative_to_config(self, tmp_path):
        (tmp_path / "taps.txt").write_text("0.0 1.0 0.0\n0.5 0.6 0.0\n")
        path = tmp_path / "scenario.cfg"
        path.write_text(MINIMAL + "\n[channel]\nprofile = taps.txt\n")
        cfg = load_scenario(path)
        assert cfg.channel.name == "taps"
        assert cfg.channel.delays.size == 2

    def test_shipped_recipes_parse(self):
        configs = Path(__file__).resolve().parent.parent / "configs"
        for name in ("fig3.cfg", "fig5.cfg", "fig6.cfg", "sec4-comparison.cfg"):
            cfg = load_scenario(configs / name)
            assert cfg.frame.n_fft >= 1024


class TestCli:
    def test_theory_writes_csv_and_sidecar(self, cfg_file, tmp_path):
        out = tmp_path / "out" / "theory.csv"
        rc = main(["theory", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # header + two sweep points
        sidecar = json.loads(Path(str(out) + ".json").read_text())
        assert sidecar["config"]["frame"]["n_fft"] == 256
        assert len(sidecar["fingerprint"]) == 16

    def test_simulate_runs_and_respects_overrides(self, cfg_file, tmp_path):
        out = tmp_path / "mc.csv"
        rc = main(
            [
                "simulate",
                "--config", str(cfg_file),
                "--ebn0", "8",
                "--epsilon", "0.25",
                "--seed", "11",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        row = lines[1].split(",")
        assert float(row[0]) == 8.0
        assert float(row[1]) == 0.25
        assert row[7] == "mc"
        sidecar = json.loads(Path(str(out) + ".json").read_text())
        assert sidecar["config"]["seed"] == 11

    def test_exhausted_budget_exits_3(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        path.write_text(
            MINIMAL.replace("min_bits = 20000", "min_bits = 1000000000")
            .replace("min_errors = 20", "min_errors = 1000000")
            .replace("max_frames = 400", "max_frames = 8")
        )
        rc = main(["simulate", "--config", str(path), "--ebn0", "8",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_config_error_exits_2(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[frame]\nn_fft = seven\n")
        rc = main(["theory", "--config", str(path)])
        assert rc == 2

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["theory", "--config", str(tmp_path / "gone.cfg")])
        assert rc == 2

    def test_response_table(self, cfg_file, tmp_path):
        out = tmp_path / "resp.csv"
        rc = main(
            [
                "response",
                "--config", str(cfg_file),
                "--phases", "0,0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "f,epsilon,magnitude"
        assert len(lines) == 1 + 2 * 256
        # zero phase rows are all unit magnitude
        zero_rows = [l for l in lines[1:] if l.split(",")[1] == "0"]
        assert all(abs(float(l.split(",")[2]) - 1.0) < 1e-9 for l in zero_rows)
        # half-period phase nulls the band-center bin
        null_row = [
            l
            for l in lines[1:]
            if l.split(",")[1] == "0.5" and l.split(",")[0] == "0.5"
        ]
        assert float(null_row[0].split(",")[2]) < 1e-12

    def test_str_baseline_subcommand(self, cfg_file, tmp_path):
        out = tmp_path / "str.csv"
        rc = main(
            ["str-baseline", "--config", str(cfg_file), "--out", str(out),
             "--frames", "25"]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "frame,timing_error,phase_estimate"
        sidecar = json.loads(Path(str(out) + ".json").read_text())
        assert sidecar["converged"] is True
        assert abs(sidecar["epsilon_hat"]) < 0.02

    def test_criterion_subcommand(self, tmp_path):
        path = tmp_path / "crit.cfg"
        path.write_text(
            MINIMAL
            + "\n[criterion]\ngrid = 8\nwith_str = false\nwith_oracle = false\n"
        )
        out = tmp_path / "crit.csv"
        rc = main(["criterion", "--config", str(path), "--out", str(out)])
        assert rc == 0
        sidecar = json.loads(Path(str(out) + ".json").read_text())
        assert sidecar["chosen_phase"] == 0.0
        assert len(sidecar["objective"]) == 8

    def test_modulation_override(self, cfg_file, tmp_path):
        out = tmp_path / "t64.csv"
        rc = main(
            ["theory", "--config", str(cfg_file), "--modulation", "qam64",
             "--out", str(out)]
        )
        assert rc == 0
        assert ",qam64," in out.read_text().splitlines()[1]
