"""Tests for scenario files and the command-line front end."""

import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdslink.analysis import default_phase_grid
from tdslink.channel import AWGN_PROFILE, ChannelProfile, load_profile, pn_spectrum
from tdslink.cli import main
from tdslink.config import (
    _SCHEMA,
    ConfigError,
    CriterionOptions,
    McConfig,
    ScenarioConfig,
    load_scenario,
)
from tdslink.frame import FrameConfig, default_pn_poly
from tdslink.montecarlo import (
    CSV_HEADER,
    run_criterion,
    run_mc_ber,
    run_str_baseline,
    run_theory,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RECIPES = ("fig3.cfg", "fig5.cfg", "fig6.cfg", "sec4-comparison.cfg")

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


# tap files that parse but hold a non-finite gain or delay
NAN_GAIN_TAPS = "0.0 1.0 0.0\n1.5 nan 0\n"
INF_DELAY_TAPS = "0.0 1.0 0.0\ninf 0.5 0.0\n"


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
        (tmp_path / "nan_gain.txt").write_text(NAN_GAIN_TAPS)
        (tmp_path / "inf_delay.txt").write_text(INF_DELAY_TAPS)
        for old, new, match in [
            ("n_fft = 256", "n_fft = twelve", "expected an integer"),
            ("ebn0_db = 6, 8", "ebn0_db = 6, nan", "finite"),
            ("ebn0_db = 6, 8", "ebn0_db = 6, 8\nreference_ebn0 = nan", "finite"),
            ("ebn0_db = 6, 8", "ebn0_db = 6, 1e400", "finite"),
            ("dual_pn = true", "dual_pn = true\npn_amplitude = nan", "finite"),
            ("dual_pn = true", "dual_pn = true\npn_amplitude = 0", "[frame] pn_amplitude"),
            ("dual_pn = true", "dual_pn = true\npn_amplitude = -0.5",
             "[frame] pn_amplitude"),
            ("dual_pn = true", "dual_pn = true\nalpha = -inf", "finite"),
            ("seed = 5", "seed = 5\n[phase]\nepsilon = inf", "finite"),
            ("seed = 5", "seed = 5\n[phase]\ngrid = 0", "grid size"),
            ("modulation = qam16", "modulation = qam32", "unknown modulation"),
            # the BER relation is not configurable: ber_mode is an unknown key
            ("seed = 5", "seed = 5\nber_mode = bits-per-axis",
             "unknown key 'ber_mode'"),
            ("ebn0_db = 6, 8", "ebn0_db = 10, 6", "sorted"),
            ("min_bits = 20000", "min_bits = 20000\nequalizer = psychic",
             "equalizer"),
            ("max_frames = 400", "max_frames = 400\nframes_per_burst = 0",
             "frames_per_burst"),
            ("seed = 5", "seed = -1", "non-negative"),
            ("dual_pn = true", "dual_pn = true\npn_poly = 1", "degree < 2"),
            ("dual_pn = true", "dual_pn = true\npn_seed = 0", "nonzero 6-bit"),
            ("dual_pn = true", "dual_pn = true\npn_seed = 4096", "nonzero 6-bit"),
            ("seed = 5", "seed = 5\n[srrc]\nspan_symbols = 2", "span"),
            # a PN with spectral nulls, read by either PN estimator
            ("qam16\n\n[sweep]\nebn0_db = 6, 8\n\n[mc]\n",
             "qam16\npn_poly = 0x5\n\n[sweep]\nebn0_db = 6, 8\n\n[mc]\n"
             "equalizer = estimated\n", "spectrum bins below threshold"),
            ("modulation = qam16", "modulation = qam16\npn_poly = 0x5\n"
             "[criterion]\nestimator = pn", "spectrum bins below threshold"),
            ("max_frames = 400", "max_frames = 400\nworkers = 2", "one after another"),
            # a value the scenario as a whole rejects names its key
            ("ebn0_db = 6, 8", "ebn0_db = 8, 6", "[sweep] ebn0_db"),
            ("seed = 5", "seed = 5\n[phase]\nepsilon = 0.7", "[phase] epsilon"),
            ("seed = 5", "seed = -3", "[run] seed"),
            ("seed = 5", "seed = 5\n[srrc]\nspan_symbols = 2", "[srrc] span_symbols"),
            ("modulation = qam16", "modulation = qam16\npn_poly = 0x5\n"
             "[criterion]\nestimator = pn", "[frame] pn_poly"),
            # a tap file with a non-finite gain or delay
            ("seed = 5", "seed = 5\n[channel]\nprofile = nan_gain.txt",
             "[channel] profile"),
            ("seed = 5", "seed = 5\n[channel]\nprofile = inf_delay.txt",
             "[channel] profile"),
        ]:
            path = tmp_path / "bad.cfg"
            path.write_text(MINIMAL.replace(old, new))
            with pytest.raises(ConfigError, match=re.escape(match)) as exc:
                load_scenario(path)
            assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("kwargs, match", [
        (dict(ebn0_sweep=(math.nan,)), "finite"),
        (dict(ebn0_sweep=(6.0, math.inf)), "finite"),
        (dict(reference_ebn0=math.nan), "finite"),
        (dict(reference_ebn0=-math.inf), "finite"),
        (dict(epsilon=math.nan), "epsilon"),
        (dict(epsilon=math.inf), "epsilon"),
        (dict(seed=-1), "non-negative"),
    ])
    def test_bad_values_rejected_in_python(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig(**kwargs)

    def test_workers_one_is_accepted(self, tmp_path, cfg_file):
        # older files set workers = 1; bursts now run one after another
        path = tmp_path / "workers.cfg"
        path.write_text(MINIMAL.replace("max_frames = 400", "max_frames = 400\nworkers = 1"))
        described = load_scenario(path).describe()
        assert described == load_scenario(cfg_file).describe()
        assert "workers" not in described["mc"]

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
        for name in RECIPES:
            cfg = load_scenario(CONFIGS / name)
            assert cfg.frame.n_fft >= 1024


def write_scenario(desc: dict, directory: Path) -> Path:
    """A scenario file, plus a tap file for a multipath channel, that
    loads back to the configuration ``desc`` (a ``describe()``) holds."""
    desc = json.loads(json.dumps(desc))  # plain Python numbers
    channel = desc["channel"]
    profile = channel["name"]
    if profile != "awgn":
        taps = directory / f"{profile}.txt"
        taps.write_text("".join(
            f"{d!r} {re!r} {im!r}\n"
            for d, (re, im) in zip(channel["delays"], channel["gains"])))
        profile = taps.name
    phase = (
        {"epsilon": desc["epsilon"]}
        if desc["phase_grid"] is None
        else {"grid": len(desc["phase_grid"])}
    )
    criterion = dict(desc["criterion"])
    criterion["grid"] = criterion.pop("grid_size")
    sections = {
        "frame": desc["frame"],
        "srrc": {"span_symbols": desc["srrc_span"]},
        "channel": {"profile": profile},
        "phase": phase,
        "sweep": {"ebn0_db": ", ".join(map(repr, desc["ebn0_sweep"])),
                  "reference_ebn0": desc["reference_ebn0"]},
        "mc": desc["mc"],
        "run": {"seed": desc["seed"]},
        "criterion": criterion,
    }

    def text(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return str(value).lower()
        return repr(value) if isinstance(value, float) else str(value)

    path = directory / "scenario.cfg"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {text(v)}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    return path


def assert_same_description(a: dict, b: dict) -> None:
    """Equal, except that gains may move by rounding: profiles are
    renormalised on load."""
    a, b = json.loads(json.dumps(a)), json.loads(json.dumps(b))
    gains_a, gains_b = a["channel"].pop("gains"), b["channel"].pop("gains")
    assert a == b
    np.testing.assert_allclose(gains_a, gains_b, rtol=0, atol=1e-15)


def round_trip(cfg: ScenarioConfig) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        reloaded = load_scenario(write_scenario(cfg.describe(), Path(tmp)))
    assert_same_description(reloaded.describe(), cfg.describe())


@st.composite
def scenarios(draw) -> ScenarioConfig:
    pn_len = draw(st.integers(16, 600))
    pn_poly = draw(st.none() | st.integers(4, 4095))  # degree >= 2
    degree = (pn_poly or default_pn_poly(pn_len)).bit_length() - 1
    frame = FrameConfig(
        n_fft=draw(st.sampled_from([4, 256, 2048])),
        pn_len=pn_len,
        dual_pn=draw(st.booleans()),
        modulation=draw(st.sampled_from(["bpsk", "qam16", "qam64", "qam256"])),
        n_upsam=draw(st.integers(2, 16)),
        alpha=draw(st.floats(0.001, 1.0)),
        pn_poly=pn_poly,
        pn_seed=draw(st.integers(1, 2**degree - 1)),
        pn_amplitude=draw(st.none() | st.floats(1e-3, 10.0)),
    )
    # the PN estimators are rejected on a guard with spectral nulls
    try:
        pn_spectrum(frame.pn)
        equalizers, estimators = ["known", "estimated"], ["analytic", "pn"]
    except ValueError:
        equalizers, estimators = ["known"], ["analytic"]
    delays = draw(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4, unique=True))
    gains = draw(st.lists(
        st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0),
        min_size=len(delays), max_size=len(delays)))
    channel = draw(st.sampled_from([
        AWGN_PROFILE,
        load_profile(CONFIGS / "profiles" / "longecho.txt"),
        ChannelProfile(delays=sorted(delays), gains=gains, name="drawn"),
    ]))
    grid = draw(st.none() | st.integers(1, 256))
    frames_per_burst = draw(st.integers(1, 16))
    return ScenarioConfig(
        frame=frame,
        srrc_span=draw(st.integers(4, 64)),
        channel=channel,
        epsilon=0.0 if grid else draw(st.floats(-0.5, 0.5)),
        phase_grid=default_phase_grid(grid) if grid else None,
        ebn0_sweep=tuple(sorted(draw(st.lists(st.floats(-20.0, 60.0), min_size=1,
                                              max_size=6)))),
        reference_ebn0=draw(st.none() | st.floats(-20.0, 60.0)),
        mc=McConfig(
            min_bits=draw(st.integers(1, 10**12)),
            min_errors=draw(st.integers(1, 10**6)),
            max_frames=frames_per_burst + draw(st.integers(0, 10**4)),
            frames_per_burst=frames_per_burst,
            chunk_bursts=draw(st.integers(1, 64)),
            equalizer=draw(st.sampled_from(equalizers)),
        ),
        seed=draw(st.integers(0, 2**64)),
        criterion=CriterionOptions(
            grid_size=draw(st.integers(1, 512)),
            estimator=draw(st.sampled_from(estimators)),
            with_str=draw(st.booleans()),
            with_oracle=draw(st.booleans()),
        ),
    )


# A value other than the default for every key of the schema.
NON_DEFAULT = {
    "frame": {"n_fft": "512", "pn_len": "64", "dual_pn": "false",
              "modulation": "qam64", "n_upsam": "2", "alpha": "0.125",
              "pn_poly": "0x43", "pn_seed": "3", "pn_amplitude": "0.5"},
    "srrc": {"span_symbols": "8"},
    "channel": {"profile": str(CONFIGS / "profiles" / "threeray.txt")},
    "phase": {"epsilon": "0.25", "grid": "8"},
    "sweep": {"ebn0_db": "1, 2", "reference_ebn0": "7"},
    "mc": {"min_bits": "1000", "min_errors": "10", "max_frames": "40",
           "frames_per_burst": "2", "chunk_bursts": "3",
           "equalizer": "estimated"},
    "run": {"seed": "9"},
    "criterion": {"grid": "16", "estimator": "pn", "with_str": "false",
                  "with_oracle": "true"},
}
SCHEMA_KEYS = [(section, key) for section in _SCHEMA for key in _SCHEMA[section]]


def describe_file(tmp_path: Path, text: str) -> dict:
    path = tmp_path / "one_key.cfg"
    path.write_text(text)
    return load_scenario(path).describe()


class TestSchema:
    @pytest.mark.parametrize("name", RECIPES)
    def test_recipes_round_trip(self, name):
        round_trip(load_scenario(CONFIGS / name))

    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_drawn_configs_round_trip(self, cfg):
        round_trip(cfg)

    def test_every_key_has_a_non_default_value(self):
        assert SCHEMA_KEYS == [(s, k) for s in NON_DEFAULT for k in NON_DEFAULT[s]]

    @pytest.mark.parametrize("section,key", SCHEMA_KEYS)
    def test_no_key_is_dropped(self, tmp_path, section, key):
        default = describe_file(tmp_path, "")
        value = NON_DEFAULT[section][key]
        assert describe_file(tmp_path, f"[{section}]\n{key} = {value}\n") != default

    @pytest.mark.parametrize("section,key", SCHEMA_KEYS)
    def test_empty_value_is_the_default(self, tmp_path, section, key):
        default = describe_file(tmp_path, "")
        assert describe_file(tmp_path, f"[{section}]\n{key} =\n") == default
        assert describe_file(tmp_path, f"[{section}]\n{key} =   # unset\n") == default


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

    @pytest.mark.parametrize("argv", [
        ["theory", "--ebn0", "abc"],
        ["theory", "--modulation", "qam32"],
        ["str-baseline", "--frames", "0"],
        ["response", "--phases", "0,zero"],
        ["theory", "--ebn0", "nan"],
        ["simulate", "--ebn0", "8,inf"],
        ["response", "--phases", "0,nan"],
        ["theory", "--epsilon", "nan"],
        ["simulate", "--seed", "-1", "--ebn0", "8"],
        ["response", "--phases", "3"],
        ["response", "--phases", "0,-0.75"],
    ])
    def test_bad_override_exits_2(self, cfg_file, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        rc = main(argv + ["--config", str(cfg_file), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "theory", "response"])
    def test_epsilon_replaces_the_phase_grid(self, tmp_path, command):
        path = tmp_path / "grid.cfg"
        path.write_text(MINIMAL + "\n[phase]\ngrid = 8\n")
        out = tmp_path / "x.csv"
        rc = main([command, "--config", str(path), "--epsilon", "0.1",
                   "--ebn0", "8", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert rows and {float(r.split(",")[1]) for r in rows} == {0.1}
        sidecar = json.loads(Path(str(out) + ".json").read_text())
        assert sidecar["config"]["epsilon"] == 0.1
        assert sidecar["config"]["phase_grid"] is None

    def test_value_only_the_chain_would_reject_exits_2(self, tmp_path, capsys):
        # a PN seed, SRRC span, PN with spectral nulls, non-finite tap or
        # zero guard that loaded once failed only inside the run (a
        # traceback), or not at all for the theory runner; or a worker
        # count other than one
        (tmp_path / "nan_gain.txt").write_text(NAN_GAIN_TAPS)
        (tmp_path / "inf_delay.txt").write_text(INF_DELAY_TAPS)
        nan_gain = "seed = 5\n[channel]\nprofile = nan_gain.txt"
        inf_delay = "seed = 5\n[channel]\nprofile = inf_delay.txt"
        for command, old, new in [
            ("simulate", "dual_pn = true", "dual_pn = true\npn_seed = 0"),
            ("theory", "seed = 5", "seed = 5\n[srrc]\nspan_symbols = 2"),
            ("simulate", "min_bits = 20000", "min_bits = 20000\nworkers = 2"),
            ("simulate", "qam16\n\n[sweep]\nebn0_db = 6, 8\n\n[mc]\n",
             "qam16\npn_poly = 0x5\n\n[sweep]\nebn0_db = 6, 8\n\n[mc]\n"
             "equalizer = estimated\n"),
            ("criterion", "modulation = qam16", "modulation = qam16\npn_poly = 0x5\n"
             "[criterion]\nestimator = pn\ngrid = 8"),
            *[(command, "seed = 5", taps) for taps in (nan_gain, inf_delay)
              for command in ("theory", "simulate", "criterion")],
            # a zero guard, which the PN estimator divides by and the
            # timing loop cannot find
            ("simulate", "qam16\n\n[sweep]\nebn0_db = 6, 8\n\n[mc]\n",
             "qam16\npn_amplitude = 0\n\n[sweep]\nebn0_db = 6, 8\n\n[mc]\n"
             "equalizer = estimated\n"),
            *[(command, "modulation = qam16", "modulation = qam16\npn_amplitude = 0"
               + extra) for command, extra in (
                  ("criterion", "\n[criterion]\nestimator = pn\ngrid = 8"),
                  ("criterion", "\n[criterion]\ngrid = 8\nwith_oracle = false"),
                  ("str-baseline", ""))],
        ]:
            path = tmp_path / "bad.cfg"
            path.write_text(MINIMAL.replace(old, new))
            out = tmp_path / "x.csv"
            rc = main([command, "--config", str(path), "--ebn0", "8",
                       "--out", str(out)])
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"config error: {path}: ")
            assert not out.exists()

    @pytest.mark.parametrize("text, match", [
        ("[mc]\nmin_bits = 0", "[mc] min_bits: must be positive"),
        ("[mc]\nmin_errors = 0", "[mc] min_errors: must be positive"),
        ("[mc]\nframes_per_burst = 8\nmax_frames = 4",
         "[mc] max_frames: must cover at least one burst"),
        ("[mc]\nchunk_bursts = 0", "[mc] chunk_bursts: must be positive"),
        ("[criterion]\ngrid = 0", "[criterion] grid: must be positive"),
        ("[criterion]\nestimator = foo", "[criterion] estimator: must be 'analytic' or 'pn'"),
        ("[criterion]\nwith_str = maybe", "[criterion] with_str: expected a boolean"),
        ("[sweep]\nebn0_db = ,", "[sweep] ebn0_db: empty list"),
        ("[mc]\nno equals sign", "'no equals sign"),  # no key: named by its line
        ("[frame]\npn_len = 8", "[frame] pn_len: guard PN length"),
        ("[frame]\nalpha = 0", "[frame] alpha: roll-off"),
        ("[frame]\nn_upsam = 1", "[frame] n_upsam: upsampling factor"),
        ("[channel]\nprofile = silent.txt", "[channel] profile: profile has no power"),
    ])
    def test_bad_file_value_exits_2_naming_it(self, tmp_path, capsys, text, match):
        (tmp_path / "silent.txt").write_text("0.0 0.0 0.0\n1.0 0.0 0.0\n")
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        out = tmp_path / "x.csv"
        rc = main(["theory", "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        if text.endswith("no equals sign"):
            assert err.startswith(f"config error: {path}: ")
            assert "[line  2]: 'no equals sign" in err
        else:  # the key first, then the problem
            assert err.startswith(f"config error: {path}: {match}")
        assert not out.exists()

    @pytest.mark.parametrize("command, rows_per_phase", [
        ("theory", 1), ("simulate", 1), ("response", 256)])
    def test_phase_grid_writes_one_block_per_phase(self, tmp_path, command,
                                                   rows_per_phase):
        path = tmp_path / "grid.cfg"
        path.write_text(MINIMAL + "\n[phase]\ngrid = 4\n")
        out = tmp_path / "x.csv"
        rc = main([command, "--config", str(path), "--ebn0", "8", "--out", str(out)])
        assert rc == 0
        phases = [float(r.split(",")[1]) for r in out.read_text().strip().splitlines()[1:]]
        assert phases == [eps for eps in (-0.5, -0.25, 0.0, 0.25)
                          for _ in range(rows_per_phase)]

    def test_criterion_with_oracle(self, tmp_path, capsys):
        # the benchmark's criterion operation: every point stops at
        # max_frames, so the run is flagged
        path = tmp_path / "oracle.cfg"
        path.write_text(
            MINIMAL.replace("min_bits = 20000", "min_bits = 1000000000")
            .replace("max_frames = 400", "max_frames = 4")
            + "\n[criterion]\ngrid = 8\nestimator = pn\nwith_oracle = true\n"
        )
        out = tmp_path / "crit.csv"
        rc = main(["criterion", "--config", str(path), "--out", str(out)])
        assert rc == 3
        rows = out.read_text().strip().splitlines()
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 2 + 8  # chosen, timing loop, oracle grid
        sidecar = json.loads(Path(str(out) + ".json").read_text())
        assert sidecar["oracle_phase"] in sidecar["grid"]
        assert f"grid-search phase: {sidecar['oracle_phase']:+.6f}" in capsys.readouterr().out

    SHORT_BLOCK = ("n_fft = 256\npn_len = 64\ndual_pn = true",
                   "n_fft = 32\npn_len = 128\ndual_pn = false")

    @pytest.mark.parametrize("command", ["simulate", "criterion"])
    def test_block_shorter_than_the_response_runs(self, tmp_path, command):
        # a 32-symbol block under a single 128-chip guard: the phase's
        # response is longer than the block and wraps onto it
        path = tmp_path / "short.cfg"
        path.write_text(MINIMAL.replace(*self.SHORT_BLOCK))
        out = tmp_path / "x.csv"
        rc = main([command, "--config", str(path), "--ebn0", "8", "--out", str(out)])
        assert rc in (0, 3)
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_block_shorter_than_the_fold_still_tracks(self, tmp_path):
        # nor is the short block an error for the timing loop
        path = tmp_path / "short.cfg"
        path.write_text(MINIMAL.replace(*self.SHORT_BLOCK))
        out = tmp_path / "x.csv"
        rc = main(["str-baseline", "--config", str(path), "--out", str(out),
                   "--frames", "20"])
        assert rc == 0
        assert out.exists()

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

    def test_str_baseline_writes_the_phase_estimate_per_frame(self, cfg_file, tmp_path):
        # each row holds the loop's correction after that frame's update,
        # p_i = p_(i-1) - 0.5 e_i from p_(-1) = 0, not the converged phase
        out = tmp_path / "str.csv"
        main(["str-baseline", "--config", str(cfg_file), "--out", str(out),
              "--frames", "12", "--epsilon", "0.1"])
        rows = [list(map(float, line.split(",")))
                for line in out.read_text().strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        assert len(rows) > 1
        phase = 0.0
        for _, err, estimate in rows:
            phase -= 0.5 * err
            assert estimate == pytest.approx(phase, rel=1e-9, abs=1e-12)
        assert len({r[2] for r in rows}) == len(rows)

    def test_weak_guard_str_baseline_is_flagged(self, tmp_path, capsys):
        # the correlation peak of a guard buried in the data lands on the
        # window's edge: the loop stops unconverged, the run is flagged
        path = tmp_path / "weak.cfg"
        path.write_text(MINIMAL.replace("dual_pn = true",
                                        "dual_pn = true\npn_amplitude = 1e-8"))
        out = tmp_path / "str.csv"
        rc = main(["str-baseline", "--config", str(path), "--out", str(out)])
        assert rc == 3
        assert out.read_text().splitlines()[0] == "frame,timing_error,phase_estimate"
        sidecar = json.loads(Path(str(out) + ".json").read_text())
        assert sidecar["converged"] is False
        assert "Traceback" not in capsys.readouterr().err

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

    def test_bpsk_theory_writes_chernoff_rows(self, cfg_file, tmp_path):
        out = tmp_path / "bpsk.csv"
        rc = main(["theory", "--config", str(cfg_file), "--modulation", "bpsk",
                   "--chernoff", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [(r[0], r[7]) for r in rows] == [
            ("6", "theory"), ("6", "chernoff"), ("8", "theory"), ("8", "chernoff")]
        # one bit per axis: the BER column is the per-axis SER column
        assert all(r[2] == "bpsk" and r[3] == r[4] for r in rows)

    def test_modulation_override(self, cfg_file, tmp_path):
        out = tmp_path / "t64.csv"
        rc = main(
            ["theory", "--config", str(cfg_file), "--modulation", "qam64",
             "--out", str(out)]
        )
        assert rc == 0
        assert ",qam64," in out.read_text().splitlines()[1]


def capped(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg`` at a unit test's budget: n_fft at most 256, one burst of at
    most 4 frames, one Eb/N0 and at most 8 phases."""
    frames = min(cfg.mc.frames_per_burst, 4)
    grid = cfg.phase_grid
    return dataclasses.replace(
        cfg,
        frame=dataclasses.replace(cfg.frame, n_fft=min(cfg.frame.n_fft, 256)),
        phase_grid=grid and default_phase_grid(min(grid.phases.size, 8)),
        ebn0_sweep=cfg.ebn0_sweep[:1],
        mc=dataclasses.replace(cfg.mc, frames_per_burst=frames, max_frames=frames),
        criterion=dataclasses.replace(cfg.criterion,
                                      grid_size=min(cfg.criterion.grid_size, 8)),
    )


class TestModelEdges:
    @given(cfg=scenarios())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_runners_return_rates_or_refuse(self, cfg):
        # every runner returns rates in [0, 1] (the timing loop a finite
        # phase) or refuses the scenario with a ConfigError; any other
        # exception, a numpy ValueError among them, fails
        cfg = capped(cfg)
        runs = [
            lambda: run_theory(cfg).points,
            lambda: run_mc_ber(cfg).points,
            lambda: run_criterion(cfg).csv_points(),
        ]
        for run in runs:
            try:
                points = run()
            except ConfigError:
                continue
            assert all(0.0 <= p.ser <= 1.0 and 0.0 <= p.ber <= 1.0 for p in points)
        try:
            state = run_str_baseline(cfg, n_frames=4)
        except ConfigError:
            return
        assert math.isfinite(state.epsilon_hat)

    @given(cfg=scenarios())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_commands_exit_0_2_or_3(self, cfg):
        # the same scenarios written to a file and run through the CLI
        headers = {"theory": CSV_HEADER, "simulate": CSV_HEADER, "criterion": CSV_HEADER,
                   "response": "f,epsilon,magnitude",
                   "str-baseline": "frame,timing_error,phase_estimate"}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_scenario(capped(cfg).describe(), Path(tmp))
            for command, header in headers.items():
                out = Path(tmp) / f"{command}.csv"
                extra = ["--frames", "4"] if command == "str-baseline" else []
                rc = main([command, "--config", str(path), "--out", str(out), *extra])
                assert rc in (0, 2, 3), command
                if rc != 2:
                    assert out.read_text().splitlines()[0] == header
