"""The benchmark's workloads: scenario files generated from the shipped
recipes, the fixed work each one repeats, and the check on every result.

Every workload is a list of *operations* run in a fixed order; one pass
over the list is a *sweep*, the workload's fixed amount of work.  An
operation is one Monte-Carlo point (``mc_*``) or one ``tdslink
criterion`` run (``criterion_pn_multipath``).  The workload seed enters
the generated scenario files, and each operation derives its own seed
from it and its position, so a seed fixes every input.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

# Out of reach, so that ``max_frames`` alone fixes the work of a point.
UNREACHABLE_BITS = 10**15
UNREACHABLE_ERRORS = 10**12

# |z| of a point's per-axis SER against closed-form theory above which the
# point fails.  Only points where theory expects at least Z_MIN_ERRORS axis
# errors are checked; choosing by the observed count would keep only the
# unlucky points of a low-error scenario.  Correct points stayed within
# |z| < 4.6 over ~200-450 checked points a run; the span-16 truncation
# floor on qam256 reads z = +7 to +22 and a broken receiver far more.
Z_BOUND = 6.0
Z_MIN_ERRORS = 100


@dataclass(frozen=True)
class Scenario:
    """One generated scenario file: a recipe plus overrides."""

    name: str
    recipe: str
    overrides: dict


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc" or "criterion"
    scenarios: tuple
    ebn0_db: tuple = ()  # per-point Eb/N0 values (mc workloads)


def _mc_overrides(profile, modulation, epsilon, ebn0, max_frames, span=None):
    over = {
        "frame": {"modulation": modulation},
        "channel": {"profile": profile},
        "phase": {"epsilon": epsilon, "grid": None},
        "sweep": {"ebn0_db": ", ".join(map(str, ebn0)), "reference_ebn0": None},
        "mc": {"min_bits": UNREACHABLE_BITS, "min_errors": UNREACHABLE_ERRORS,
               "max_frames": max_frames, "frames_per_burst": 4, "workers": 1},
        "criterion": None,
    }
    if span is not None:
        over["srrc"] = {"span_symbols": span}
    return over


def _criterion_overrides(profile, ebn0, grid=64, with_oracle=True):
    return {
        "channel": {"profile": profile},
        "sweep": {"ebn0_db": ebn0, "reference_ebn0": ebn0},
        "mc": {"min_bits": UNREACHABLE_BITS, "min_errors": UNREACHABLE_ERRORS,
               "max_frames": 4, "frames_per_burst": 4, "workers": 1},
        "criterion": {"grid": grid, "estimator": "pn", "with_str": "true",
                      "with_oracle": "true" if with_oracle else "false"},
    }


MULTIPATH_EBN0 = (10.0, 12.0, 14.0)
AWGN_EBN0 = (16.0, 18.0, 20.0)
CRITERION_CASES = (("tworay", 8.0), ("threeray", 13.0), ("longecho", 13.0))

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "mc_multipath_qam16", "mc",
            tuple(Scenario(p, "sec4-comparison.cfg",
                           _mc_overrides(p, "qam16", 0.3, MULTIPATH_EBN0, 16))
                  for p in ("threeray", "longecho")),
            MULTIPATH_EBN0,
        ),
        Workload(
            "mc_awgn_qam256", "mc",
            (Scenario("awgn", "fig6.cfg",
                      _mc_overrides("awgn", "qam256", 0.0, AWGN_EBN0, 8, span=32)),),
            AWGN_EBN0,
        ),
        Workload(
            "criterion_pn_multipath", "criterion",
            tuple(Scenario(p, "sec4-comparison.cfg", _criterion_overrides(p, e))
                  for p, e in CRITERION_CASES),
        ),
    ]
}

# A light criterion run on the first case: same geometry, few phases.
CRITERION_WARMUP = Scenario(
    "warmup", "sec4-comparison.cfg",
    _criterion_overrides(CRITERION_CASES[0][0], CRITERION_CASES[0][1],
                         grid=4, with_oracle=False),
)


def write_scenario(root: Path, work_dir: Path, workload: str, sc: Scenario,
                   seed: int) -> Path:
    """Write ``sc`` as an INI file under ``work_dir``; configs/ is only read."""
    recipe = root / "configs" / sc.recipe
    if not recipe.is_file():
        raise FileNotFoundError(f"recipe not found: {recipe}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(recipe.read_text(), source=str(recipe))
    for section, keys in sc.overrides.items():
        if keys is None:
            cp.remove_section(section)
            continue
        if not cp.has_section(section):
            cp.add_section(section)
        for key, value in keys.items():
            if value is None:
                cp.remove_option(section, key)
            elif key == "profile" and value != "awgn":
                profile = root / "configs" / "profiles" / f"{value}.txt"
                if not profile.is_file():
                    raise FileNotFoundError(f"channel profile not found: {profile}")
                cp.set(section, key, str(profile.resolve()))
            else:
                cp.set(section, key, str(value))
    cp.set("run", "seed", str(seed))
    path = work_dir / f"{workload}-{sc.name}-seed{seed}.cfg"
    with path.open("w") as fh:
        cp.write(fh)
    return path


def op_seed(seed: int, sweep: int, op: int) -> int:
    """Seed of one operation; sweep -1 is the warm-up."""
    return (seed * 1_000_003 + (sweep + 1)) * 64 + op


@dataclass
class OpResult:
    """Outcome of one operation."""

    label: str
    seconds: float
    bits: int = 0
    points: int = 0
    ok: bool = True
    reason: str = ""
    info: dict = field(default_factory=dict)


class McRunner:
    """Monte-Carlo points through ``run_mc_ber``, one point per call."""

    def __init__(self, workload: Workload, paths: list, seed: int):
        from tdslink import config

        self.workload = workload
        self.seed = seed
        self.cfgs = [(sc.name, config.load_scenario(p))
                     for sc, p in zip(workload.scenarios, paths)]
        self.bits_per_frame = _bits_per_frame(self.cfgs[0][1])

    def ops(self):
        return [(name, cfg, e) for name, cfg in self.cfgs
                for e in self.workload.ebn0_db]

    def warm_up(self) -> None:
        for _, cfg in self.cfgs:
            self._point(cfg, cfg.ebn0_sweep[0], op_seed(self.seed, -1, 0))

    def _point(self, cfg, ebn0, seed):
        from tdslink import montecarlo

        point_cfg = replace(cfg, ebn0_sweep=(ebn0,), seed=seed)
        return montecarlo.run_mc_ber(point_cfg).points[0]

    def run_op(self, sweep: int, index: int, op) -> OpResult:
        name, cfg, ebn0 = op
        label = f"{name}@{ebn0:g}dB"
        t0 = time.perf_counter()
        try:
            p = self._point(cfg, ebn0, op_seed(self.seed, sweep, index))
        except Exception as exc:  # a failed operation, counted in failed
            return OpResult(label, time.perf_counter() - t0, ok=False, reason=repr(exc))
        dt = time.perf_counter() - t0
        res = OpResult(label, dt, bits=p.bits, points=1,
                       info={"axes": p.axes, "axis_errors": p.axis_errors,
                             "errors": p.errors, "exhausted": p.exhausted})
        if p.bits <= 0 or p.axes <= 0:
            res.ok, res.reason = False, "point decided no bits"
        elif not p.exhausted:  # the budget is out of reach, max_frames must stop it
            res.ok, res.reason = False, "point not flagged as stopped by max_frames"
        return res

    def theory(self) -> dict:
        """Closed-form per-axis SER for every (scenario, Eb/N0)."""
        import numpy as np
        from tdslink import analysis, channel

        out = {}
        for name, cfg in self.cfgs:
            n = cfg.frame.n_fft
            if cfg.channel.is_identity:
                h = channel.awgn_response(cfg.frame.alpha, cfg.epsilon,
                                          np.arange(n) / n)
            else:
                h = channel.equivalent_response(cfg.channel, cfg.frame.alpha,
                                                cfg.epsilon, n).h
            order = cfg.frame.constellation().order
            for e in self.workload.ebn0_db:
                out[f"{name}@{e:g}dB"] = analysis.theoretical_ser(h, e, order)
        return out

    def check(self, results: list) -> dict:
        """Fail points whose SER is more than Z_BOUND sigma from theory."""
        theory = self.theory()
        zs: dict = {}
        for r in results:
            if not r.ok:
                continue
            ser = theory[r.label]
            n, k = r.info["axes"], r.info["axis_errors"]
            z = (k - ser * n) / math.sqrt(n * ser * (1.0 - ser))
            if ser * n >= Z_MIN_ERRORS:
                zs.setdefault(r.label, []).append(z)
                if abs(z) > Z_BOUND:
                    r.ok, r.reason = False, f"|z| = {abs(z):.1f} > {Z_BOUND}"
        return {"z_bound": Z_BOUND, "z_min_expected_axis_errors": Z_MIN_ERRORS,
                "theory_ser": theory,
                "z_checked": {lbl: {"n": len(v), "median": statistics.median(v),
                                    "max_abs": max(map(abs, v))}
                              for lbl, v in zs.items()}}


class CriterionRunner:
    """``tdslink criterion`` runs through ``tdslink.cli.main`` in-process."""

    def __init__(self, workload: Workload, paths: list, seed: int,
                 out_dir: Path, warmup_path: Path):
        from tdslink import config

        self.seed = seed
        self.paths = list(zip([sc.name for sc in workload.scenarios], paths))
        self.out_dir = out_dir
        self.warmup_path = warmup_path
        cfgs = [config.load_scenario(p) for p in paths]
        self.grid_size = cfgs[0].criterion.grid_size
        self.bits_per_frame = _bits_per_frame(cfgs[0])

    def ops(self):
        return self.paths

    def warm_up(self) -> None:
        _, out = self._cli(self.warmup_path, op_seed(self.seed, -1, 0))
        _remove_output(out)

    def _cli(self, path, seed):
        from tdslink import cli

        out = self.out_dir / f"criterion-{seed}.csv"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(["criterion", "--config", str(path),
                           "--seed", str(seed), "--out", str(out)])
        return rc, out

    def run_op(self, sweep: int, index: int, op) -> OpResult:
        name, path = op
        t0 = time.perf_counter()
        try:
            rc, out = self._cli(path, op_seed(self.seed, sweep, index))
        except Exception as exc:  # a failed operation, counted in failed
            return OpResult(name, time.perf_counter() - t0, ok=False, reason=repr(exc))
        dt = time.perf_counter() - t0
        res = OpResult(name, dt)
        try:
            rows = out.read_text().strip().splitlines()[1:]
            bits = [int(r.split(",")[5]) for r in rows]
            side = json.loads(Path(str(out) + ".json").read_text())
        except (OSError, ValueError, IndexError) as exc:
            res.ok, res.reason = False, f"missing or malformed output: {exc!r}"
            return res
        finally:
            _remove_output(out)
        expected_rows = 2 + self.grid_size  # chosen, timing loop, oracle grid
        res.bits, res.points = sum(bits), len(rows)
        res.info = {k: side.get(k) for k in
                    ("chosen_phase", "str_phase", "str_converged", "oracle_phase")}
        # Every point stops at max_frames, which the CLI must flag with exit
        # 3.  A timing loop that does not settle is flagged the same way;
        # it is a correct, recorded outcome (str_sync.converged_frac), not
        # a failed run.
        if rc != 3:
            res.ok, res.reason = False, f"exit code {rc}, 3 expected"
        elif len(rows) < expected_rows or min(bits, default=0) <= 0:
            res.ok, res.reason = False, f"short CSV: {len(rows)} rows"
        elif not isinstance(side.get("str_converged"), bool):
            res.ok, res.reason = False, "sidecar lacks str_converged"
        return res

    def analytic_phases(self) -> dict:
        """Band-power rule on the analytic responses over the same grid."""
        from tdslink import analysis, channel, config

        out = {}
        for name, path in self.paths:
            cfg = config.load_scenario(path)
            responses = {float(e): channel.equivalent_response(
                             cfg.channel, cfg.frame.alpha, float(e), cfg.frame.n_fft)
                         for e in cfg.grid().phases}
            out[name] = analysis.band_power_criterion(
                responses, cfg.frame.alpha, cfg.frame.n_fft).chosen
        return out

    def check(self, results: list) -> dict:
        """Record the four phases per run and the pn-vs-analytic distance."""
        analytic = self.analytic_phases()
        steps = []
        for r in results:
            if r.info.get("chosen_phase") is None:
                continue
            d = abs(r.info["chosen_phase"] - analytic[r.label]) % 1.0
            r.info["analytic_phase"] = analytic[r.label]
            r.info["pn_vs_analytic_steps"] = min(d, 1.0 - d) * self.grid_size
            steps.append(r.info["pn_vs_analytic_steps"])
        return {"analytic_phase": analytic,
                "pn_vs_analytic_steps_mean": sum(steps) / len(steps) if steps else 0.0,
                "phases": [dict(r.info, case=r.label) for r in results if r.info]}


def _bits_per_frame(cfg) -> int:
    return cfg.frame.n_fft * cfg.frame.constellation().bits_per_symbol


def _remove_output(csv: Path) -> None:
    for p in (csv, Path(str(csv) + ".json")):
        p.unlink(missing_ok=True)
