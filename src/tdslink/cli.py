"""Command-line front end: theory / simulate / criterion / response /
str-baseline subcommands emitting CSV plus a JSON sidecar.

Exit codes: 0 success, 2 configuration error, 3 finished but with
non-convergence flags (Monte-Carlo points that ran out of frames, or a
timing loop that never settled).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ScenarioConfig,
    _float_list,
    _parse,
    load_scenario,
    scenario_fingerprint,
)
from .montecarlo import (
    _STR_FRAMES,
    CSV_HEADER,
    _responses,
    run_criterion,
    run_mc_ber,
    run_str_baseline,
    run_theory,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FLAGGED = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="scenario file")
    p.add_argument("--ebn0", help="override Eb/N0 sweep, comma separated dB")
    p.add_argument(
        "--epsilon", type=float, help="override the sampling phase or phase grid"
    )
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--modulation", help="override the modulation")
    p.add_argument("--out", help="output CSV path (sidecar: <out>.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdslink",
        description="TDS-OFDM link simulator and sampling-phase analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("theory", "analytic BER/SER curves"),
        ("simulate", "Monte-Carlo BER curves"),
        ("criterion", "band-power phase selection and comparison"),
        ("response", "equivalent channel response table"),
        ("str-baseline", "correlation timing-recovery baseline"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "theory":
            p.add_argument(
                "--chernoff", action="store_true", help="emit surrogate rows too"
            )
        if name == "response":
            p.add_argument(
                "--phases", help="comma-separated phases (default: scenario phase)"
            )
        if name == "str-baseline":
            p.add_argument("--frames", type=int, default=_STR_FRAMES)
    return parser


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    changes: dict = {}
    if args.ebn0:
        changes["ebn0_sweep"] = tuple(sorted(_parse("--ebn0", _float_list, args.ebn0)))
    if args.epsilon is not None:  # replaces the scenario's phase or grid
        changes.update(epsilon=args.epsilon, phase_grid=None)
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.modulation:
        try:
            changes["frame"] = dataclasses.replace(
                cfg.frame, modulation=args.modulation.strip().lower()
            )
        except ValueError as exc:
            raise ConfigError(f"--modulation: {exc}") from exc
    return dataclasses.replace(cfg, **changes) if changes else cfg


def _write_output(
    out_path: Path,
    header: str,
    rows: list[str],
    cfg: ScenarioConfig,
    extra: dict,
) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(header + "\n" + "\n".join(rows) + "\n")
    sidecar = {
        "version": __version__,
        "fingerprint": scenario_fingerprint(cfg),
        "config": cfg.describe(),
        **extra,
    }
    Path(str(out_path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {out_path} ({len(rows)} rows)")


def _grid_phases(cfg: ScenarioConfig) -> list[float]:
    if cfg.phase_grid is not None:
        return [float(e) for e in cfg.phase_grid.phases]
    return [cfg.epsilon]


def _cmd_theory(cfg: ScenarioConfig, args) -> tuple[list[str], dict, bool]:
    curve = run_theory(cfg, epsilons=_grid_phases(cfg), include_chernoff=args.chernoff)
    return [p.csv_row() for p in curve.points], {"wall_time_s": curve.wall_time_s}, False


def _cmd_simulate(cfg: ScenarioConfig, args) -> tuple[list[str], dict, bool]:
    rows: list[str] = []
    flagged = False
    wall = 0.0
    for p_idx, eps in enumerate(_grid_phases(cfg)):
        curve = run_mc_ber(cfg, epsilon=eps, phase_index=p_idx)
        rows.extend(p.csv_row() for p in curve.points)
        flagged |= curve.flagged
        wall += curve.wall_time_s
    return rows, {"wall_time_s": wall}, flagged


def _cmd_criterion(cfg: ScenarioConfig, args) -> tuple[list[str], dict, bool]:
    t0 = time.perf_counter()
    report = run_criterion(cfg)
    rows = [p.csv_row() for p in report.csv_points()]
    extra = {
        "chosen_phase": report.chosen_phase,
        "band": list(report.criterion.band),
        "objective": [float(v) for v in report.criterion.objective],
        "grid": [float(v) for v in report.criterion.phases],
        "wall_time_s": time.perf_counter() - t0,
    }
    flagged = any(p.exhausted for p in report.csv_points())
    if report.str_report is not None:
        extra["str_phase"] = report.str_report.epsilon_hat
        extra["str_converged"] = report.str_report.converged
        flagged |= not report.str_report.converged
    if report.oracle_phase is not None:
        extra["oracle_phase"] = report.oracle_phase
    print(f"chosen phase: {report.chosen_phase:+.6f}")
    if report.str_report is not None:
        print(f"timing-loop phase: {report.str_report.epsilon_hat:+.6f}")
    if report.oracle_phase is not None:
        print(f"grid-search phase: {report.oracle_phase:+.6f}")
    return rows, extra, flagged


def _cmd_response(cfg: ScenarioConfig, args) -> tuple[list[str], dict, bool]:
    if args.phases:
        phases = list(_parse("--phases", _float_list, args.phases))
        if not all(-0.5 <= eps <= 0.5 for eps in phases):
            raise ConfigError(f"--phases must lie in [-0.5, 0.5], got {args.phases}")
    else:
        phases = _grid_phases(cfg)
    f = np.arange(cfg.frame.n_fft) / cfg.frame.n_fft
    rows = []
    for eps, resp in zip(phases, _responses(cfg, phases)):
        rows.extend(f"{x:.10g},{eps:.10g},{m:.10g}" for x, m in zip(f, np.abs(resp.h)))
    return rows, {"phases": phases}, False


def _cmd_str_baseline(cfg: ScenarioConfig, args) -> tuple[list[str], dict, bool]:
    if args.frames < 1:
        raise ConfigError(f"--frames must be positive, got {args.frames}")
    report = run_str_baseline(cfg, n_frames=args.frames)
    history = zip(report.error_history, report.phase_history)
    rows = [f"{i},{err:.10g},{phase:.10g}" for i, (err, phase) in enumerate(history)]
    extra = {
        "epsilon_hat": report.epsilon_hat,
        "converged": report.converged,
        "frames_tracked": len(report.error_history),
    }
    print(
        f"converged phase: {report.epsilon_hat:+.6f} "
        f"({'converged' if report.converged else 'NOT converged'})"
    )
    return rows, extra, not report.converged


_COMMANDS = {
    "theory": (_cmd_theory, CSV_HEADER),
    "simulate": (_cmd_simulate, CSV_HEADER),
    "criterion": (_cmd_criterion, CSV_HEADER),
    "response": (_cmd_response, "f,epsilon,magnitude"),
    "str-baseline": (_cmd_str_baseline, "frame,timing_error,phase_estimate"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_scenario(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handler, header = _COMMANDS[args.command]
    try:
        rows, extra, flagged = handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out) if args.out else Path(f"{args.command}.csv")
    _write_output(out, header, rows, cfg, extra)
    if flagged:
        print("warning: non-convergence flags present", file=sys.stderr)
        return EXIT_FLAGGED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
