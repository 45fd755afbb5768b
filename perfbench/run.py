#!/usr/bin/env python3
"""tdslink benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Generates the workload's scenario files
under ``perfbench/work/`` from the recipes in ``configs/``, imports
tdslink from ``src/``, repeats the workload's fixed work (a *sweep*) for
``--seconds`` seconds in this one process, checks every result, and
prints one JSON line of details followed by the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` half the time runs untraced and half with every layer
function wrapped (see ``tracer.py``), and the metrics are per-layer
figures per traced sweep.  See ``README.md`` for the workloads and what
each metric is expected to move.
"""

import os

# Pin BLAS/OpenMP pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CRITERION_WARMUP,
    WORKLOADS,
    CriterionRunner,
    McRunner,
    write_scenario,
)

# setup_s is the median of this many set-ups: this process plus fresh
# child processes that only set up (import cost needs a new interpreter).
SETUP_SAMPLES = 5

# Layer functions and the figures reported for each, per traced sweep.
LAYER_STATS = [
    ("dsp.apply_fir", ("calls", "s", "samples")),
    ("dsp.fractional_delay", ("calls", "s", "samples")),
    ("dsp.srrc_taps", ("s",)),
    ("frame.build_frame", ("calls", "s")),
    ("frame.shape_symbols", ("s",)),
    ("frame.detect_labels", ("calls", "s", "symbols")),
    ("channel.apply_channel", ("calls", "s")),
    ("channel.equivalent_response", ("calls", "s")),
    ("channel.add_awgn", ("s",)),
    ("channel.estimate_response_from_pn", ("calls", "s")),
    ("analysis.band_power_criterion", ("s",)),
    ("str_sync.str_track", ("calls", "s")),
    ("str_sync.correlate_pn", ("calls", "s")),
    ("config.load_scenario", ("s",)),
    ("cli.main", ("s",)),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="only set up, print the set-up seconds and exit")
    return p.parse_args(argv)


def set_up(workload, paths, warmup_path, seed):
    """Import tdslink, load the scenarios and make the first (cold) call."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import tdslink  # noqa: F401

    if workload.kind == "mc":
        runner = McRunner(workload, paths, seed)
    else:
        runner = CriterionRunner(workload, paths, seed, WORK, warmup_path)
    runner.warm_up()
    return time.perf_counter() - t0, runner


def probe_setup(args) -> float:
    """Set up once in a fresh interpreter and return its set-up seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(runner, seconds, first_sweep):
    """Run whole sweeps until ``seconds`` have passed (at least one)."""
    ops = runner.ops()
    sweeps = []
    deadline = time.perf_counter() + seconds
    while not sweeps or time.perf_counter() < deadline:
        s = first_sweep + len(sweeps)
        sweeps.append([runner.run_op(s, i, op) for i, op in enumerate(ops)])
    return sweeps


def sweep_seconds(sweeps):
    return [sum(r.seconds for r in sw) for sw in sweeps]


def end_to_end(sweeps, setup_samples):
    ops = [r for sw in sweeps for r in sw]
    sweep_s = sweep_seconds(sweeps)
    rates = [sum(r.bits for r in sw) / t for sw, t in zip(sweeps, sweep_s)]
    # An op is one point on mc_* (one sample each) and one criterion run
    # on criterion_pn_multipath (its time shared over its points).
    point_s = [r.seconds / r.points for r in ops if r.points]
    p90 = (statistics.quantiles(point_s, n=10)[8] if len(point_s) >= 2
           else max(point_s))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(sweep_s), "s"),
        "bits_per_s": (statistics.median(rates), "bit/s"),
        "point_s_p50": (statistics.median(point_s), "s"),
        "point_s_p90": (p90, "s"),
        "op_s": (statistics.median(r.seconds for r in ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    samples = {"sweeps": len(sweeps), "ops": len(ops), "point_samples": len(point_s),
               "setup_samples": [round(v, 6) for v in setup_samples]}
    return metrics, samples


def per_layer(tracer, traced, untraced, bits_per_frame):
    n = len(traced)
    ops = [r for sw in traced for r in sw]
    metrics = {}
    for name, fields in LAYER_STATS:
        st = tracer.stat(name)
        for f in fields:
            if f == "calls":
                metrics[f"{name}.calls"] = (st.calls / n, "count")
            elif f == "s":
                metrics[f"{name}.s"] = (st.self_s / n, "s")
            else:
                metrics[f"{name}.{f}"] = (st.work / n, "count")
    simulated = tracer.stat("montecarlo._simulate_burst").work / n
    measured = sum(r.bits for r in ops) / bits_per_frame / n
    crit = [r.info for r in ops if "str_converged" in r.info]
    steps = [i["pn_vs_analytic_steps"] for i in crit if "pn_vs_analytic_steps" in i]
    metrics.update({
        "analysis.pn_vs_analytic_steps": (statistics.fmean(steps) if steps else 0.0,
                                          "steps"),
        "str_sync.frames_tracked": (tracer.stat("str_sync.str_track").work / n,
                                    "count"),
        "str_sync.converged_frac": (
            sum(bool(i["str_converged"]) for i in crit) / len(crit) if crit else 0.0,
            "frac"),
        "montecarlo.self_s": (tracer.layer_self_s("montecarlo") / n, "s"),
        "montecarlo.points": (sum(r.points for r in ops) / n, "count"),
        "montecarlo.frames_simulated": (simulated, "count"),
        "montecarlo.frames_measured": (measured, "count"),
        "montecarlo.measured_frame_ratio": (measured / simulated if simulated else 0.0,
                                            "frac"),
        "trace.overhead_frac": (
            statistics.median(sweep_seconds(traced))
            / statistics.median(sweep_seconds(untraced)) - 1.0, "frac"),
    })
    return metrics


def environment():
    def git_commit():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": 1,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tdslink" / "__init__.py").is_file():
        print(f"error: tdslink sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    try:
        paths = [write_scenario(ROOT, WORK, workload.name, sc, args.seed)
                 for sc in workload.scenarios]
        warmup_path = (write_scenario(ROOT, WORK, workload.name, CRITERION_WARMUP,
                                      args.seed)
                       if workload.kind == "criterion" else None)
    except (OSError, ValueError) as exc:
        print(f"error: cannot generate scenarios: {exc}", file=sys.stderr)
        return 2

    setup_s, runner = set_up(workload, paths, warmup_path, args.seed)
    if args.probe_setup:
        print(f"{setup_s!r}")
        return 0

    tracer = None
    if args.trace:
        untraced = measure(runner, args.seconds / 2, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(runner, args.seconds / 2, len(untraced))
        finally:
            tracer.uninstall()
        sweeps = untraced + traced
    else:
        sweeps = measure(runner, args.seconds, 0)

    ops = [r for sw in sweeps for r in sw]
    check = runner.check(ops)
    failed = [r for r in ops if not r.ok]

    if args.trace:
        metrics = per_layer(tracer, traced, untraced, runner.bits_per_frame)
        samples = {"untraced_sweeps": len(untraced), "traced_sweeps": len(traced),
                   "spans": len(tracer.spans), "untraced_names": tracer.missing}
    else:
        setup_samples = [setup_s] + [probe_setup(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
        metrics, samples = end_to_end(sweeps, setup_samples)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "samples": samples,
        "fail_frac": len(failed) / len(ops),
        "failures": [f"{r.label}: {r.reason}" for r in failed[:10]],
        "check": check,
    }
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"details": details, "metrics": metrics}, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(WORK / f"spans-{tag}.json.gz")

    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
