"""Dump the seeded outputs of a tdslink source tree, or compare two dumps.

A refactor that must not change behaviour is checked by dumping its tree
and its parent's tree with this one script and comparing the dumps bit
for bit:

    python scripts/seeded_outputs.py dump <path/to/src> before.pkl
    python scripts/seeded_outputs.py dump src after.pkl
    python scripts/seeded_outputs.py compare before.pkl after.pkl

or in one step against a git revision (default ``HEAD``):

    python scripts/seeded_outputs.py check [REV]

``check`` checks REV out into a temporary ``git worktree``, dumps its
``src/`` and the working tree's ``src/``, each in its own interpreter,
prints what ``compare`` prints and exits 1 on any difference; it removes
the worktree however the run ends.

The check set covers every Monte-Carlo caller at small budgets:
``run_mc_ber`` point counts (known and estimated equalizer, multipath,
single and dual PN, AWGN qam256 and bpsk, the benchmark's N = 1024
dual-PN longecho geometry, two samples per symbol, one-frame bursts,
points stopped by ``min_errors`` with two stop-check groupings),
``measure_chain_response``, ``run_str_baseline``, the PN-estimated
responses, ``run_criterion`` with both estimators, and ``detect_labels``
on fixed random symbols and on a grid of levels, midpoints between
adjacent levels and values beyond the outermost level, for every
constellation.  ``theory/<channel>/<modulation>/<source>`` entries hold
the ``run_theory`` rows, theory and Chernoff apart, on AWGN and threeray
for bpsk, qam16 and qam256 over a small phase and Eb/N0 grid.  The
``str/*`` and ``criterion/*`` entries read the timing loop's
``epsilon_hat``, ``error_history``, ``peak_offset`` and ``converged``
from the loop state ``run_str_baseline`` returns, or from the report
that wrapped that state in older trees, so one script dumps both sides
of that change.  ``config/*`` entries hold the fingerprint and the
sidecar ``config`` JSON of the shipped recipes, of the scenario files the
benchmark generates and of inline files that together set every key.
A dump takes a few seconds.  Only load dumps this script wrote: they are
pickles.
"""

import json
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROFILES = ROOT / "configs" / "profiles"

# Inline scenario files: hex integers, yes/no booleans, mixed-case names,
# a space-and-comma list, relative and absolute profiles, an empty
# ``pn_amplitude``; together they set every key.
INLINE_SCENARIOS = {
    "every_key": f"""
[frame]
n_fft = 0x200
pn_len = 64
dual_pn = no
modulation = QAM64
n_upsam = 2
alpha = 0.125
pn_poly = 0x43
pn_seed = 5
pn_amplitude = 0.0625
[srrc]
span_symbols = 24
[channel]
profile = {PROFILES / "threeray.txt"}
[phase]
grid = 16
[sweep]
ebn0_db = 3 5, 7,9.5
reference_ebn0 = 8.25
[mc]
min_bits = 123456
min_errors = 0x40
max_frames = 99
frames_per_burst = 3
chunk_bursts = 5
workers = 1
equalizer = Estimated
[run]
seed = 0xBEEF
[criterion]
grid = 24
estimator = PN
with_str = no
with_oracle = yes
""",
    "epsilon_awgn": """
[frame]
modulation = bpsk
dual_pn = YES
pn_amplitude =        # the default amplitude
[channel]
profile = AWGN
[phase]
epsilon = -0.375
[sweep]
ebn0_db = 12
[criterion]
with_str = 0
with_oracle = 1
""",
    "relative_profile": """
[channel]
profile = taps.txt
[phase]
epsilon = 0.5
""",
}


def dump(src: str, out: str) -> None:
    sys.path.insert(0, src)
    from tdslink.analysis import default_phase_grid
    from tdslink.channel import AWGN_PROFILE, load_profile
    from tdslink.config import (
        CriterionOptions,
        McConfig,
        ScenarioConfig,
        load_scenario,
        scenario_fingerprint,
    )
    from tdslink.frame import FrameConfig, detect_labels, make_constellation
    from tdslink.montecarlo import (
        _Chain,
        _pn_estimated_responses,
        measure_chain_response,
        run_criterion,
        run_mc_ber,
        run_str_baseline,
        run_theory,
    )

    threeray = load_profile(PROFILES / "threeray.txt")
    longecho = load_profile(PROFILES / "longecho.txt")
    tworay = load_profile(PROFILES / "tworay.txt")
    single_pn = FrameConfig(n_fft=256, pn_len=128, dual_pn=False, modulation="qam64")

    def mc(**kw):
        return McConfig(**{"min_bits": 50_000, "min_errors": 40, "max_frames": 60, **kw})

    def cfg(**kw):
        base = dict(frame=FrameConfig(n_fft=256, pn_len=64, modulation="qam16"),
                    srrc_span=16, ebn0_sweep=(10.0,), mc=mc(), seed=11)
        return ScenarioConfig(**{**base, **kw})

    def counts(p):
        return (p.epsilon, p.bits, p.errors, p.axis_errors, p.axes, p.exhausted)

    res = {}
    points = {
        "known_threeray": cfg(channel=threeray, epsilon=0.3, ebn0_sweep=(12.0, 16.0)),
        "known_longecho_single_pn": cfg(channel=longecho, epsilon=-0.2, frame=single_pn,
                                        mc=mc(frames_per_burst=5), ebn0_sweep=(18.0,)),
        "estimated_threeray": cfg(channel=threeray, epsilon=0.1,
                                  mc=mc(equalizer="estimated"), ebn0_sweep=(14.0,)),
        "estimated_tworay_fpb3": cfg(channel=tworay, epsilon=0.5,
                                     mc=mc(equalizer="estimated", frames_per_burst=3)),
        "awgn_qam256": cfg(frame=FrameConfig(n_fft=256, pn_len=64, modulation="qam256"),
                           epsilon=0.25, ebn0_sweep=(20.0,), srrc_span=32),
        "awgn_bpsk": cfg(frame=FrameConfig(n_fft=512, pn_len=64, modulation="bpsk"),
                         epsilon=-0.4, ebn0_sweep=(4.0, 6.0)),
        "estimated_longecho_n1024": cfg(frame=FrameConfig(n_fft=1024, pn_len=128),
                                        channel=longecho, epsilon=0.3,
                                        mc=mc(equalizer="estimated", max_frames=16),
                                        ebn0_sweep=(12.0,)),
        "known_threeray_upsam2": cfg(frame=FrameConfig(n_fft=256, pn_len=64, n_upsam=2),
                                     channel=threeray, epsilon=-0.45, srrc_span=8,
                                     ebn0_sweep=(12.0,)),
        "ring_one_frame": cfg(channel=threeray, epsilon=0.2, mc=mc(frames_per_burst=1),
                              ebn0_sweep=(12.0,)),
        # stopped by min_errors, checked after every burst and every third
        "errors_stop_chunk1": cfg(channel=threeray, epsilon=0.35, ebn0_sweep=(6.0, 9.0),
                                  mc=mc(min_bits=1, min_errors=300, max_frames=400,
                                        chunk_bursts=1)),
        "errors_stop_chunk3": cfg(channel=threeray, epsilon=0.35, ebn0_sweep=(6.0, 9.0),
                                  mc=mc(min_bits=1, min_errors=300, max_frames=400,
                                        chunk_bursts=3)),
    }
    for name, c in points.items():
        res[f"mc/{name}"] = [counts(p) for p in run_mc_ber(c).points]
    channels = {"awgn": AWGN_PROFILE, "threeray": threeray, "longecho": longecho}
    for name, p in channels.items():
        for eps in (0.0, 0.125, 0.3, -0.37, 0.5, -0.5):
            res[f"chain/{name}/{eps}"] = measure_chain_response(cfg(channel=p), eps)
        for eps in (0.0, 0.2, -0.4, 0.5, 0.3, -0.13):
            r = run_str_baseline(cfg(channel=p, ebn0_sweep=(12.0,)), n_frames=12,
                                 injected_epsilon=eps)
            state = getattr(r, "state", r)
            res[f"str/{name}/{eps}"] = (r.epsilon_hat, list(state.error_history),
                                        state.peak_offset, r.converged)
    for name, p, frame in (("threeray", threeray, FrameConfig(n_fft=256, pn_len=64)),
                           ("longecho_single_pn", longecho, single_pn)):
        est = _pn_estimated_responses(_Chain(cfg(channel=p, frame=frame)), default_phase_grid(16))
        res[f"pn/{name}"] = {eps: r.h for eps, r in est.items()}
    for estimator in ("analytic", "pn"):
        options = CriterionOptions(grid_size=8, estimator=estimator,
                                   with_str=True, with_oracle=True)
        rep = run_criterion(cfg(channel=threeray, ebn0_sweep=(14.0,),
                                criterion=options, mc=mc(max_frames=16)))
        res[f"criterion/{estimator}"] = (
            rep.chosen_phase, counts(rep.chosen_point), rep.str_report.epsilon_hat,
            counts(rep.str_point), rep.oracle_phase,
            {eps: counts(p) for eps, p in rep.oracle_points.items()})
    for name, p in (("awgn", AWGN_PROFILE), ("threeray", threeray)):
        for mod in ("bpsk", "qam16", "qam256"):
            c = cfg(channel=p, frame=FrameConfig(n_fft=256, pn_len=64, modulation=mod),
                    ebn0_sweep=(4.0, 10.0, 16.0))
            curve = run_theory(c, epsilons=[0.0, 0.125, -0.3, 0.5], include_chernoff=True)
            for pt in curve.points:
                res.setdefault(f"theory/{name}/{mod}/{pt.source.value}", []).append(
                    (pt.epsilon, pt.ebn0_db, pt.ser, pt.ber))
    for name in ("bpsk", "qam16", "qam64", "qam256"):
        const = make_constellation(name)
        rng = np.random.default_rng(np.random.SeedSequence([11, const.order]))
        noisy = const.points[rng.integers(0, const.order, 4096)] + 0.1 * (
            rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
        res[f"detect/{name}/random"] = detect_labels(noisy, const)
        lev = np.unique(const.points.real)
        axis = np.concatenate([lev, (lev[:-1] + lev[1:]) / 2,
                               [lev[0] - 0.5, lev[-1] + 0.5]])
        im = axis if const.order > 2 else np.zeros(1)
        grid = (axis[:, None] + 1j * im[None, :]).ravel()
        res[f"detect/{name}/grid"] = detect_labels(grid, const)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        recipes = sorted((ROOT / "configs").glob("*.cfg"))
        files = {f"recipe/{p.stem}": p for p in recipes}
        (tmp / "taps.txt").write_text((PROFILES / "tworay.txt").read_text())
        for name, text in INLINE_SCENARIOS.items():
            files[f"inline/{name}"] = tmp / f"{name}.cfg"
            files[f"inline/{name}"].write_text(text)
        sys.path.insert(0, str(ROOT))
        from perfbench.workloads import CRITERION_WARMUP, WORKLOADS, write_scenario
        for w in WORKLOADS.values():
            for sc in w.scenarios:
                files[f"perfbench/{w.name}/{sc.name}"] = write_scenario(
                    ROOT, tmp, w.name, sc, 7)
        files["perfbench/warmup"] = write_scenario(ROOT, tmp, "w", CRITERION_WARMUP, 7)
        for name, path in files.items():
            c = load_scenario(path)
            res[f"config/{name}"] = (scenario_fingerprint(c),
                                     json.dumps(c.describe(), indent=2))
    with open(out, "wb") as fh:
        pickle.dump(res, fh)
    print(f"{len(res)} entries written to {out}")


def same(a, b) -> bool:
    """Bit-for-bit equality of nested dumps (arrays compared as bytes)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = pickle.load(fa), pickle.load(fb)
    differ = sorted(k for k in a.keys() | b.keys() if k not in a or k not in b
                    or not same(a[k], b[k]))
    print(f"{len(a)} entries; {len(differ)} differ" +
          (": " + ", ".join(differ) if differ else ""))
    for k in differ:
        x, y = numbers(a.get(k)), numbers(b.get(k))
        if x.size and x.shape == y.shape:
            rel = np.max(np.abs(x - y)) / np.max(np.abs(x))
            print(f"  {k}: max |difference| / max |before| = {rel:.2e}")
    return 1 if differ else 0


def check(rev: str = "HEAD") -> int:
    """Compare the seeded outputs of ``rev`` with the working tree's."""
    git = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        try:
            subprocess.run(git + ["add", "--detach", str(tree), rev], check=True)
            for src, out in ((tree / "src", tmp / "before.pkl"),
                             (ROOT / "src", tmp / "after.pkl")):
                subprocess.run([sys.executable, __file__, "dump", str(src), str(out)],
                               check=True)
        except subprocess.CalledProcessError as exc:
            print(f"check: {' '.join(exc.cmd)} exited {exc.returncode}", file=sys.stderr)
            return 1
        finally:
            subprocess.run(git + ["remove", "--force", str(tree)], capture_output=True)
        return compare(tmp / "before.pkl", tmp / "after.pkl")


def numbers(a) -> np.ndarray:
    """Every number of a nested dump, flattened in order (booleans too)."""
    if isinstance(a, dict):
        a = list(a.values())
    if isinstance(a, (list, tuple)):
        parts = [numbers(v) for v in a]
        return np.concatenate(parts) if parts else np.zeros(0)
    if isinstance(a, (np.ndarray, int, float, complex, np.number)):
        return np.ravel(np.asarray(a, dtype=np.complex128))
    return np.zeros(0)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "dump":
        dump(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    elif len(sys.argv) in (2, 3) and sys.argv[1] == "check":
        sys.exit(check(*sys.argv[2:]))
    else:
        sys.exit(__doc__)
