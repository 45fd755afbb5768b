"""Dump the seeded outputs of a tdslink source tree, or compare two dumps.

A refactor that must not change behaviour is checked by dumping its tree
and its parent's tree with this one script and comparing the dumps bit
for bit:

    python scripts/seeded_outputs.py dump <path/to/src> before.pkl
    python scripts/seeded_outputs.py dump src after.pkl
    python scripts/seeded_outputs.py compare before.pkl after.pkl

The check set covers every Monte-Carlo caller at small budgets:
``run_mc_ber`` point counts (known and estimated equalizer, multipath,
single and dual PN, AWGN qam256 and bpsk), ``measure_chain_response``,
``run_str_baseline``, the PN-estimated responses and ``run_criterion``
with both estimators.  A dump takes a few seconds.  Only load dumps this
script wrote: they are pickles.
"""

import pickle
import sys
from pathlib import Path

import numpy as np

PROFILES = Path(__file__).resolve().parent.parent / "configs" / "profiles"


def dump(src: str, out: str) -> None:
    sys.path.insert(0, src)
    from tdslink.analysis import default_phase_grid
    from tdslink.channel import AWGN_PROFILE, load_profile
    from tdslink.config import CriterionOptions, McConfig, ScenarioConfig
    from tdslink.frame import FrameConfig
    from tdslink.montecarlo import (
        _pn_estimated_responses,
        measure_chain_response,
        run_criterion,
        run_mc_ber,
        run_str_baseline,
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
            res[f"str/{name}/{eps}"] = (r.epsilon_hat, list(r.state.error_history),
                                        r.state.peak_offset, r.converged)
    for name, p, frame in (("threeray", threeray, FrameConfig(n_fft=256, pn_len=64)),
                           ("longecho_single_pn", longecho, single_pn)):
        est = _pn_estimated_responses(cfg(channel=p, frame=frame), default_phase_grid(16))
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
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "dump":
        dump(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
