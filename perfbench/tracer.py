"""In-memory span tracer that wraps tdslink's layer functions from outside.

Each wrapped function is replaced, in every ``tdslink`` module that binds
it, by a wrapper that records a span (name, parent, start, end) plus an
optional work count.  Nothing under ``src/`` changes: the wrappers are
installed for the traced part of a run and removed afterwards.

The span stack is shared by all threads.  That is only correct because
the benchmark runs with ``workers = 1``: ``run_mc_ber`` hands each burst
to a one-thread pool and blocks until it returns, so exactly one thread
executes tdslink code at any moment and the burst spans nest under the
caller that is waiting for them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from dataclasses import dataclass, field


def _n_in(args, kwargs, result):
    """Length of the first argument (of its samples, for a SignalBuffer)."""
    buf = args[0]
    return len(getattr(buf, "samples", buf))


def _frames_tracked(args, kwargs, result):
    return len(result.error_history)


# (module, function, work counter).  Private montecarlo names are wrapped
# only to count points and frames; a name a later version of tdslink no
# longer has is skipped and listed in ``Tracer.missing``.
TRACED = [
    ("dsp", "apply_fir", _n_in),
    ("dsp", "fractional_delay", _n_in),
    ("dsp", "srrc_taps", None),
    ("frame", "build_frame", None),
    ("frame", "shape_symbols", None),
    ("frame", "detect_labels", _n_in),
    ("channel", "apply_channel", None),
    ("channel", "equivalent_response", None),
    ("channel", "add_awgn", None),
    ("channel", "estimate_response_from_pn", None),
    ("analysis", "band_power_criterion", None),
    ("str_sync", "str_track", _frames_tracked),
    ("str_sync", "correlate_pn", None),
    ("montecarlo", "run_mc_ber", None),
    ("montecarlo", "run_criterion", None),
    ("montecarlo", "run_str_baseline", None),
    ("montecarlo", "grid_search_ber_oracle", None),
    ("montecarlo", "_run_point", None),
    ("montecarlo", "_simulate_burst", "n_frames"),
    ("config", "load_scenario", None),
    ("cli", "main", None),
]


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    work: int = 0


@dataclass
class Tracer:
    """Records spans while installed; ``stats`` aggregates them by name."""

    spans: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def _wrap(self, name: str, fn, work):
        if isinstance(work, str):  # count a named argument
            sig = inspect.signature(fn)
            arg = work

            def work(args, kwargs, result):
                return sig.bind(*args, **kwargs).arguments[arg]

        stat = self.stats.setdefault(name, Stat())
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span_id = len(spans)
            spans.append(None)
            frame = [span_id, 0.0]  # id, time covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[span_id] = (name, parent, start, end)
                stat.calls += 1
                stat.self_s += dur - frame[1]
            if work is not None:
                stat.work += int(work(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        pkg = "tdslink"
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for mod_name, fn_name, work in TRACED:
            owner = sys.modules.get(f"{pkg}.{mod_name}")
            orig = getattr(owner, fn_name, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, work)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)
                    self._patches.append((mod, fn_name, orig))

    def uninstall(self) -> None:
        for mod, fn_name, orig in reversed(self._patches):
            setattr(mod, fn_name, orig)
        self._patches.clear()

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for n, s in self.stats.items()
                   if n.startswith(layer + "."))

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def write(self, path) -> None:
        """Write the spans as gzip JSON: one [name, parent, start, end] each."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans}, fh)
