"""Span tracer for the benchmark's traced run.

Wrappers are installed from this file around public functions of the
library's layers, at every ``quip.*`` module attribute that holds them,
so the library itself is unchanged. A span records its name, start, end,
parent span and run id. Spans stay in memory and are written out once,
when the run ends.

Self time is a span's duration minus the time its child spans cover. The
benchmark's own spans (``pass`` and ``op``) are the roots; their self time
is the unattributed remainder, so the layers' self times plus that
remainder add up to the traced wall time.

Work counts are kept per operation. Counts from an operation that ended at
a wall-clock limit depend on machine speed, so they are kept apart from the
counts that must repeat exactly.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, attribute) of the public functions wrapped in that layer
LAYERS = {
    "bench": [("quip.bench", "run_bench"), ("quip.bench", "initial_design")],
    "sequential": [("quip.sequential", "run_campaign")],
    "gp": [("quip.gp", "fit_mle"), ("quip.gp", "build_model"),
           ("quip.gp", "predict_batch")],
    "acquisition": [("quip.acquisition", "optimize_acquisition"),
                    ("quip.acquisition", "candidate_set_acquisition")],
    "maximin": [("quip.maximin", "optimize_maximin"),
                ("quip.maximin", "solve_feasibility")],
    "simulators": [("quip.simulators", "snake_reward"),
                   ("quip.simulators", "maze_cost"),
                   ("quip.simulators", "rover_cost")],
    "encoding": [("quip.encoding", "Design.as_array")],
}
ROOT_SPANS = ("pass", "op")


def _rows(counts, args, kwargs, out):
    X = args[1] if len(args) > 1 else kwargs["X_new"]
    counts["predict_rows"] += len(X)


def _acq_kind(counts, args, kwargs, out):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return spec.kind, out


# what a traced call leaves behind: a payload kept for the summary, or a count
NOTES = {
    "fit_mle": lambda counts, args, kwargs, out: out,
    "predict_batch": _rows,
    "optimize_acquisition": _acq_kind,
    "optimize_maximin": lambda counts, args, kwargs, out: out,
    "solve_feasibility": lambda counts, args, kwargs, out: out,
}

_perf = time.perf_counter


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans around the wrapped layer functions while installed."""

    def __init__(self):
        self.span_layer = {name: "benchmark" for name in ROOT_SPANS}
        self.runs: list[str] = []
        self.spans: list[tuple] = []  # (id, name, start, end, parent, run index)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.results: dict[str, list] = defaultdict(list)  # (pass, limited, payload)
        self.exact_counts: list[Counter] = []  # per traced pass
        self.all_counts = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._installed: list[tuple] = []
        self._op_counts = Counter()
        self._op_results: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at each quip module attribute holding it."""
        originals = {}
        for layer, entries in LAYERS.items():
            for module, attr in entries:
                owner, name = _resolve(module, attr)
                fn = getattr(owner, name)
                short = attr.split(".")[-1]
                self.span_layer[short] = layer
                originals[id(fn)] = (fn, self._wrap(short, fn))
                self._patch(owner, name, fn, originals[id(fn)][1])
        for modname, module in list(sys.modules.items()):
            if modname != "quip" and not modname.startswith("quip."):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    self._patch(module, name, value, originals[id(value)][1])

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        enter, leave = self._enter, self._leave
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(frame)
            if note is not None:
                payload = note(self._op_counts, args, kwargs, out)
                if payload is not None:
                    self._op_results.append((name, payload))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, parent, _perf(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = _perf()
        span_id, name, parent, start, covered = self._stack.pop()
        dur = end - start
        self.inclusive[name] += dur
        self.self_time[name] += dur - covered
        self.durations[name].append(dur)
        self._op_counts[name] += 1
        self.spans.append((span_id, name, start, end, parent, len(self.runs) - 1))
        if self._stack:
            self._stack[-1][4] += dur

    def begin_pass(self, run_id: str) -> None:
        self.runs.append(run_id)
        self.exact_counts.append(Counter())
        self._pass_frame = self._enter("pass")

    def end_pass(self) -> float:
        frame = self._pass_frame
        self._leave(frame)
        self._op_counts.pop("pass", None)
        return self.spans[-1][3] - self.spans[-1][2]

    def begin_op(self):
        self._op_counts = Counter()
        self._op_results = []
        return self._enter("op")

    def end_op(self, frame, op) -> None:
        """Close an operation; ``op.limited`` marks one that ended at a time limit."""
        limited = op.limited
        self._leave(frame)
        self._op_counts.pop("op", None)
        self.all_counts.update(self._op_counts)
        if not limited:
            self.exact_counts[-1].update(self._op_counts)
        for name, payload in self._op_results:
            self.results[name].append((len(self.runs) - 1, limited, payload))
        self._op_results = []

    # -- summaries --------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, value in self.self_time.items():
            out[self.span_layer[name]] += value
        return out

    def write(self, path: str) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[2] for s in self.spans), default=0.0)
        doc = {
            "runs": self.runs,
            "names": names,
            "layers": {n: self.span_layer[n] for n in names},
            "columns": ["id", "name", "start_s", "end_s", "parent", "run"],
            "spans": [[s[0], index[s[1]], s[2] - t0, s[3] - t0, s[4], s[5]]
                      for s in sorted(self.spans)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
