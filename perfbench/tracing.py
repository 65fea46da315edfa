"""In-memory spans around the calls the CLI makes into each cutflip layer.

Tracing wraps module attributes: each entry of ``LAYER_POINTS`` names a
module, the attribute looked up at call time, and the layer span recorded
around it. Nothing under ``src/`` changes; the originals are restored when
the ``Tracer`` context exits. Spans are kept in a list and written out once,
after the measured phase.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute, span name). A function is patched where its caller
# looks it up: harness imports solve_sdp / best_of / ... by name, and
# localsearch._run_trial reads its helpers from localsearch's globals.
LAYER_POINTS = [
    ("cutflip.harness", "parse_instance", "instance.parse"),
    ("cutflip.harness", "solve_sdp", "sdp.solve"),
    ("cutflip.sdp", "enumerate_triples", "sdp.triples"),
    ("cutflip.sdp", "max_triangle_violation", "sdp.scan"),
    ("cutflip.harness", "best_of", "localsearch.best_of"),
    ("cutflip.harness", "run_once", "localsearch.run_once"),
    ("cutflip.localsearch", "sample_gaussian", "rounding.sample"),
    ("cutflip.localsearch", "hyperplane_round", "rounding.round"),
    ("cutflip.localsearch", "evaluate", "localsearch.evaluate"),
    ("cutflip.localsearch", "analyze_candidates", "localsearch.analyze"),
    ("cutflip.localsearch", "apply_flips", "localsearch.flip"),
    ("cutflip.localsearch", "sdp_objective", "localsearch.report"),
    ("cutflip.localsearch", "rho_window_fraction", "localsearch.report"),
    ("cutflip.harness", "brute_force_opt", "oracle.solve"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    call: int  # CLI call the span belongs to
    counts: dict = field(default_factory=dict)


def _counts(name: str, result) -> dict:
    """Work counters read from a layer's return value."""
    if name == "sdp.solve":
        rep = result[1]
        return {
            "inner_iters": rep.iterations,
            "outer_rounds": len(rep.objective_history),
            "active_constraints": rep.n_active,
            "converged": int(rep.converged),
            "max_violation": rep.max_violation,
        }
    if name == "sdp.triples":
        return {"triples": len(result)}
    if name == "localsearch.analyze":
        return {"candidates": len(result.candidates), "flips": len(result.flipped)}
    if name == "oracle.solve":
        return {"assignments": result.enumerated}
    return {}


class Tracer:
    """Records nested spans while active; ``call(i)`` tags later spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._call = -1
        self._saved: list[tuple] = []

    def begin(self, name: str, call: int | None = None) -> int:
        if call is not None:
            self._call = call
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._call))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int, result=None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if result is not None:
            span.counts = _counts(span.name, result)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, result)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for mod_name, attr, name in LAYER_POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "call": s.call, "counts": s.counts}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
