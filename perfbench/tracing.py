"""Spans and counts around alignflow's public entry points, recorded from outside.

Nothing under ``src/`` knows about this module. A ``Tracer`` replaces each
entry point with a wrapper while a traced window is open and restores the
original on exit. ``harness`` imports ``mas_search``, ``log_prob_grid``,
``train_duration`` and the checkpoint functions by name, so those are patched
where ``harness`` looks them up; methods are patched on their class. Spans stay in memory (name, start, end, parent, Tensor count at
start and end) and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import time

from alignflow import corpus, duration, harness
from alignflow import numerics as nm
from alignflow.encoder import TextEncoder
from alignflow.flows import FlowStack


def _grid_cells(grid, *args, **kwargs) -> int:
    return grid.valid_i * grid.valid_j


# span name -> (object whose attribute is patched, attribute, work counter or None)
ENTRY_POINTS = {
    "harness.train_toy": (harness, "train_toy", None),
    "harness.eval_alignment": (harness, "eval_alignment", None),
    "harness.duration_targets": (harness, "duration_targets", None),
    "harness.predict_durations": (harness, "predict_durations", None),
    "duration.train_duration": (harness, "train_duration", None),
    "duration.generate": (duration, "generate", None),
    "duration.adv_loss_d": (duration, "adv_loss_d", None),
    "duration.adv_loss_g": (duration, "adv_loss_g", None),
    "duration.mse_loss": (duration, "mse_loss", None),
    "alignment.mas_search": (harness, "mas_search", _grid_cells),
    "alignment.log_prob_grid": (harness, "log_prob_grid", None),
    "encoder.encode": (TextEncoder, "encode", None),
    "flows.forward": (FlowStack, "forward", None),
    "numerics.backward": (nm.Tensor, "backward", None),
    "numerics.adamw.step": (nm.AdamW, "step", None),
    "checkpoint.save_checkpoint": (harness, "save_checkpoint", None),
    "checkpoint.load_checkpoint": (harness, "load_checkpoint", None),
    "corpus.generate_corpus": (corpus, "generate_corpus", None),
}


class Tracer:
    """In-memory span log; ``window(label)`` patches the entry points."""

    def __init__(self):
        # [name, start, end, parent, tensors_at_start, tensors_at_end, window, work]
        self.spans: list[list] = []
        self.tensors = 0
        self._stack: list[int] = []
        self._window = ""

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            work = counter(*args, **kwargs) if counter is not None else 0
            spans.append([name, time.perf_counter(), 0.0, parent, self.tensors, 0, self._window, work])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span = spans[idx]
                span[2] = time.perf_counter()
                span[5] = self.tensors

        return traced

    @contextlib.contextmanager
    def window(self, label: str):
        """Trace every entry point (and count Tensor constructions) inside the block."""
        saved = []
        for name, (owner, attr, counter) in ENTRY_POINTS.items():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        tensor_init = nm.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            self.tensors += 1
            tensor_init(tensor, *args, **kwargs)

        nm.Tensor.__init__ = counting_init
        self._window = label
        try:
            yield self
        finally:
            nm.Tensor.__init__ = tensor_init
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self._window = ""

    def summary(self, window_prefix: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, work, total ms and self ms over windows with the prefix."""
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ms[span[3]] += (span[2] - span[1]) * 1e3
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _, _, _, label, work) in enumerate(self.spans):
            if not label.startswith(window_prefix):
                continue
            row = out.setdefault(name, {"calls": 0, "work": 0, "ms": 0.0, "self_ms": 0.0})
            ms = (end - start) * 1e3
            row["calls"] += 1
            row["work"] += work
            row["ms"] += ms
            row["self_ms"] += ms - child_ms[idx]
        return out

    def tensors_between(self, start_name: str, end_name: str, window_prefix: str) -> list[int]:
        """Tensor constructions from each ``start_name`` entry to the next ``end_name`` entry."""
        out, begin = [], None
        for name, _, _, _, at_start, _, label, _ in self.spans:
            if not label.startswith(window_prefix):
                continue
            if name == start_name:
                begin = at_start
            elif name == end_name and begin is not None:
                out.append(at_start - begin)
                begin = None
        return out

    def tensors_per_call(self, name: str, window_prefix: str) -> list[int]:
        return [s[5] - s[4] for s in self.spans if s[0] == name and s[6].startswith(window_prefix)]

    def write(self, path, header: dict):
        """One JSON line of run metadata, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for idx, (name, start, end, parent, t0, t1, label, work) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent, "window": label,
                    "start_s": start, "end_s": end, "tensors": t1 - t0, "work": work,
                }) + "\n")
