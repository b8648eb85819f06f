"""Span recording around the public entry points of each layer.

The benchmark's traced run (``--trace 1``) installs timing wrappers on
the functions listed in :data:`TARGETS`, from these files only: nothing
under ``src/`` is edited.  Each call becomes a span ``(id, parent,
name, start, end)``; the parent is the innermost open span of the same
thread, so nesting follows the real call stack (the daemon's worker
threads start their own stacks).  Spans stay in memory and are written
out when the run ends.  A span's *self time* is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: ``(module, owner, attribute, span name)``; ``owner`` is a class name
#: or ``None`` for a module-level function.  Module-level entries patch
#: the name in the module that *calls* it, which is what the caller
#: looks up at call time.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    # kg
    ("repro.kg.graph", "FilterIndex", "__init__", "kg.filter_build"),
    ("repro.kg.graph", "FilterIndex", "copy", "kg.filter_update"),
    ("repro.kg.graph", "FilterIndex", "add_triples", "kg.filter_update"),
    ("repro.kg.graph", "FilterIndex", "remove_triples", "kg.filter_update"),
    # training + core
    ("repro.training.trainer", "Trainer", "_run_epoch", "training.epoch"),
    ("repro.training.negatives", "UniformNegativeSampler", "corrupt", "training.sampler"),
    ("repro.core.interaction", "MultiEmbeddingModel", "train_step", "core.train_step"),
    # eval
    ("repro.eval.evaluator", "LinkPredictionEvaluator", "evaluate", "eval.evaluate"),
    ("repro.eval.evaluator", None, "compute_side_ranks", "eval.side_ranks"),
    ("repro.eval.evaluator", None, "ranks_from_score_matrix", "eval.rank"),
    # serving
    ("repro.serving.predictor", "LinkPredictor", "top_k", "predictor.top_k"),
    ("repro.serving.scorer", "BatchedScorer", "iter_all_scores", "scorer.sweep"),
    ("repro.serving.scorer", "BatchedScorer", "all_scores", "scorer.all_scores"),
    ("repro.serving.scorer", "BatchedScorer", "score_candidates", "scorer.score_candidates"),
    # index
    ("repro.index.ivf", "IVFIndex", "build", "index.build"),
    ("repro.index.ivf", "IVFIndex", "candidate_lists", "index.candidate_lists"),
    ("repro.index.ivf", "IVFIndex", "update_entities", "index.update"),
    # ingest
    ("repro.ingest", None, "ingest_delta", "ingest.delta"),
    ("repro.ingest.service", None, "apply_delta", "ingest.apply"),
    ("repro.ingest.service", None, "fine_tune_delta", "ingest.fine_tune"),
)


class Recorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, span_id: int, parent: int | None, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end))

    def wrap(self, function, name: str):
        """A timing wrapper around *function*; generators get one span per
        ``next`` so a consumer's own work between items is not counted."""
        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    span_id, parent, start = self._open()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, span_id, parent, start)
                    yield item

            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_id, parent, start = self._open()
            try:
                return function(*args, **kwargs)
            finally:
                self._close(name, span_id, parent, start)

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Patch every target in place; :meth:`uninstall` restores them."""
        for module_name, owner_name, attribute, name in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute] if owner_name else getattr(owner, attribute)
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -------------------------------------------------------------- summary
    def mark(self) -> int:
        """Position in the span list; pass to :meth:`summary` as *since*."""
        return len(self.spans)

    def summary(self, since: int = 0, until: int | None = None) -> dict[str, dict]:
        """Per span name: ``count``, ``total_s`` and ``self_s`` of the spans
        closed between two :meth:`mark` positions."""
        return _summarise(self.spans[since:until])

    def summary_over(self, ranges) -> dict[str, dict]:
        """:meth:`summary` of the spans of several ``(since, until)`` ranges."""
        return _summarise([span for since, until in ranges for span in self.spans[since:until]])

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def _summarise(spans) -> dict[str, dict]:
    """Per span name: ``count``, ``total_s`` and ``self_s``; a span's self
    time is its duration minus its direct children's."""
    child_time: dict[int, float] = defaultdict(float)
    for _span_id, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for span_id, _parent, name, start, end in spans:
        entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time.get(span_id, 0.0)
    return out


def mean_ms(summary: dict, name: str, field: str = "total_s") -> float:
    """Mean milliseconds per span of *name* (0.0 when it never ran)."""
    entry = summary.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return 1000.0 * entry[field] / entry["count"]


def _per(summary: dict, name: str, per: str, field: str = "total_s") -> float:
    """Seconds of *name* per span of *per* (0.0 when *per* never ran)."""
    count = summary.get(per, {}).get("count", 0)
    return summary.get(name, {}).get(field, 0.0) / count if count else 0.0


def span_layers(train: dict, evaluate: dict, serve: dict, ingest: dict, setup: dict) -> dict:
    """Per-layer figures from the span summaries of each phase."""
    return {
        "training.epoch_s": mean_ms(train, "training.epoch") / 1000.0,
        "core.train_step_ms": mean_ms(train, "core.train_step"),
        "training.sampler_ms": mean_ms(train, "training.sampler"),
        "kg.filter_build_s": mean_ms(evaluate, "kg.filter_build") / 1000.0,
        "eval.score_s": _per(evaluate, "scorer.sweep", "eval.evaluate"),
        "eval.rank_s": _per(evaluate, "eval.rank", "eval.evaluate"),
        "eval.filter_lookup_s": _per(evaluate, "eval.side_ranks", "eval.evaluate", "self_s"),
        "predictor.top_k_ms": mean_ms(serve, "predictor.top_k"),
        "predictor.select_mask_ms": mean_ms(serve, "predictor.top_k", "self_s"),
        "scorer.all_scores_ms": mean_ms(serve, "scorer.all_scores"),
        "scorer.score_candidates_ms": mean_ms(serve, "scorer.score_candidates"),
        "index.candidate_lists_ms": mean_ms(serve, "index.candidate_lists"),
        "ingest.apply_s": _per(ingest, "ingest.apply", "ingest.delta"),
        "kg.filter_update_s": _per(ingest, "kg.filter_update", "ingest.delta"),
        "index.build_s": mean_ms(setup, "index.build") / 1000.0,
    }
