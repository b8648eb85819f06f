"""Sharded link-prediction evaluation with optional worker processes.

The serial :class:`~repro.eval.evaluator.LinkPredictionEvaluator` ranks
every eval triple against every entity on one core.  This module splits
that work into shards, scores the shards (in-process or in a pool of
worker processes that rebuild the model from a
:class:`~repro.parallel.payload.ModelPayload`), and merges per-shard
rank statistics into an :class:`~repro.eval.evaluator.EvaluationResult`
whose metrics are **bit-identical** to the serial evaluator's.

Two shard axes are supported:

* ``"triples"`` (default) — partition the eval triple set into
  contiguous blocks whose boundaries are aligned to the evaluator's
  ``batch_size``.  Every worker then issues *exactly* the per-chunk
  score sweeps the serial evaluator would (same arrays, same shapes,
  same BLAS calls), so the merged ranks are equal float-for-float by
  construction, for any shard and worker count.
* ``"entities"`` — partition the candidate entity space into contiguous
  id ranges.  Workers count, per query, how many candidates in their
  range score strictly above / exactly equal to the true score
  (:func:`~repro.eval.ranking.comparison_counts`); the counts are
  integers, so merging is order-invariant and the reassembled ranks are
  identical for any shard count.  Equality with the *serial* evaluator
  additionally relies on per-shard matmuls ordering candidates exactly
  as the full-width sweep does — guaranteed for exact ties that stem
  from exact arithmetic (identical inputs, zero ω terms) and pinned by
  the regression suite for every model family in the repo; prefer the
  ``"triples"`` axis when provable bit-exactness matters more than the
  smaller per-worker score matrices.

``workers=0`` executes the same shard plan in-process (no subprocesses,
no payload), which is both the portable fallback and the reference the
multi-worker paths are tested against.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.base import KGEModel
from repro.errors import EvaluationError
from repro.eval.evaluator import EvaluationResult, compute_side_ranks, side_queries
from repro.eval.metrics import DEFAULT_HITS_AT, compute_metrics, merge_metrics
from repro.eval.ranking import TIE_POLICIES, comparison_counts, ranks_from_counts
from repro.kg.graph import FilterIndex, KGDataset
from repro.kg.triples import TripleSet
from repro.parallel.payload import (
    ModelPayload,
    describe_shipping,
    model_from_payload,
    model_to_payload,
)
from repro.obs import registry as obs_registry
from repro.obs.trace import trace_scope
from repro.parallel.pool import in_worker_process, run_tasks
from repro.serving.scorer import BatchedScorer

logger = logging.getLogger(__name__)

SHARD_AXES = ("triples", "entities")


@dataclass(frozen=True)
class ShardPlan:
    """A partition of ``total`` items into contiguous shards.

    ``bounds`` has ``num_shards + 1`` ascending entries with
    ``bounds[0] == 0`` and ``bounds[-1] == total``; shard ``i`` covers
    ``[bounds[i], bounds[i + 1])``.  Shards may be empty when there are
    fewer alignment units than shards.
    """

    axis: str
    bounds: tuple[int, ...]

    @property
    def num_shards(self) -> int:
        return len(self.bounds) - 1

    @property
    def total(self) -> int:
        return self.bounds[-1]

    def slices(self) -> list[tuple[int, int]]:
        """Non-empty ``(start, stop)`` shard ranges, in order."""
        return [
            (start, stop)
            for start, stop in zip(self.bounds[:-1], self.bounds[1:])
            if stop > start
        ]


def plan_shards(total: int, num_shards: int, axis: str, align: int = 1) -> ShardPlan:
    """Partition ``total`` items into ``num_shards`` aligned shards.

    Boundaries are multiples of *align* (except the final bound), spread
    as evenly as the alignment allows.  For the ``"triples"`` axis the
    alignment is the evaluator batch size, which is what makes worker
    chunk geometry identical to the serial evaluator's.
    """
    if axis not in SHARD_AXES:
        raise EvaluationError(f"unknown shard axis {axis!r}; known: {SHARD_AXES}")
    if num_shards < 1:
        raise EvaluationError(f"shards must be >= 1, got {num_shards}")
    if align < 1:
        raise EvaluationError(f"alignment must be >= 1, got {align}")
    if total < 0:
        raise EvaluationError(f"total must be >= 0, got {total}")
    units = -(-total // align)  # number of align-sized blocks, last may be ragged
    bounds = [min(align * ((units * i) // num_shards), total) for i in range(num_shards)]
    bounds.append(total)
    return ShardPlan(axis=axis, bounds=tuple(bounds))


# ----------------------------------------------------------------- worker side
@dataclass
class _EvalContext:
    """Everything a shard task needs, rebuilt once per worker process.

    ``true_scores`` and ``filters`` are entity-axis precomputations
    (keyed by side) done once in the parent so every shard compares and
    filters against identical data instead of redoing per-query work
    per shard.
    """

    model: KGEModel
    triples: np.ndarray
    filter_index: FilterIndex | None
    batch_size: int
    tie_policy: str
    true_scores: Mapping[str, np.ndarray]
    filters: Mapping[str, list | None]


_EVAL_CTX: _EvalContext | None = None


def _init_eval_context(
    model_or_payload: KGEModel | ModelPayload,
    triples: np.ndarray,
    filter_index: FilterIndex | None,
    batch_size: int,
    tie_policy: str,
    true_scores: Mapping[str, np.ndarray],
    filters: Mapping[str, list | None],
) -> None:
    """Pool initializer: set up this process's evaluation context.

    Runs once per worker (or once in-process for ``workers=0``, where
    the live model object is passed instead of a payload).
    """
    global _EVAL_CTX
    model = (
        model_from_payload(model_or_payload)
        if isinstance(model_or_payload, ModelPayload)
        else model_or_payload
    )
    _EVAL_CTX = _EvalContext(
        model=model,
        triples=triples,
        filter_index=filter_index,
        batch_size=batch_size,
        tie_policy=tie_policy,
        true_scores=true_scores,
        filters=filters,
    )


def _clear_eval_context() -> None:
    """Drop the module-global context (frees model/filter references)."""
    global _EVAL_CTX
    _EVAL_CTX = None


def _run_shard_task(task: tuple[str, str, int, int]):
    """Execute one shard task: ``(axis, side, start, stop)``.

    Triple-axis tasks return the shard's rank array; entity-axis tasks
    return per-query ``(better, ties)`` counts over the whole triple
    set for the candidate id range ``[start, stop)``.
    """
    axis, side, start, stop = task
    ctx = _EVAL_CTX
    if ctx is None:
        raise EvaluationError("evaluation context not initialised in this process")
    telemetry = obs_registry.active_registry() is not None
    started = time.perf_counter() if telemetry else 0.0
    try:
        if axis == "triples":
            obs_registry.inc("eval.triples_ranked", stop - start)
            return compute_side_ranks(
                ctx.model,
                ctx.triples[start:stop],
                ctx.filter_index,
                side,
                batch_size=ctx.batch_size,
                tie_policy=ctx.tie_policy,
            )
        return _entity_shard_counts(ctx, side, start, stop)
    finally:
        if telemetry:
            obs_registry.inc("eval.shard_tasks")
            obs_registry.observe("eval.shard_seconds", time.perf_counter() - started)


def _entity_shard_counts(ctx, side: str, start: int, stop: int):
    anchors, relations, true_indices, _ = side_queries(
        ctx.triples, ctx.filter_index, side
    )
    true_scores = ctx.true_scores[side]
    side_filters = ctx.filters.get(side)
    candidates = np.arange(start, stop, dtype=np.int64)
    scorer = BatchedScorer(ctx.model, chunk_size=ctx.batch_size)
    better = np.zeros(len(ctx.triples), dtype=np.int64)
    ties = np.zeros(len(ctx.triples), dtype=np.int64)
    for row_start, row_stop, block in scorer.iter_candidate_scores(
        anchors, relations, side, candidates
    ):
        better_block, ties_block = comparison_counts(
            block,
            true_scores[row_start:row_stop],
            start,
            true_indices[row_start:row_stop],
            side_filters[row_start:row_stop] if side_filters is not None else None,
        )
        better[row_start:row_stop] = better_block
        ties[row_start:row_stop] = ties_block
    return better, ties


# ----------------------------------------------------------------- parent side
class ShardedEvaluator:
    """Drop-in parallel counterpart of :class:`LinkPredictionEvaluator`.

    Parameters mirror the serial evaluator, plus:

    shards:
        Number of shards the work is split into (``>= 1``).
    workers:
        Worker processes scoring shards; ``0`` keeps everything
        in-process (same shard plan, same merged metrics).
    shard_axis:
        ``"triples"`` (default, bit-exact by construction) or
        ``"entities"`` (smaller per-task score matrices; see the module
        docstring for the exactness contract).
    """

    def __init__(
        self,
        dataset: KGDataset,
        shards: int = 1,
        workers: int = 0,
        shard_axis: str = "triples",
        batch_size: int = 512,
        filtered: bool = True,
        hits_at: tuple[int, ...] = DEFAULT_HITS_AT,
        tie_policy: str = "average",
        retries: int = 1,
        backoff: float = 0.0,
        task_timeout: float | None = None,
        fault_plan=None,
    ) -> None:
        if batch_size < 1:
            raise EvaluationError("batch_size must be >= 1")
        if retries < 0:
            raise EvaluationError(f"retries must be >= 0, got {retries}")
        if shards < 1:
            raise EvaluationError(f"shards must be >= 1, got {shards}")
        if workers < 0:
            raise EvaluationError(f"workers must be >= 0, got {workers}")
        if shard_axis not in SHARD_AXES:
            raise EvaluationError(
                f"unknown shard axis {shard_axis!r}; known: {SHARD_AXES}"
            )
        if tie_policy not in TIE_POLICIES:
            raise EvaluationError(
                f"unknown tie policy {tie_policy!r}; known: {TIE_POLICIES}"
            )
        self.dataset = dataset
        self.shards = int(shards)
        self.workers = int(workers)
        self.shard_axis = shard_axis
        self.batch_size = int(batch_size)
        self.filtered = bool(filtered)
        self.hits_at = tuple(hits_at)
        self.tie_policy = tie_policy
        #: Fault-tolerance knobs forwarded to the pool.  Shard results
        #: are deterministic in their inputs, so ``retries=1`` (default)
        #: transparently heals a worker lost to OOM/segfault without any
        #: risk of changing metrics; deterministic shard failures still
        #: fail fast.
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.task_timeout = task_timeout
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------ public
    def evaluate(
        self, model: KGEModel, split: str = "test", max_triples: int | None = None
    ) -> EvaluationResult:
        """Evaluate *model* on a named split, sharded per the constructor."""
        try:
            triples = self.dataset.splits[split]
        except KeyError:
            raise EvaluationError(f"unknown split {split!r}") from None
        return self.evaluate_triples(model, triples, split_name=split, max_triples=max_triples)

    def evaluate_triples(
        self,
        model: KGEModel,
        triples: TripleSet,
        split_name: str = "custom",
        max_triples: int | None = None,
    ) -> EvaluationResult:
        """Sharded evaluation of an explicit :class:`TripleSet`."""
        if len(triples) == 0:
            raise EvaluationError("cannot evaluate on an empty triple set")
        arr = triples.array
        if max_triples is not None and len(arr) > max_triples:
            arr = arr[:max_triples]
        filter_index = self.dataset.filter_index if self.filtered else None
        if self.shard_axis == "triples":
            plan = plan_shards(len(arr), self.shards, "triples", align=self.batch_size)
        else:
            plan = plan_shards(self.dataset.num_entities, self.shards, "entities")
        tail_ranks, head_ranks = self._side_ranks(model, arr, filter_index, plan)
        tail_metrics = compute_metrics(tail_ranks, self.hits_at)
        head_metrics = compute_metrics(head_ranks, self.hits_at)
        return EvaluationResult(
            overall=merge_metrics(tail_metrics, head_metrics),
            tail_side=tail_metrics,
            head_side=head_metrics,
            split=split_name,
        )

    # ----------------------------------------------------------------- helpers
    def _entity_axis_precompute(
        self, model: KGEModel, arr: np.ndarray, filter_index: FilterIndex | None
    ) -> tuple[dict[str, np.ndarray], dict[str, list | None]]:
        """Per-side true scores + filter lists, computed once in the parent.

        Entity-axis workers compare their candidate blocks against these
        reference scores, so every shard counts against the *same*
        floats no matter which process owns the true entity's shard.
        The per-query filter-id lists are likewise shard-independent —
        resolving them here (one pass, like the serial evaluator's)
        instead of once per shard keeps the Python-loop filter cost off
        the sharding multiplier.
        """
        scores: dict[str, np.ndarray] = {}
        filters: dict[str, list | None] = {}
        for side in ("tail", "head"):
            anchors, relations, true_indices, lookup = side_queries(
                arr, filter_index, side
            )
            scores[side] = model.score_candidates(
                anchors, relations, true_indices[:, None], side
            ).ravel()
            filters[side] = (
                [
                    lookup(int(anchor), int(relation))
                    for anchor, relation in zip(anchors, relations)
                ]
                if lookup is not None
                else None
            )
        return scores, filters

    def _side_ranks(
        self,
        model: KGEModel,
        arr: np.ndarray,
        filter_index: FilterIndex | None,
        plan: ShardPlan,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dispatch the shard plan and merge per-shard statistics."""
        slices = plan.slices()
        tasks = [
            (plan.axis, side, start, stop)
            for side in ("tail", "head")
            for start, stop in slices
        ]
        true_scores: dict[str, np.ndarray] = {}
        filters: dict[str, list | None] = {}
        if plan.axis == "entities":
            true_scores, filters = self._entity_axis_precompute(model, arr, filter_index)
        workers = self.workers
        if workers > 0 and (
            in_worker_process() or multiprocessing.current_process().daemon
        ):
            # Already inside a pool worker (e.g. a parallel-sweep child)
            # or a daemonic process: spawning a grandchild pool would
            # oversubscribe the machine (or be outright forbidden for
            # daemons).  The in-process path yields the same metrics.
            workers = 0
        shipped = model_to_payload(model) if workers > 0 else model
        if isinstance(shipped, ModelPayload):
            # The sharing win is observable: store-backed models ship
            # file paths, not table bytes, so per-worker dispatch cost
            # stays flat as the model grows.
            logger.info(
                "dispatching %d eval shards to %d workers — %s",
                len(tasks),
                workers,
                describe_shipping(shipped),
            )
        try:
            with trace_scope(
                "eval.sharded",
                axis=plan.axis,
                shards=len(tasks),
                workers=workers,
            ):
                outcomes = run_tasks(
                    _run_shard_task,
                    tasks,
                    workers=workers,
                    initializer=_init_eval_context,
                    initargs=(
                        shipped,
                        arr,
                        filter_index,
                        self.batch_size,
                        self.tie_policy,
                        true_scores,
                        filters,
                    ),
                    retries=self.retries,
                    backoff=self.backoff,
                    task_timeout=self.task_timeout,
                    fault_plan=self.fault_plan,
                )
        finally:
            # workers=0 installed the context in *this* process; drop it
            # so the model/filter references don't outlive the call.
            _clear_eval_context()
        failed = [outcome for outcome in outcomes if not outcome.ok]
        if failed:
            raise EvaluationError(
                f"{len(failed)} of {len(outcomes)} evaluation shards failed; first "
                f"worker traceback:\n{failed[0].error}"
            )
        per_side = len(slices)
        by_side = {
            "tail": [outcome.value for outcome in outcomes[:per_side]],
            "head": [outcome.value for outcome in outcomes[per_side:]],
        }
        results = []
        for side in ("tail", "head"):
            values = by_side[side]
            if plan.axis == "triples":
                results.append(np.concatenate(values))
            else:
                better = np.sum([value[0] for value in values], axis=0)
                ties = np.sum([value[1] for value in values], axis=0)
                results.append(ranks_from_counts(better, ties, self.tie_policy))
        return results[0], results[1]
