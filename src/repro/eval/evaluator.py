"""Link prediction evaluator tying models, datasets and metrics together.

Implements the protocol of §5.2: for every eval triple, corrupt the tail
against all entities and the head against all entities, filter known true
triples (the *filtered* setting), rank the true entity, and aggregate
MRR / Hits@k over both sides.

The 1-vs-all sweeps stream through the serving layer's
:class:`~repro.serving.scorer.BatchedScorer` in memory-bounded chunks of
``batch_size`` eval triples, so evaluation shares one scoring path with
the :class:`~repro.serving.predictor.LinkPredictor` and never
materialises more than one ``(batch_size, num_entities)`` score matrix.
Ranking compares candidates *within* a row, where chunk boundaries
cannot reorder scores or break exact ties, so metrics are bit-identical
for any ``batch_size`` (the chunking regression test pins this down for
sizes 1, 7 and full-batch).  The scorer calls the models' own scoring
methods, so evaluation ranks the very scores serving returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import KGEModel
from repro.errors import EvaluationError
from repro.eval.metrics import DEFAULT_HITS_AT, RankingMetrics, compute_metrics, merge_metrics
from repro.eval.ranking import ranks_from_score_matrix
from repro.kg.graph import FilterIndex, KGDataset
from repro.kg.triples import TripleSet
from repro.serving.scorer import BatchedScorer


@dataclass(frozen=True)
class EvaluationResult:
    """Metrics for one evaluation run, overall and per side."""

    overall: RankingMetrics
    tail_side: RankingMetrics
    head_side: RankingMetrics
    split: str


class LinkPredictionEvaluator:
    """Filtered (or raw) ranking evaluation of a model on a dataset split.

    Parameters
    ----------
    dataset:
        Supplies the splits and the filter index over all known triples.
    batch_size:
        Number of eval triples scored per 1-vs-all sweep; bounds peak
        memory at one ``(batch_size, num_entities)`` float64 matrix.
    filtered:
        Use the filtered protocol (True, paper default) or raw ranking.
    hits_at:
        Cutoffs for Hits@k.
    tie_policy:
        Tie handling convention, see :mod:`repro.eval.ranking`.
    """

    def __init__(
        self,
        dataset: KGDataset,
        batch_size: int = 512,
        filtered: bool = True,
        hits_at: tuple[int, ...] = DEFAULT_HITS_AT,
        tie_policy: str = "average",
    ) -> None:
        if batch_size < 1:
            raise EvaluationError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.filtered = bool(filtered)
        self.hits_at = tuple(hits_at)
        self.tie_policy = tie_policy

    # ------------------------------------------------------------------ public
    def evaluate(
        self, model: KGEModel, split: str = "test", max_triples: int | None = None
    ) -> EvaluationResult:
        """Evaluate *model* on a named split of the dataset."""
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
        """Evaluate on an explicit :class:`TripleSet` (e.g. train subsample).

        ``max_triples`` caps the number of evaluated triples — used to
        report "on train" rows (paper Table 2) without sweeping the whole
        training set.
        """
        if len(triples) == 0:
            raise EvaluationError("cannot evaluate on an empty triple set")
        arr = triples.array
        if max_triples is not None and len(arr) > max_triples:
            arr = arr[:max_triples]
        filter_index = self.dataset.filter_index if self.filtered else None
        tail_ranks = self._ranks_one_side(model, arr, filter_index, side="tail")
        head_ranks = self._ranks_one_side(model, arr, filter_index, side="head")
        tail_metrics = compute_metrics(tail_ranks, self.hits_at)
        head_metrics = compute_metrics(head_ranks, self.hits_at)
        return EvaluationResult(
            overall=merge_metrics(tail_metrics, head_metrics),
            tail_side=tail_metrics,
            head_side=head_metrics,
            split=split_name,
        )

    # ----------------------------------------------------------------- helpers
    def _ranks_one_side(
        self,
        model: KGEModel,
        triples: np.ndarray,
        filter_index: FilterIndex | None,
        side: str,
    ) -> np.ndarray:
        """Ranks of the true entity for every triple, one side at a time."""
        return compute_side_ranks(
            model,
            triples,
            filter_index,
            side,
            batch_size=self.batch_size,
            tie_policy=self.tie_policy,
        )


def side_queries(
    triples: np.ndarray, filter_index: FilterIndex | None, side: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, object]:
    """Decompose eval triples into one side's ranking queries.

    Returns ``(anchors, relations, true_indices, lookup)`` where
    ``lookup`` is the filter-index accessor for the side (or ``None``
    under the raw protocol).  Shared by the serial evaluator and the
    sharded workers so both sides of the protocol stay defined in one
    place.
    """
    if side == "tail":
        anchors, true_indices = triples[:, 0], triples[:, 1]
        lookup = filter_index.true_tails if filter_index is not None else None
    else:
        anchors, true_indices = triples[:, 1], triples[:, 0]
        lookup = filter_index.true_heads if filter_index is not None else None
    return anchors, triples[:, 2], true_indices, lookup


def compute_side_ranks(
    model: KGEModel,
    triples: np.ndarray,
    filter_index: FilterIndex | None,
    side: str,
    batch_size: int,
    tie_policy: str = "average",
) -> np.ndarray:
    """Ranks of the true entity for every triple on one side.

    Streams chunks of ``batch_size`` queries through a
    :class:`BatchedScorer`; each chunk's ``(chunk, num_entities)`` score
    matrix is ranked and discarded before the next is computed.  This is
    the serial evaluator's engine, exposed at module level so the
    sharded evaluation workers (:mod:`repro.parallel.sharded_eval`) run
    the *exact* same per-chunk computation on their triple shards.
    """
    scorer = BatchedScorer(model, chunk_size=batch_size)
    anchors, relations, true_indices, lookup = side_queries(triples, filter_index, side)
    ranks: list[np.ndarray] = []
    for start, stop, scores in scorer.iter_all_scores(anchors, relations, side):
        filters = (
            [
                lookup(int(anchor), int(relation))
                for anchor, relation in zip(anchors[start:stop], relations[start:stop])
            ]
            if lookup is not None
            else None
        )
        ranks.append(
            ranks_from_score_matrix(scores, true_indices[start:stop], filters, tie_policy)
        )
    return np.concatenate(ranks)
