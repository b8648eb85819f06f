"""The ``offline`` workload: one process, one closed-loop caller.

Set-up (repeated): build the base graph and the paper's quaternion
model.  Measured: train it for a fixed number of epochs (one
``Trainer.train`` call per epoch, sharing the optimizer).  Then rounds,
each of one more training epoch (of a copy of the trained model), a
filtered test evaluation on a copy of the dataset whose filter index has
not been built yet (every ``run_pipeline``/``evaluate_run`` pays that
build once), a seeded sample of test queries answered one at a time
through ``LinkPredictor.top_k``, and a chain of held-out deltas folded
in with ``ingest_delta``.  The answers and deltas are the small end of a
batch job and exist so that every end-to-end metric is measured on this
workload too.
"""

from __future__ import annotations

import copy
import time
from pathlib import Path

import numpy as np

from perfbench import settings
from perfbench.common import (
    MODEL_SEED,
    Laps,
    build_graph,
    deep_size_mb,
    fastest,
    fresh_copy,
    ingest_knobs,
    log,
    make_deltas,
    median,
    p99_or_none,
    reference_ids,
    self_peak_rss_mb,
)


def _receipt(outcome) -> dict:
    """An ingest receipt without its timings, to compare repeats."""
    receipt = {k: v for k, v in outcome.to_dict().items() if k != "seconds"}
    for part in ("warm", "index"):
        if part in receipt:
            receipt[part] = {k: v for k, v in receipt[part].items() if k != "seconds"}
    return receipt


def run(seed: int, seconds: float, trace: bool, sizes, work: Path, trace_dir: Path) -> dict:
    from repro.eval.evaluator import LinkPredictionEvaluator
    from repro.ingest import GraphDelta
    from repro.kg.graph import KGDataset
    from repro.nn.optimizers import make_optimizer
    from repro.pipeline.config import ModelSection, RunConfig
    from repro.pipeline.runner import build_model
    from repro.serving import LinkPredictor
    from repro.serving.scorer import BatchedScorer
    from repro.training.trainer import Trainer, TrainingConfig
    import repro.ingest  # looked up at call time: a traced run wraps ingest_delta
    import repro.training.trainer

    from perfbench.tracing import Recorder, span_layers

    recorder = Recorder()  # records nothing unless installed
    if trace:
        recorder.install()
    config = RunConfig(
        model=ModelSection(name="quaternion", total_dim=sizes.offline_total_dim),
        seed=MODEL_SEED,
    )
    setups = []
    for repeat in range(settings.SETUP_REPEATS):
        started = time.perf_counter()
        graph = build_graph(sizes, seed)
        dataset = KGDataset.from_labeled_triples(*graph.base_names, name="perfbench-base")
        model = build_model(config, dataset)
        setups.append(time.perf_counter() - started)
        log(f"offline: set-up {repeat + 1}/{settings.SETUP_REPEATS} {setups[-1]:.2f}s")
    train_mark = recorder.mark()
    # Training batches and evaluation chunks stamp the clock (see Laps).
    train_laps, eval_laps = Laps(), Laps()
    train_laps.patch(repro.training.trainer, "iterate_batches")
    eval_laps.patch(BatchedScorer, "iter_all_scores")

    # ------------------------------------------------------------- training
    def epoch(trained, optimizer, epoch_seed: int) -> float:
        """One ``Trainer.train`` epoch of *trained*; its loss."""
        trainer = Trainer(
            dataset,
            TrainingConfig(
                epochs=1,
                batch_size=sizes.offline_batch_size,
                learning_rate=sizes.offline_learning_rate,
                validate_every=10**9,
                patience=10**9,
                seed=epoch_seed,
            ),
        )
        with train_laps.round():
            result = trainer.train(trained, optimizer)
        return result.history.records[-1].loss

    optimizer = make_optimizer("adam", sizes.offline_learning_rate)
    losses = [epoch(model, optimizer, MODEL_SEED + i) for i in range(sizes.offline_epochs)]
    log(f"offline: {sizes.offline_epochs} epochs trained")

    # ------------------------------------------- evaluation, answers, ingest
    # Each round runs one more training epoch (of a copy of the trained
    # model), one cold evaluation, the same seeded queries (from an empty
    # score cache) and the same chain of deltas (on a copy of the trained
    # model and the base dataset), so every round does the same work.
    # Interleaving them spreads each figure's repeats over the run: the
    # host's speed changes every few seconds (see Laps).
    rng = np.random.default_rng([seed, 3])
    test = dataset.test.array
    rows = rng.integers(0, len(test), sizes.offline_queries)
    sides = rng.integers(0, 2, sizes.offline_queries)
    ks = rng.choice(np.asarray(sizes.k_choices), sizes.offline_queries)
    queries = [
        ("head" if side_bit else "tail", int(test[row][1] if side_bit else test[row][0]),
         int(test[row][2]), int(k))
        for row, side_bit, k in zip(rows, sides, ks)
    ]
    deltas = [GraphDelta.from_dict(d) for d in make_deltas(graph, sizes, sizes.offline_deltas)]
    predictor = LinkPredictor(model, dataset)
    cold_results, rounds, chains, failed = [], [], [], 0
    ranges: dict[str, list[tuple[int, int]]] = {"eval": [], "serve": [], "ingest": []}
    for round_index in range(max(2, int(seconds // sizes.offline_round_s))):
        losses.append(epoch(copy.deepcopy(model),
                            make_optimizer("adam", sizes.offline_learning_rate),
                            MODEL_SEED + sizes.offline_epochs + round_index))
        mark = recorder.mark()
        cold = fresh_copy(dataset)
        with eval_laps.round():
            cold_results.append(LinkPredictionEvaluator(cold).evaluate(model, split="test"))
        ranges["eval"].append((mark, recorder.mark()))

        mark = recorder.mark()
        predictor.clear_cache()
        answers, latency = [], []
        for query in queries:
            side, anchor, relation, k = query
            started = time.perf_counter()
            try:
                answer = predictor.top_k([anchor], [relation], side=side, k=k, filtered=True)
            except Exception:  # noqa: BLE001 - counted as failed, the job goes on
                failed += 1
                latency.append(float("inf"))
                answers.append(None)
                continue
            latency.append(1000.0 * (time.perf_counter() - started))
            answers.append([int(i) for i in answer.ids[0]])
        rounds.append((answers, latency))
        ranges["serve"].append((mark, recorder.mark()))

        mark = recorder.mark()
        replica, current, chain = copy.deepcopy(model), dataset, []
        for delta in deltas:
            started = time.perf_counter()
            outcome = repro.ingest.ingest_delta(replica, current, delta, **ingest_knobs(sizes))
            chain.append((time.perf_counter() - started, outcome))
            current = outcome.dataset
        chains.append(chain)
        ranges["ingest"].append((mark, recorder.mark()))
    eval_laps.unpatch()
    train_laps.unpatch()
    epoch_s, eval_s = train_laps.totals(), eval_laps.totals()
    log(f"offline: {len(epoch_s)} epochs, fastest {fastest(epoch_s):.2f}s, "
        f"assembled {train_laps.assembled():.2f}s")
    cache = predictor.cache_stats
    log(f"offline: {len(eval_s)} rounds, cold evaluation fastest {fastest(eval_s):.2f}s, "
        f"assembled {eval_laps.assembled():.2f}s")

    # Not timed: the same evaluation with the filter index prebuilt, and
    # every answer against the uncached exact reference.
    prebuilt = LinkPredictionEvaluator(dataset).evaluate(model, split="test").overall
    checks = {
        "training loss finite": bool(np.all(np.isfinite(losses))),
        "cold evaluation == evaluation with prebuilt filter index": all(
            r.overall == prebuilt for r in cold_results
        ),
    }
    filter_mb = deep_size_mb(dataset.filter_index) if trace else 0.0
    # Each query's fastest round (see fastest()).
    best_ms = np.min([latency for _answers, latency in rounds], axis=0)
    answers = rounds[0][0]
    truths = reference_ids(LinkPredictor(model, dataset, cache_size=0), queries)
    overlaps, mismatches = [], 0
    for ids, truth in zip(answers, truths):
        mismatches += ids != truth
        overlaps.append(len(set(ids or ()) & set(truth)) / len(truth))
    checks["answers == LinkPredictor(cache_size=0)"] = mismatches == 0
    checks["answers identical in every round"] = all(r[0] == answers for r in rounds)
    recorder.uninstall()
    peak_rss = self_peak_rss_mb()
    outcomes = [outcome for _s, outcome in chains[0]]
    delta_s = np.array([[s for s, _outcome in chain] for chain in chains])
    expected_train = len(dataset.train) + sum(
        len(d.add_triples) - len(d.delete_triples) for d in deltas
    )
    checks["deltas applied, train split grew as sent"] = all(
        o.applied for o in outcomes
    ) and len(current.train) == expected_train
    checks["delta receipts identical in every round"] = all(
        [_receipt(o) for _s, o in chain] == [_receipt(o) for o in outcomes] for chain in chains
    )
    checks["every query answered"] = failed == 0

    attempted = len(epoch_s) + len(eval_s) + sum(len(r[1]) for r in rounds) + delta_s.size
    e2e = {
        "setup_s": median(setups),
        "train_triples_per_s": len(dataset.train) / train_laps.assembled(),
        "eval_queries_per_s": 2 * len(dataset.test) / eval_laps.assembled(),
        "eval_mrr": cold_results[0].overall.mrr,
        "serve_p50_ms": float(np.percentile(best_ms, 50, method="higher")),
        "serve_p99_ms": p99_or_none(best_ms),
        "serve_max_qps": 1000.0 * len(best_ms) / float(np.sum(best_ms)),
        "recall_at_10": float(np.mean(overlaps)) if overlaps else 0.0,
        # Mean over the chain of each delta's fastest round.
        "ingest_delta_s": float(np.mean(np.min(delta_s, axis=0))),
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss,
    }
    layers = {
        "kg.filter_retained_mb": filter_mb,
        "cache.hit_share": cache.hit_rate,
        "cache.lookups": float(cache.hits + cache.misses),
        "ingest.fine_tune_s": median([o.warm.seconds for o in outcomes]),
    }
    if trace:
        layers.update(span_layers(
            recorder.summary(train_mark, ranges["eval"][0][0]),
            recorder.summary_over(ranges["eval"]),
            recorder.summary_over(ranges["serve"]),
            recorder.summary_over(ranges["ingest"]),
            {},
        ))
        recorder.write(trace_dir / f"offline-seed{seed}.jsonl")
    return {
        "e2e": e2e,
        "layers": layers,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "details": {
            "setups_s": setups,
            "epoch_s": epoch_s,
            "eval_s": eval_s,
            "deltas_s": delta_s.tolist(),
            "receipts": [o.to_dict() for o in outcomes],
        },
    }
