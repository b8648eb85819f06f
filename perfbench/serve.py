"""The serving workload, ``serve-ivf-ingest``.

Set-up (repeated, see :data:`perfbench.settings.SERVE_SETUP_REPEATS`):
build the base graph, write it as a dataset directory, train ComplEx
briefly, evaluate it cold, persist the run directory and its IVF index,
and start the daemon from it until it has answered a first query.

Measured phase: open-loop Poisson reads with uniform keys at fixed
absolute rates over pipelined loopback connections: a warm-up, a
read-only ladder, then the nominal rate while deltas arrive on a fixed
schedule; more deltas with no reads in flight are spread over the phase,
and recall is measured at the end.  Between those steps (no reads in
flight) the set-up's training and cold evaluation are repeated, so that
their figures are sampled across the run.  Every delta receipt and the
final answers are compared with an in-process replica: an exact
``LinkPredictor(cache_size=0)`` over the same run directory, taken
through the same deltas.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
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
    quietest,
    reference_ids,
)
from perfbench.loadgen import Client, Daemon, Phase, poisson_offsets

WORKLOAD = "serve-ivf-ingest"
SIDES = ("tail", "head")


# ------------------------------------------------------------------ set-up
def _setup_once(seed: int, sizes, work: Path, trace: bool, spans_path,
                train_laps: Laps, eval_laps: Laps):
    from repro.eval.evaluator import LinkPredictionEvaluator
    from repro.kg.graph import KGDataset
    from repro.kg.io import write_labeled_triples
    from repro.pipeline.config import (
        DatasetSection,
        IndexSection,
        ModelSection,
        RunConfig,
        TrainingSection,
    )
    from repro.pipeline.runner import RunResult, build_model, build_run_index, write_run_dir
    from repro.training.trainer import Trainer

    started = time.perf_counter()
    graph = build_graph(sizes, seed)
    data_dir = work / "data"
    for name, triples in zip(("train", "valid", "test"), graph.base_names):
        write_labeled_triples(data_dir / f"{name}.txt", triples)
    config = RunConfig(
        dataset=DatasetSection("directory", {"path": str(data_dir)}),
        model=ModelSection(name="complex", total_dim=sizes.serve_total_dim),
        training=TrainingSection(
            epochs=sizes.serve_epochs,
            batch_size=sizes.serve_batch_size,
            learning_rate=sizes.serve_learning_rate,
        ),
        index=IndexSection(kind="ivf", nlist=sizes.ivf_nlist),
        seed=MODEL_SEED,
        label=WORKLOAD,
    )
    # Same ids as the daemon's load of the directory (first occurrence
    # over train, valid, test), without parsing the files again.
    dataset = KGDataset.from_labeled_triples(*graph.base_names, name=WORKLOAD)
    model = build_model(config, dataset)
    with train_laps.round():
        training = Trainer(dataset, config.training.training_config(seed=config.seed)).train(model)
    with eval_laps.round():
        evaluation = LinkPredictionEvaluator(dataset).evaluate(model, split="test")
    run_dir = work / "run"
    write_run_dir(RunResult(config, dataset, model, training, {"test": evaluation.overall}), run_dir)
    mark = time.perf_counter()
    build_run_index(run_dir)
    index_s = time.perf_counter() - mark
    daemon = Daemon(
        run_dir,
        sizes=sizes,
        trace=trace,
        spans_path=spans_path,
        log_path=work / "daemon.log",
    ).start()
    # Ready means answering: the first filtered query pays the daemon's
    # lazy set-up (its filter index), which belongs to set-up, not traffic.
    first = daemon.request(_top_k("tail", 0, 0, 10))
    if not first.get("ok"):
        daemon.kill()
        raise RuntimeError(f"daemon failed its first query: {first}")
    return {
        "setup_s": time.perf_counter() - started,
        "train_s": train_laps.totals()[-1],
        "eval_s": eval_laps.totals()[-1],
        "eval_mrr": evaluation.overall.mrr,
        "index_build_s": index_s,
        "filter_retained_mb": deep_size_mb(dataset.filter_index) if trace else 0.0,
        "graph": graph,
        "config": config,
        "model": model,
        "dataset": dataset,
        "run_dir": run_dir,
        "daemon": daemon,
    }


# ---------------------------------------------------------------- requests
def _top_k(side: str, anchor: int, relation: int, k: int) -> dict:
    slot = "head" if side == "tail" else "tail"
    return {"op": "top_k", "side": side, slot: int(anchor), "relation": int(relation),
            "k": int(k), "filtered": True}


class Keys:
    """Seeded uniform ``(anchor, relation, side)`` draws."""

    def __init__(self, num_entities: int, num_relations: int, rng):
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.rng = rng

    def draw(self, count: int, k_choices) -> list[tuple[str, int, int, int]]:
        rng = self.rng
        anchors = rng.integers(0, self.num_entities, count)
        relations = rng.integers(0, self.num_relations, count)
        sides = rng.integers(0, 2, count)
        ks = rng.choice(np.asarray(k_choices), count)
        return [
            (SIDES[int(s)], int(a), int(r), int(k))
            for a, r, s, k in zip(anchors, relations, sides, ks)
        ]


def _read_phase(name, keys: Keys, rate, count, sizes, rng) -> Phase:
    """*count* Poisson reads at *rate*."""
    phase = Phase(name, rate)
    offsets = poisson_offsets(rate, count, rng)
    for query, offset in zip(keys.draw(count, sizes.k_choices), offsets):
        phase.add("read", float(offset), _top_k(*query)).query = query
    return phase


def _rung_stats(phase: Phase, limit_ms: float, p50_block: int = 0) -> dict:
    """Counts, p50 and p99 over every read of the rung.

    p50 is that of the quietest run of *p50_block* reads (all reads when
    0) and p99 that of the quietest 1,000 (see ``common.quietest``).
    """
    reads = [r for r in phase.records if r.kind == "read"]
    latency = np.array([r.latency_ms for r in reads])
    done = [r.done for r in reads if r.done is not None]
    ok = int(sum(r.ok for r in reads))
    late = np.array([r.late_ms for r in reads])
    p99 = quietest(latency, 99.0)
    quarter = max(1, len(reads) // 4)
    growing = bool(np.mean(latency[-quarter:]) > 2.0 * np.mean(latency[:quarter]) + 5.0)
    span = (max(done) - phase.started) if done else float("inf")
    stats = {
        "rate": phase.rate,
        "sent": len(reads),
        "succeeded": ok,
        "failed": len(reads) - ok,
        "achieved_per_s": ok / span if span > 0 else 0.0,
        "p50_ms": quietest(latency, 50.0, p50_block or max(1, len(latency))),
        "p99_ms": p99,
        "late_p50_ms": float(np.percentile(late, 50)),
        "late_p99_ms": float(np.percentile(late, 99)),
        "late_max_ms": float(late.max()),
        "backlog_growing": growing,
        "steal_share": phase.steal_share(),
        "discarded_sent": 0,
        "discarded_failed": 0,
    }
    stats["passes"] = bool(
        p99 is not None and p99 <= limit_ms and stats["failed"] == 0 and not growing
    )
    return stats


async def _run_rung(client: Client, phase: Phase, sizes, limit_ms: float) -> dict:
    """Run a rung; once more if it failed while the host stole CPU.

    The attempt that passed, or else stole less, is kept; the other one
    still counts in the request totals.
    """
    await client.run(phase)
    first = _rung_stats(phase, limit_ms)
    if first["passes"] or first["steal_share"] <= sizes.steal_retry_share:
        return first
    second = _rung_stats(await client.run(phase.again()), limit_ms)
    better = second["passes"] or second["steal_share"] < first["steal_share"]
    kept, dropped = (second, first) if better else (first, second)
    kept["discarded_sent"], kept["discarded_failed"] = dropped["sent"], dropped["failed"]
    return kept


def _max_qps(rungs: list[dict]) -> float:
    """Achieved rate of the highest ladder rung that passes (0 if none)."""
    passing = [rung for rung in rungs if rung["passes"]]
    return max(passing, key=lambda rung: rung["rate"])["achieved_per_s"] if passing else 0.0


# ----------------------------------------------------------- measured phase
async def _solo_delta(client, delta, sizes, out) -> None:
    """Send one delta with no reads in flight."""
    mark = time.perf_counter()
    reply = await client.call({"op": "apply_delta", "delta": delta, "ingest": ingest_knobs(sizes)})
    out["delta_s"].append(time.perf_counter() - mark)
    out["receipts"].append(reply)


async def _traffic(port, sizes, seconds, rng, keys, deltas, between) -> dict:
    """Warm-up, ladder, nominal phase and recall queries, with *deltas*
    sent in list order: one after the warm-up, one after the ladder,
    ``ivf_deltas_during`` in the nominal phase (one in the middle of each
    block of ``min_rung_requests`` reads) and the rest after it.  Between
    those steps *between* runs (no reads are in flight then)."""
    out: dict = {"rungs": [], "delta_s": [], "receipts": []}
    during = deltas[2: 2 + sizes.ivf_deltas_during]
    async with Client(port, sizes.connections) as client:
        warm = _read_phase("warm", keys, sizes.ivf_nominal,
                           int(sizes.ivf_nominal * sizes.warm_share * seconds), sizes, rng)
        await client.run(warm)
        out["warm_sent"] = len(warm.records)
        out["warm_failed"] = sum(not r.ok for r in warm.records)
        between()
        await _solo_delta(client, deltas[0], sizes, out)
        for rate in sizes.ivf_ladder:
            count = max(sizes.min_rung_requests, int(rate * sizes.ladder_share * seconds))
            rung = _read_phase(f"rung-{rate:g}", keys, rate, count, sizes, rng)
            out["rungs"].append(await _run_rung(client, rung, sizes, sizes.ivf_p99_limit_ms))
        between()
        await _solo_delta(client, deltas[1], sizes, out)
        rate = sizes.ivf_nominal
        count = max(int(rate * sizes.nominal_share * seconds),
                    sizes.min_rung_requests * len(during))
        nominal = _read_phase("nominal+deltas", keys, rate, count, sizes, rng)
        span = count / rate
        for i, delta in enumerate(during):
            nominal.add("delta", span * (i + 0.5) / len(during),
                        {"op": "apply_delta", "delta": delta, "ingest": ingest_knobs(sizes)},
                        keep=True)
        await client.run(nominal)
        # p50 from the quietest block of reads; p99 keeps the stalls.
        out["nominal_stats"] = _rung_stats(nominal, sizes.ivf_p99_limit_ms,
                                           p50_block=sizes.ivf_p50_block)
        out["nominal"] = nominal
        for write in (r for r in nominal.records if r.kind == "delta"):
            out["delta_s"].append((write.done - write.sent) if write.done else float("inf"))
            out["receipts"].append(write.response)
        between()
        for delta in deltas[2 + len(during):]:
            await _solo_delta(client, delta, sizes, out)
        metrics = await client.call({"op": "metrics"})
        recall = Phase("recall")
        for query in keys.draw(sizes.recall_queries, (10,)):
            recall.add("read", 0.0, _top_k(*query), keep=True).query = query
        out["post"] = await client.run(recall)
        out["metrics"] = metrics
        out["stats"] = await client.call({"op": "stats"})
    return out


# ------------------------------------------------------------- correctness
def _apply_deltas(predictor, deltas, sizes) -> list[dict]:
    """Take the replica through *deltas* with the daemon's ingest knobs."""
    from repro.ingest import GraphDelta, ingest_delta

    receipts = []
    for delta in deltas:
        outcome = ingest_delta(predictor.model, predictor.dataset, GraphDelta.from_dict(delta),
                               **ingest_knobs(sizes))
        predictor.dataset = outcome.dataset
        receipts.append(outcome.to_dict())
    return receipts


def _recall(records, expected) -> float:
    """Mean recall@k of served answers against the reference's."""
    recalls = []
    for record, truth in zip(records, expected):
        served = record.response.get("ids") if record.ok else None
        hits = len(set(i for i in served or () if i >= 0) & set(truth))
        recalls.append(hits / len(truth))
    return float(np.mean(recalls)) if recalls else 0.0


def _same_receipts(served: list, local: list) -> bool:
    keys = ("num_added", "num_deleted", "new_entities", "touched_entities")
    for reply, mine in zip(served, local):
        theirs = (reply or {}).get("ingest", {})
        if any(theirs.get(key) != mine.get(key) for key in keys):
            return False
        if theirs.get("warm", {}).get("final_loss") != mine.get("warm", {}).get("final_loss"):
            return False
    return len(served) == len(local)


# --------------------------------------------------------------------- run
def run(seed: int, seconds: float, trace: bool, sizes, work: Path, trace_dir: Path) -> dict:
    import repro.training.trainer
    from repro.eval.evaluator import LinkPredictionEvaluator
    from repro.pipeline.runner import build_model, serve_run
    from repro.serving.scorer import BatchedScorer
    from repro.training.trainer import Trainer

    from perfbench.tracing import Recorder, span_layers

    recorder = Recorder()  # records nothing unless installed
    if trace:
        recorder.install()
    # Training batches and evaluation chunks stamp the clock (see Laps).
    train_laps, eval_laps = Laps(), Laps()
    train_laps.patch(repro.training.trainer, "iterate_batches")
    eval_laps.patch(BatchedScorer, "iter_all_scores")
    spans_path = trace_dir / f"{WORKLOAD}-seed{seed}-daemon.jsonl" if trace else None
    setups, deployment = [], None
    for repeat in range(settings.SERVE_SETUP_REPEATS):
        if deployment is not None:
            deployment["daemon"].stop()
        rep_dir = work / f"setup{repeat}"
        if rep_dir.exists():
            shutil.rmtree(rep_dir)
        rep_dir.mkdir(parents=True)
        deployment = _setup_once(seed, sizes, rep_dir, trace, spans_path, train_laps, eval_laps)
        setups.append({k: v for k, v in deployment.items() if isinstance(v, float)})
        log(f"{WORKLOAD}: set-up {repeat + 1}/{settings.SERVE_SETUP_REPEATS} "
            f"{setups[-1]['setup_s']:.2f}s")
    setup_mark = recorder.mark()
    # The traffic phase is not traced; the laps keep stamping.
    eval_laps.unpatch()
    train_laps.unpatch()
    recorder.uninstall()
    train_laps.patch(repro.training.trainer, "iterate_batches")
    eval_laps.patch(BatchedScorer, "iter_all_scores")
    daemon, dataset, graph = deployment["daemon"], deployment["dataset"], deployment["graph"]
    config, model = deployment["config"], deployment["model"]

    def extra_round() -> None:
        """Repeat the set-up's training (of a fresh model) and cold
        evaluation while no reads are in flight, so that those figures'
        repeats span the run (see Laps)."""
        with train_laps.round():
            Trainer(dataset, config.training.training_config(seed=config.seed)).train(
                build_model(config, dataset))
        with eval_laps.round():
            LinkPredictionEvaluator(fresh_copy(dataset)).evaluate(model, split="test")

    rng = np.random.default_rng([seed, 2])
    keys = Keys(dataset.num_entities, dataset.num_relations, rng)
    deltas = make_deltas(graph, sizes, 2 + sizes.ivf_deltas_during + sizes.ivf_deltas_after)
    gc.disable()  # keep the generator's own pauses out of the latencies
    try:
        traffic = asyncio.run(_traffic(daemon.port, sizes, seconds, rng, keys, deltas,
                                       extra_round))
    finally:
        gc.enable()
        report = daemon.stop()
        eval_laps.unpatch()
        train_laps.unpatch()
    log(f"{WORKLOAD}: traffic done; checking answers")

    # The replica: an exact, uncached predictor over the same run directory.
    reference = serve_run(deployment["run_dir"], index=None, cache_size=0)
    checks: dict[str, bool] = {}
    nominal = traffic["nominal"]
    reads = [r for r in nominal.records if r.kind == "read"]
    local_receipts = _apply_deltas(reference, deltas, sizes)
    post = traffic["post"].records
    recall = _recall(post, reference_ids(reference, [r.query for r in post]))
    checks["every post-delta query answered"] = all(r.ok for r in post)
    checks["deltas applied, receipts == replica"] = all(
        (reply or {}).get("ok") for reply in traffic["receipts"]
    ) and _same_receipts(traffic["receipts"], local_receipts)
    stats = traffic["stats"].get("stats", {})
    checks["graph_version == deltas applied"] = stats.get("graph_version") == len(deltas)
    checks["answers carry the final graph_version"] = all(
        r.response.get("graph_version") == len(deltas) for r in post if r.ok
    )

    nominal_stats = traffic["nominal_stats"]
    rungs = [nominal_stats] + traffic["rungs"]
    attempted = traffic["warm_sent"] + sum(r["sent"] + r["discarded_sent"] for r in rungs) + len(
        deltas) + len(post)
    failed = traffic["warm_failed"] + sum(r["failed"] + r["discarded_failed"] for r in rungs) + sum(
        not (reply or {}).get("ok") for reply in traffic["receipts"]
    ) + sum(not r.ok for r in post)
    e2e = {
        "setup_s": median(s["setup_s"] for s in setups),
        # Every round trains and evaluates a fresh model the same way.
        "train_triples_per_s": sizes.serve_epochs * len(dataset.train) / train_laps.assembled(),
        "eval_queries_per_s": 2 * len(dataset.test) / eval_laps.assembled(),
        "eval_mrr": setups[-1]["eval_mrr"],
        "serve_p50_ms": nominal_stats["p50_ms"],
        "serve_p99_ms": nominal_stats["p99_ms"],
        "serve_max_qps": _max_qps(traffic["rungs"]),
        "recall_at_10": recall,
        "ingest_delta_s": fastest(traffic["delta_s"]),
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": report["peak_rss_mb"],
    }

    registry = traffic["metrics"].get("metrics", {}).get("metrics", {})
    counters = registry.get("counters", {})
    histograms = registry.get("histograms", {})
    server = traffic["stats"].get("stats", {})
    waits = np.array([r.waited_ms for r in reads if r.ok and r.waited_ms is not None])
    dispatch = histograms.get("server.dispatch_seconds", {})
    dispatch_ms = 1000.0 * dispatch.get("total", 0.0) / max(1, dispatch.get("count", 0))
    # The daemon's waited_ms runs from enqueue to answer ready (its
    # group's scoring included); the rest of a request's latency is wire.
    outside = np.array([r.latency_ms - r.waited_ms for r in reads
                        if r.ok and r.waited_ms is not None])
    stalled = []
    for write in (r for r in nominal.records if r.kind == "delta" and r.done):
        stalled += [r.waited_ms for r in reads
                    if r.ok and write.sent <= r.scheduled <= write.done]
    hits, misses = counters.get("serving.cache.hits", 0), counters.get("serving.cache.misses", 0)
    receipts = [(reply or {}).get("ingest", {}) for reply in traffic["receipts"]]
    layers = {
        "server.queue_wait_p50_ms": float(np.percentile(waits, 50)) if len(waits) else 0.0,
        "server.queue_wait_p99_ms": p99_or_none(waits) or 0.0,
        "server.dispatch_ms": dispatch_ms,
        "server.wire_ms": float(np.median(outside)) if len(outside) else 0.0,
        "server.batch_size": float(server.get("mean_coalesced", 0.0)),
        "server.dispatch_calls": float(server.get("dispatch_calls", 0)),
        "server.rejected": float(server.get("rejected", 0)),
        "server.deadline_expired": float(server.get("deadline_expired", 0)),
        "cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "cache.lookups": float(hits + misses),
        "index.probed_fraction": float((server.get("index") or {}).get("probed_fraction", 0.0)),
        "index.update_s": median([r.get("index", {}).get("seconds", 0.0) for r in receipts]),
        "index.drift": median([r.get("index", {}).get("drift", 0.0) for r in receipts]),
        "index.rebuilds": float(sum(bool(r.get("index", {}).get("rebuild_triggered"))
                                    for r in receipts)),
        "ingest.fine_tune_s": median([r.get("warm", {}).get("seconds", 0.0) for r in receipts]),
        "ingest.read_stall_ms": float(np.mean(stalled)) if stalled else 0.0,
        "gen.late_p99_ms": nominal_stats["late_p99_ms"],
        "kg.filter_retained_mb": setups[-1]["filter_retained_mb"],
    }
    if trace:
        setup_spans = recorder.summary(0, setup_mark)
        daemon_spans = report.get("spans", {})
        layers.update(span_layers(setup_spans, setup_spans, daemon_spans, daemon_spans,
                                  setup_spans))
        recorder.write(trace_dir / f"{WORKLOAD}-seed{seed}.jsonl")
    return {
        "e2e": e2e,
        "layers": layers,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "details": {
            "rungs": rungs,
            "setups": setups,
            "deltas_s": traffic["delta_s"],
            "receipts": receipts,
            "server": server,
        },
    }

