"""Shared pieces of the benchmark: run envelope, statistics, graph, deltas."""

from __future__ import annotations

import contextlib
import functools
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of one run (run dirs, dataset files, daemon logs);
#: removed when the run ends.  Traces and results are kept.
WORK = ROOT / ".perfbench"

#: The dataset: ``synthetic-wn18`` from a fixed generator seed, the way
#: the paper uses the fixed WN18 release.  The benchmark seed draws
#: everything that varies between runs (held-out stream, deltas, keys,
#: query samples); the graph and the training recipes stay put so that
#: the quality metrics only move when the numerics do.
GRAPH_SEED = 0
#: Seed of every model's initialisation and training order.
MODEL_SEED = 0


def envelope() -> dict:
    """Host, commit and numeric-stack facts recorded with every run."""
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    except (TypeError, AttributeError):  # older numpy without mode=
        pass
    threads = {
        name: os.environ.get(name)
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def _commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_jiffies() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat`` (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_jiffies` readings; high values explain noisy timings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def fastest(values) -> float:
    """Best of repeated timings of the same work, as ``timeit`` reports.

    The host is shared: other guests slow it by up to a third for
    seconds at a time, and the first repeat of a process pays its
    warm-up.  Neither can make a repeat faster than the program allows,
    so the fastest repeat is the steadiest estimate of the program's own
    speed, and a slower program still slows every repeat.
    """
    return float(min(values))


def quietest(values, q: float, block: int = 1000) -> float | None:
    """The q-th percentile of the quietest block of *values*, or None.

    The samples (in schedule order) are cut into as many contiguous
    blocks of at least *block* as they allow, and the lowest block
    percentile is returned.  Noise from the shared host only ever adds
    time, and it comes in bursts of seconds: a burst then spoils some
    blocks, not the figure, while a slower program slows every block.
    """
    data = np.asarray(values, dtype=np.float64)
    blocks = len(data) // block
    if not blocks:
        return None
    return float(min(
        np.percentile(part, q, method="higher") for part in np.array_split(data, blocks)
    ))


def p99_or_none(values) -> float | None:
    """p99 where at least ten samples lie beyond it, else None."""
    data = np.asarray(values, dtype=np.float64)
    return float(np.percentile(data, 99.0, method="higher")) if len(data) >= 1000 else None


class Laps:
    """Clock stamps at the loop boundaries of work repeated identically.

    Each :meth:`round` brackets one repeat (a training epoch, a cold
    evaluation, ...); while it is open, every item the patched generator
    yields stamps the clock, so a round splits into laps of one batch or
    chunk each.  :meth:`assembled` adds up, lap by lap, the fastest time
    each lap took over the rounds.  Noise from other guests comes in
    bursts that slow some laps of a round, not the same lap of every
    round, while a slower program slows every round; so, like
    :func:`fastest` but at the grain of one batch, the sum is the
    steadiest estimate of one round of the program's own work.  A stamp
    is one ``perf_counter`` call per item; nothing else is timed.
    """

    def __init__(self) -> None:
        self.rounds: list[list[float]] = []
        self._stamps: list[float] | None = None
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, owner, attribute: str) -> None:
        """Stamp at every item of the generator function ``owner.attribute``
        (a class or a module, patched in place until :meth:`unpatch`)."""
        original = getattr(owner, attribute)
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        laps = self

        @functools.wraps(original)
        def stamping(*args, **kwargs):
            for item in original(*args, **kwargs):
                laps.stamp()
                yield item

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, stamping)

    def unpatch(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def stamp(self) -> None:
        if self._stamps is not None:
            self._stamps.append(time.perf_counter())

    @contextlib.contextmanager
    def round(self):
        self._stamps = [time.perf_counter()]
        try:
            yield
        finally:
            self._stamps.append(time.perf_counter())
            self.rounds.append(list(np.diff(self._stamps)))
            self._stamps = None

    def totals(self) -> list[float]:
        return [float(sum(laps)) for laps in self.rounds]

    def assembled(self) -> float:
        """Sum over laps of each lap's fastest round (rounds whose lap
        counts differ cannot be lined up: then the fastest round)."""
        if len({len(laps) for laps in self.rounds}) != 1:
            return fastest(self.totals())
        return float(np.min(np.array(self.rounds), axis=0).sum())


def log(message: str) -> None:
    """Progress line on stderr (stdout ends with the result line)."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------- graph
@dataclass
class Graph:
    """The base graph every workload trains on, plus its held-out stream.

    ``base_names`` are the train/valid/test name triples with the
    held-out triples removed; ``stream`` holds those triples, so deltas
    built from it introduce entities the base graph has never seen.
    The split itself is fixed; the benchmark seed orders ``stream`` and
    ``deletable`` (the base train triples deltas may delete).
    """

    base_names: tuple[list, list, list]
    stream: list
    deletable: list


def build_graph(sizes, seed: int) -> Graph:
    """Generate the fixed graph, split off the held-out stream, and order
    the stream and the deletable triples by *seed*."""
    from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg

    full = generate_synthetic_kg(SyntheticKGConfig(seed=GRAPH_SEED, scale=sizes.graph_scale))
    rng = np.random.default_rng(GRAPH_SEED)
    train = full.train.array
    evaluated = np.unique(np.concatenate([full.valid.array[:, :2], full.test.array[:, :2]]))
    candidates = np.setdiff1d(np.unique(train[:, :2]), evaluated)
    new = rng.choice(candidates, size=min(sizes.new_entities, len(candidates) - 1), replace=False)
    incident = np.isin(train[:, 0], new) | np.isin(train[:, 1], new)
    others = np.flatnonzero(~incident)
    extra = rng.choice(others, size=sizes.extra_held_out, replace=False)
    held = incident.copy()
    held[extra] = True
    ents, rels = full.entities, full.relations

    def names(rows):
        return [(ents.name(h), ents.name(t), rels.name(r)) for h, t, r in rows]

    base_train = names(train[~held])
    stream = names(train[held])
    # Only the order in which the stream arrives, and which base triples
    # the deltas delete, depend on the benchmark seed.
    draw = np.random.default_rng([seed, 1])
    return Graph(
        base_names=(base_train, names(full.valid.array), names(full.test.array)),
        stream=[stream[i] for i in draw.permutation(len(stream))],
        deletable=[base_train[i] for i in draw.permutation(len(base_train))],
    )


def fresh_copy(dataset):
    """The same splits with no filter index built yet, so an evaluation
    pays its build the way every ``run_pipeline``/``evaluate_run`` does."""
    from repro.kg.graph import KGDataset

    return KGDataset(
        entities=dataset.entities,
        relations=dataset.relations,
        train=dataset.train,
        valid=dataset.valid,
        test=dataset.test,
        name=dataset.name,
    )


def make_deltas(graph: Graph, sizes, count: int) -> list[dict]:
    """``count`` delta payloads: each adds the next ``delta_adds`` held-out
    triples and deletes the next ``delta_deletes`` base train triples."""
    need = count * sizes.delta_adds
    if need > len(graph.stream):
        raise ValueError(f"held-out stream has {len(graph.stream)} triples, {need} needed")
    deltas = []
    for i in range(count):
        adds = graph.stream[i * sizes.delta_adds : (i + 1) * sizes.delta_adds]
        deletes = graph.deletable[i * sizes.delta_deletes : (i + 1) * sizes.delta_deletes]
        deltas.append(
            {
                "add_triples": [list(row) for row in adds],
                "delete_triples": [list(row) for row in deletes],
            }
        )
    return deltas


def ingest_knobs(sizes) -> dict:
    """Warm-start knobs sent with every delta (explicit, not defaults)."""
    return {
        "epochs": sizes.ingest_epochs,
        "batch_size": sizes.ingest_batch_size,
        "learning_rate": sizes.ingest_learning_rate,
        "seed": 0,
    }


def reference_ids(predictor, queries) -> list[list[int]]:
    """Top-k ids of ``(side, anchor, relation, k)`` filtered queries,
    answered in one batched ``top_k`` call per ``(side, k)``."""
    groups: dict[tuple[str, int], list[int]] = {}
    for position, (side, _anchor, _relation, k) in enumerate(queries):
        groups.setdefault((side, k), []).append(position)
    out: list[list[int]] = [[] for _ in queries]
    for (side, k), positions in groups.items():
        result = predictor.top_k(
            [queries[p][1] for p in positions],
            [queries[p][2] for p in positions],
            side=side,
            k=k,
            filtered=True,
        )
        for row, position in enumerate(positions):
            out[position] = [int(i) for i in result.ids[row]]
    return out


def deep_size_mb(obj) -> float:
    """Retained size of *obj* in MB: a walk over its attributes, dicts,
    sequences and numpy buffers (each object counted once).  Generic on
    purpose, so it keeps measuring when a structure's layout changes."""
    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            base = item
            while isinstance(base.base, np.ndarray):
                base = base.base
            if base is not item:
                stack.append(base)
                continue
            total += sys.getsizeof(item) if item.flags.owndata else item.nbytes
            continue
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.append(vars(item))
    return total / 1e6
