"""Fixed workload constants of the repository benchmark.

Everything that shapes the load lives here and is fixed in advance: the
graph size, the training recipes, the rate ladders, the nominal rates,
the p99 limit, the key skew and the delta schedule.  None of it is
derived at run time from the code under test; the benchmark seed only
draws the traffic, the deltas and the query samples (the graph and the
training recipes are fixed, see ``common.GRAPH_SEED``).
``BENCHMARK.json`` repeats the load constants in each workload's
``why`` line.  ``SMOKE`` shrinks every size for the benchmark's own
quick tests (``--smoke``); it is never used for a measurement.
"""

from __future__ import annotations

import dataclasses

#: BLAS/OpenMP threads in the benchmark process and in the daemon; kept
#: at or below ``nproc`` so the generator and the daemon do not
#: oversubscribe the cores they share.
BLAS_THREADS = 1

#: How many times a run repeats its whole set-up; ``setup_s`` is the
#: median (the serve workloads' training and evaluation figures are
#: assembled from the repeats, see ``common.Laps``).  A serve set-up
#: takes 7-10 s, so it runs twice, which keeps a run near a minute.
SETUP_REPEATS = 3
SERVE_SETUP_REPEATS = 2


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Every size knob of the three workloads."""

    # ------------------------------------------------------------- graph
    #: ``synthetic-wn18`` at this scale: 12,000 entities, 13 relations.
    graph_scale: float = 8.0
    #: Train-only entities whose every triple is held out of the base
    #: graph, so deltas introduce them as new entities.
    new_entities: int = 30
    #: Further train triples held out of the base graph (delta adds).
    extra_held_out: int = 1000
    #: Triples each delta adds (from the held-out stream) and deletes
    #: (from the base graph's train split).
    delta_adds: int = 200
    delta_deletes: int = 20
    #: Warm-start knobs forwarded with every delta (``ingest_delta``).
    ingest_epochs: int = 2
    ingest_batch_size: int = 256
    ingest_learning_rate: float = 0.01

    # ------------------------------------------------------------ offline
    #: The paper's quaternion model (Eq. 13/14), compiled sparse kernel.
    offline_total_dim: int = 32
    offline_epochs: int = 10
    offline_batch_size: int = 1024
    offline_learning_rate: float = 0.05
    #: After training, rounds of one cold evaluation, the same seeded
    #: in-process ``LinkPredictor.top_k`` calls (one query per call) and
    #: the same chain of ``ingest_delta`` calls; a round takes about this
    #: many seconds on the 2-core host, and ``--seconds`` buys that many
    #: rounds (at least 2).
    offline_round_s: float = 4.0
    offline_queries: int = 2000
    offline_deltas: int = 3

    # -------------------------------------------------------------- serve
    #: ComplEx served by the daemon, briefly trained during set-up.
    serve_total_dim: int = 32
    serve_epochs: int = 1
    serve_batch_size: int = 1024
    serve_learning_rate: float = 0.1
    #: Daemon knobs (the ``ServingSection`` defaults).
    max_batch: int = 64
    max_wait_ms: float = 2.0
    queue_depth: int = 1024
    #: Pipelined loopback connections (at most ``nproc``).
    connections: int = 2
    #: ``top_k`` sizes; they fall in power-of-two buckets 8/16/32.
    k_choices: tuple[int, ...] = (5, 10, 20)
    #: Shares of ``--seconds`` given to the warm-up (not measured), the
    #: nominal rung and the other ladder rungs together.  Rung request
    #: counts are rate x share x seconds, so rates stay absolute.
    warm_share: float = 0.1
    nominal_share: float = 0.7
    ladder_share: float = 0.2
    #: Floor on requests per rung, so p99 has ten samples beyond it.
    min_rung_requests: int = 1050
    #: A ladder rung that fails while more than this share of the
    #: host's CPU was stolen is run once more; the attempt with less
    #: steal counts.  Both attempts count in ``attempted``/``failed``.
    steal_retry_share: float = 0.02

    # serve-ivf-ingest: uniform keys, IVF index, deltas beside reads.
    #: IVF cells.  The default (2 * sqrt(N) = 219 at 12,000 entities)
    #: takes 8.8 s to build and 1.4 s per delta to maintain, which would
    #: not fit two set-ups and the delta schedule into one run.
    ivf_nlist: int = 32
    #: Read-only ladder rungs (``serve_max_qps``), then the nominal rate.
    #: The rung stays at about half of what the daemon sustains when the
    #: shared host runs slow, so it does not flip between runs.
    ivf_ladder: tuple[float, ...] = (200.0,)
    ivf_nominal: float = 150.0
    #: p99 limit of a ladder rung.
    ivf_p99_limit_ms: float = 250.0
    #: Deltas sent during the nominal phase, one in the middle of each
    #: block of ``min_rung_requests`` reads (p99 is that of the quietest
    #: block).  Each holds the swap lock ~0.6 s (longer on a busy host),
    #: and the reads queued behind it drain only at the spare capacity:
    #: one delta per 7 s block stalls 15-25 % of its reads, enough to set
    #: p99 while p50 stays with the unstalled majority; two per block
    #: reached half.
    ivf_deltas_during: int = 2
    #: Deltas sent with no reads in flight after the nominal phase; one
    #: more goes after the warm-up and one after the ladder, so that
    #: ``ingest_delta_s`` (the fastest delta) samples the whole run.
    ivf_deltas_after: int = 2
    #: ``serve_p50_ms`` is the p50 of the quietest block of this many
    #: nominal reads (blocks of 1 s at 150/s: the host's steal varies
    #: from second to second).
    ivf_p50_block: int = 150
    #: Closed-loop queries answered after the last delta (recall, checks).
    recall_queries: int = 200


FULL = Sizes()

SMOKE = Sizes(
    graph_scale=1.0,
    new_entities=6,
    extra_held_out=120,
    delta_adds=30,
    delta_deletes=4,
    offline_epochs=1,
    offline_queries=200,
    offline_deltas=2,
    serve_epochs=1,
    min_rung_requests=50,
    ivf_nlist=16,
    ivf_p50_block=20,
    ivf_deltas_during=1,
    ivf_deltas_after=1,
    recall_queries=40,
)
