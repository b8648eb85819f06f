"""Serving scores through the model's own Eq. 8 operator, bit for bit.

``LinkPredictor`` adds chunking, caching, masking and selection on top
of the model but no scoring code of its own: every served score must be
*exactly* the value the model's ``score_all_tails`` / ``score_all_heads``
/ ``score_candidates`` / ``score_triples`` returns for the same call —
the same numbers the evaluator ranks.  ``assert_array_equal``, not
``allclose``: a second scoring implementation that merely re-associates
the float sums shows up here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import (
    make_complex,
    make_cp,
    make_cph,
    make_distmult,
    make_learned_weight_model,
    make_quaternion,
)
from repro.serving import LinkPredictor

NUM_ENTITIES, NUM_RELATIONS, BUDGET, QUERIES = 60, 7, 16, 11

MAKERS = {
    "distmult": make_distmult,
    "complex": make_complex,
    "cp": make_cp,
    "cph": make_cph,
    "quaternion": make_quaternion,
    "learned": make_learned_weight_model,
}


@pytest.fixture(scope="module", params=list(MAKERS))
def model(request):
    return MAKERS[request.param](
        NUM_ENTITIES, NUM_RELATIONS, BUDGET, np.random.default_rng(5)
    )


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(6)
    return (
        rng.integers(0, NUM_ENTITIES, QUERIES),
        rng.integers(0, NUM_RELATIONS, QUERIES),
        rng.integers(0, NUM_ENTITIES, QUERIES),
    )


def _assert_served(top, reference, candidate_ids):
    """*top* ranks every candidate by *reference*, scores copied exactly.

    ``candidate_ids`` is ascending, so a stable descending sort of the
    reference columns is the documented lower-id tie rule.
    """
    order = np.argsort(-reference, axis=1, kind="stable")
    np.testing.assert_array_equal(top.ids, candidate_ids[order])
    np.testing.assert_array_equal(
        top.scores, np.take_along_axis(reference, order, axis=1)
    )


@pytest.mark.parametrize("side", ["tail", "head"])
def test_full_sweep_equals_model(model, queries, side):
    anchors, relations, _ = queries
    top = LinkPredictor(model, cache_size=0).top_k(
        anchors, relations, side=side, k=NUM_ENTITIES
    )
    sweep = model.score_all_tails if side == "tail" else model.score_all_heads
    _assert_served(top, sweep(anchors, relations), np.arange(NUM_ENTITIES))


@pytest.mark.parametrize("side", ["tail", "head"])
def test_candidates_equal_model(model, queries, side):
    anchors, relations, _ = queries
    candidates = np.sort(
        np.random.default_rng(8).choice(NUM_ENTITIES, 23, replace=False)
    )
    top = LinkPredictor(model, cache_size=0).top_k(
        anchors, relations, side=side, k=len(candidates), candidates=candidates
    )
    reference = model.score_candidates(anchors, relations, candidates, side)
    _assert_served(top, reference, candidates)


def test_relations_equal_model(model, queries):
    heads, _, tails = queries
    top = LinkPredictor(model, cache_size=0).top_k(
        heads, tails, side="relation", k=NUM_RELATIONS
    )
    reference = model.score_triples(
        np.repeat(heads, NUM_RELATIONS),
        np.repeat(tails, NUM_RELATIONS),
        np.tile(np.arange(NUM_RELATIONS), len(heads)),
    ).reshape(len(heads), NUM_RELATIONS)
    _assert_served(top, reference, np.arange(NUM_RELATIONS))
