"""Quality tier: the paper's comparisons on the USAir-size planted twin,
against the planted-block ceiling.

The twin is the benchmark's USAir twin (perfbench/twins.py, twin seed 1)
before its id relabelling: 332 nodes, 2,126 edges, 8 planted blocks with
80% of the edges inside them. Every model trains run seed 1 at
ct_epochs=100 and is scored with `evaluate_split` on the seed's test edges
against the negatives its run draws, which the reference scorers score
too. "Lift" is a scorer's AUC above chance as a share of the ceiling's:
(auc - 0.5) / (ceiling - 0.5).

Each bound cites the value measured in float64 (the parent of float32
training) in its comment. A bound is never loosened: a drop is a finding.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from linkssl import runner
from linkssl.augment import AugmentationSpec
from linkssl.config import ExperimentConfig
from linkssl.metrics import (common_neighbours_scorer, evaluate_split,
                             planted_block_scorer)
from linkssl.sbm import sample_sbm
from linkssl.seeding import derive_seed
from tests.test_models import perfbench_twins

TWIN_SEED = 1
RUN_SEED = 1
HITS_K = 50


@pytest.fixture(scope="module")
def tier():
    twins = perfbench_twins()
    counts = twins.planted_counts(332, 2126, TWIN_SEED)
    # the sample seed write_twin draws the benchmark's twin with
    graph = sample_sbm(counts, seed=int(np.random.SeedSequence(
        [TWIN_SEED, 1]).generate_state(1)[0]))
    assert (graph.n, graph.num_edges) == (332, 2126)

    def config(model, augmentation="random"):
        return ExperimentConfig(
            dataset="USAir", model=model, ct_epochs=100, seeds=(RUN_SEED,),
            augmentation=AugmentationSpec(kind=augmentation))

    split = runner.seed_split(graph, config("grace"), RUN_SEED)
    eval_seed = derive_seed(RUN_SEED, "evaluate")

    def reference(scorer):
        return evaluate_split(scorer, split, split.test_pos, HITS_K,
                              eval_seed)[2]

    @lru_cache(maxsize=None)
    def auc(model, augmentation="random"):
        result = runner.run_single(graph, config(model, augmentation),
                                   RUN_SEED, k=HITS_K)
        return result.row["auc"]

    ceiling = reference(planted_block_scorer(counts))
    return {"auc": auc, "ceiling": ceiling,
            "cn": reference(common_neighbours_scorer(split.train_graph)),
            "lift": lambda value: (value - 0.5) / (ceiling - 0.5)}


def test_reference_scorers_on_the_twin(tier):
    # float64: ceiling 0.8479, common neighbours 0.6999
    assert tier["ceiling"] >= 0.84
    assert 0.5 < tier["cn"] < tier["ceiling"]


@pytest.mark.parametrize("model,bound", [
    ("grace", 0.75),  # float64: AUC 0.7786, lift 0.800
    ("bgrl", 0.75),  # float64: AUC 0.7757, lift 0.792
])
def test_self_supervised_models_reach_the_ceiling_share(tier, model, bound):
    auc = tier["auc"](model)
    assert tier["lift"](auc) >= bound, (
        f"{model} AUC {auc:.4f}, ceiling {tier['ceiling']:.4f}")


def test_lgrace_tracks_grace(tier):
    # float64: L-GRACE 0.7628, GRACE 0.7786, gap 0.0158
    lgrace, grace = tier["auc"]("lgrace"), tier["auc"]("grace")
    assert lgrace >= grace - 0.03, f"L-GRACE {lgrace:.4f}, GRACE {grace:.4f}"


def test_oracle_sbm_views_beat_random_views(tier):
    # float64: GRACE on sbm_oracle views 0.8366, on random views 0.7786
    oracle, random = tier["auc"]("grace", "sbm_oracle"), tier["auc"]("grace")
    assert oracle >= random, f"sbm_oracle {oracle:.4f}, random {random:.4f}"


def test_supervised_gcn_beats_chance(tier):
    # float64: AUC 0.6264
    auc = tier["auc"]("gcn_supervised")
    assert auc >= 0.5 + 0.1, f"supervised GCN AUC {auc:.4f}"
