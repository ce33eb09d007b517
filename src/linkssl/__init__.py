"""Self-supervised link prediction on graphs.

The package trains contrastive node- and link-level encoders (GRACE, BGRL,
and their link-representation variants) over a family of topology-aware edge
augmentations, then scores held-out links with Hits@k, average precision,
and ROC-AUC under a seeded, reproducible benchmark harness. Everything runs
on a small reverse-mode autodiff over dense numpy arrays: training in
float32, gradient checks in float64.

The command line entry point is `linkssl` (see `linkssl.cli`).
"""

from .augment import ADAPTIVE_KINDS, ALL_KINDS, SBM_KINDS, AugmentationSpec, make_views
from .autodiff import Tensor, backward, grad_check, track_allocations
from .community import louvain, modularity
from .config import (DEFAULT_EVAL_SEEDS, ExperimentConfig, SearchSpace,
                     load_config, parse_config, save_config, serialize_config)
from .datasets import (DATA_ROOT_ENV, REGISTRY, UNATTRIBUTED_NAMES,
                       convert_mat, load_dataset, write_edge_list)
from .graphs import (EdgeSplit, Graph, normalized_adjacency, random_link_split,
                     sample_negative_pairs)
from .metrics import ScoreSet, average_precision, evaluate_split, hits_at_k, roc_auc
from .models import (Decoder, EncoderConfig, GCNEncoder, LinkMLP, TrainState,
                     bgrl_loss, grace_loss, lgrace_loss, link_representation,
                     select_link_sets, train_decoder, train_encoder,
                     train_supervised_gcn)
from .optim import Parameter, adam_step, ema_update
from .report import build_table, read_result_rows, render_csv, render_text, stats_summary
from .runner import (TUNING_SEED, RunResult, random_search, run_experiment,
                     run_single, validation_objective)
from .sbm import fit_block_counts, sample_sbm
from .seeding import derive_rng, derive_seed
from .significance import bonferroni_dunn_groups, critical_difference, friedman_test

__all__ = [
    "ADAPTIVE_KINDS", "ALL_KINDS", "SBM_KINDS", "AugmentationSpec",
    "make_views", "Tensor", "backward", "grad_check", "track_allocations",
    "louvain", "modularity",
    "DEFAULT_EVAL_SEEDS", "TUNING_SEED", "ExperimentConfig", "SearchSpace",
    "load_config", "parse_config", "save_config", "serialize_config",
    "DATA_ROOT_ENV", "REGISTRY", "UNATTRIBUTED_NAMES", "convert_mat",
    "load_dataset", "write_edge_list", "EdgeSplit", "Graph",
    "normalized_adjacency", "random_link_split",
    "sample_negative_pairs", "ScoreSet", "average_precision",
    "evaluate_split", "hits_at_k", "roc_auc", "Decoder", "EncoderConfig",
    "GCNEncoder", "LinkMLP", "TrainState", "bgrl_loss", "grace_loss",
    "lgrace_loss", "link_representation", "select_link_sets", "train_decoder",
    "train_encoder", "train_supervised_gcn", "Parameter", "adam_step",
    "ema_update", "build_table",
    "read_result_rows", "render_csv", "render_text", "stats_summary",
    "RunResult", "random_search", "run_experiment", "run_single",
    "validation_objective", "fit_block_counts", "sample_sbm",
    "derive_rng", "derive_seed",
    "bonferroni_dunn_groups", "critical_difference", "friedman_test",
]
