"""Seeded experiment execution: one config -> per-seed rows, checkpoints,
and CSV output; plus the 25-trial uniform random hyperparameter search.

Layout under the output directory:
    <dataset>/<model>_<aug>/metrics.csv            all seeds + aggregate
    <dataset>/<model>_<aug>/<seed>/metrics.csv     single row
    <dataset>/<model>_<aug>/<seed>/config.txt      config snapshot
    <dataset>/<model>_<aug>/<seed>/loss.csv        (epoch, loss)
    <dataset>/<model>_<aug>/<seed>/decoder_loss.csv
                                                   (epoch, mean batch loss) of
                                                   the decoder stage
    <dataset>/<model>_<aug>/<seed>/params.npz      parameter dump
    <dataset>/<model>_<aug>/<seed>/run.txt         seed lineage + diagnostics
                                                   (detection, threads)
"""

from __future__ import annotations

import csv
import os
import tempfile
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import process
from .config import serialize_config
from .datasets import load_dataset
from .graphs import random_link_split, split_sizes
from .metrics import evaluate_split
from .models import (predict_scores, train_decoder, train_encoder,
                     train_supervised_gcn)
from .seeding import derive_seed

CSV_HEADER = "dataset,model,augmentation,seed,hits_at_50,ap,auc"
HITS_K = 50


@dataclass
class RunResult:
    seed: int
    row: dict | None  # None when the run trained without evaluating
    detector_edges: int | None
    loss_history: list
    parameters: dict = field(default_factory=dict)
    lineage: list = field(default_factory=list)
    detected_blocks: int | None = None
    # the threads of the process that trained the seed: OpenBLAS's (None
    # where unknown) and nce_denominator's budget
    blas_threads: int | None = None
    nce_threads: int = 1
    # the frozen-encoder decoder stage's (epoch, mean batch loss); empty
    # for gcn_supervised, whose loss_history is its decoder loss
    decoder_loss_history: list = field(default_factory=list)


def format_row(row):
    return (f"{row['dataset']},{row['model']},{row['augmentation']},"
            f"{row['seed']},{row['hits_at_50']!r},{row['ap']!r},"
            f"{row['auc']!r}")


def seed_split(graph, cfg, seed):
    """The train/valid/test split of one run seed: the edges every stage of
    the seed trains and scores on, and the lists `linkssl split` writes."""
    return random_link_split(graph, cfg.split_fractions,
                             seed=derive_seed(seed, "split"))


def _train_stages(graph, cfg, seed):
    """split -> (self-supervised encoder) -> decoder for one seed.
    Every random stage derives its own sub-seed from `seed`; the lineage
    lists them, led by the community detection's when the encoder ran one.
    """
    split = seed_split(graph, cfg, seed)
    sub_seeds = {stage: derive_seed(seed, stage)
                 for stage in ("train", "decoder", "evaluate")}
    if cfg.model == "gcn_supervised":
        state, decoder = train_supervised_gcn(split, cfg, sub_seeds["train"])
    else:
        state = train_encoder(split, cfg.augmentation, cfg.model, cfg,
                              sub_seeds["train"])
        decoder = train_decoder(state, split, cfg, sub_seeds["decoder"])
    lineage = [("split", split.seed), *sub_seeds.items()]
    if state.detection_seed is not None:
        lineage.insert(0, ("detection", state.detection_seed))
    return split, state, decoder, lineage


def _score(split, state, decoder, lineage, positives, k):
    """The trained model's (hits@k, AP, AUC) on `positives` of its split,
    against negatives drawn from the lineage's evaluate seed."""
    scorer = partial(predict_scores, state, decoder, split.train_graph)
    return evaluate_split(scorer, split, positives, k,
                          dict(lineage)["evaluate"])


def _result(seed, row, state, decoder, lineage):
    return RunResult(seed=seed, row=row, detector_edges=state.detector_edges,
                     loss_history=list(state.loss_history),
                     parameters={p.name: p.values.copy()
                                 for p in state.encoder.parameters()
                                 + decoder.parameters()},
                     lineage=lineage, detected_blocks=state.detected_blocks,
                     blas_threads=process.blas_threads(),
                     nce_threads=process.nce_thread_budget(),
                     decoder_loss_history=list(decoder.loss_history))


def run_single(graph, cfg, seed, k=HITS_K):
    """One seed end to end: training stages plus held-out evaluation; with
    k None, training only, and the result carries no metrics row."""
    split, state, decoder, lineage = _train_stages(graph, cfg, seed)
    if k is None:
        return _result(seed, None, state, decoder, lineage)
    hits, ap, auc = _score(split, state, decoder, lineage, split.test_pos, k)
    row = {"dataset": cfg.dataset, "model": cfg.model,
           "augmentation": cfg.augmentation.kind, "seed": seed,
           "hits_at_50": hits, "ap": ap, "auc": auc}
    return _result(seed, row, state, decoder, lineage)


def _write_losses(path, history):
    with open(path, "w") as fh:
        fh.write("epoch,loss\n")
        for epoch, value in history:
            fh.write(f"{epoch},{value!r}\n")


def write_run_dir(out_dir, cfg, result):
    """Persist one seed's artifacts under <dataset>/<label>/<seed>/."""
    seed_dir = os.path.join(out_dir, cfg.dataset, cfg.label(),
                            str(result.seed))
    os.makedirs(seed_dir, exist_ok=True)
    if result.row is not None:
        with open(os.path.join(seed_dir, "metrics.csv"), "w") as fh:
            fh.write(CSV_HEADER + "\n" + format_row(result.row) + "\n")
    with open(os.path.join(seed_dir, "config.txt"), "w") as fh:
        fh.write(serialize_config(cfg))
    _write_losses(os.path.join(seed_dir, "loss.csv"), result.loss_history)
    if result.decoder_loss_history:
        _write_losses(os.path.join(seed_dir, "decoder_loss.csv"),
                      result.decoder_loss_history)
    if result.parameters:
        np.savez(os.path.join(seed_dir, "params.npz"), **result.parameters)
    with open(os.path.join(seed_dir, "run.txt"), "w") as fh:
        for label, sub_seed in result.lineage:
            fh.write(f"lineage {label} {sub_seed}\n")
        if result.detector_edges is not None:
            fh.write(f"detector_input_edges {result.detector_edges}\n")
            fh.write(f"detected_blocks {result.detected_blocks}\n")
        blas = ("unknown" if result.blas_threads is None
                else result.blas_threads)
        fh.write(f"blas_threads {blas}\n")
        fh.write(f"nce_threads {result.nce_threads}\n")


def _aggregate_rows(rows):
    cells = []
    for key in ("hits_at_50", "ap", "auc"):
        vals = np.array([r[key] for r in rows])
        cells.append(f"{vals.mean():.6f}±{vals.std():.6f}")
    first = rows[0]
    return (f"{first['dataset']},{first['model']},{first['augmentation']},"
            f"aggregate,{cells[0]},{cells[1]},{cells[2]}")


def write_metrics_csv(path, rows):
    lines = [CSV_HEADER] + [format_row(r) for r in rows]
    if rows:
        lines.append(_aggregate_rows(rows))
    text = "\n".join(lines) + "\n"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def check_out_dir(out_dir):
    """Make `out_dir` and open a file in it, so that an unusable output
    directory fails before any seed or trial runs, not after."""
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryFile(dir=out_dir):
        pass


def _cell(graph, cfg, seed, k):
    """run_single, looked up when the cell runs, so a forked pool worker
    runs what the parent sees."""
    return run_single(graph, cfg, seed, k=k)


def run_configs(cfgs, out_dir=None, graph=None, workers=1, k=HITS_K):
    """Run every seed of the `cfgs` (one dataset) as (config, seed) cells:
    here in order with one worker, else all on one process pool. Yields
    (cfg, results, failures) per config after its last cell, failures as
    (seed, formatted traceback), and writes its run directories and
    metrics.csv first when `out_dir` is given. k=None trains only."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if k is not None and k < 1:
        raise ValueError(f"hits@k needs k >= 1, got {k}")
    if out_dir is not None:
        check_out_dir(out_dir)
    if graph is None:
        graph = load_dataset(cfgs[0].dataset)
    for cfg in cfgs if k else ():
        try:
            n_test = split_sizes(graph.num_edges, cfg.split_fractions)[2]
        except ValueError:  # too few edges to split: each seed reports it
            continue
        if n_test < k:
            raise ValueError(f"hits@{k} needs k={k} test edges; the split "
                             f"of {graph.num_edges} edges has {n_test}")
    cells = [(cfg, seed) for cfg in cfgs for seed in cfg.seeds]
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(workers, initializer=process.share_cpus,
                                   initargs=(min(workers, len(cells)),))
    try:
        calls = iter([partial(_cell, graph, cfg, seed, k) if pool is None
                      else pool.submit(_cell, graph, cfg, seed, k).result
                      for cfg, seed in cells])
        for cfg in cfgs:
            results, failures = [], []
            for seed, call in zip(cfg.seeds, calls):
                try:
                    result = call()
                except Exception:  # per-cell isolation
                    failures.append((seed, traceback.format_exc()))
                    continue
                results.append(result)
                if out_dir is not None:
                    write_run_dir(out_dir, cfg, result)
            rows = [r.row for r in results if r.row is not None]
            if out_dir is not None and rows:
                write_metrics_csv(os.path.join(
                    out_dir, cfg.dataset, cfg.label(), "metrics.csv"), rows)
            yield cfg, results, failures
    finally:  # a caller that stops early waits for no cell left
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_experiment(cfg, out_dir=None, graph=None, workers=1, k=HITS_K):
    """All seeds of `cfg` through run_configs: (rows, failures), each
    failure (seed, formatted traceback), a worker's traceback included."""
    [(_, results, failures)] = run_configs([cfg], out_dir, graph, workers, k)
    return [r.row for r in results], failures


TUNING_SEED = 0


def validation_objective(graph, cfg, k=HITS_K):
    """Hits@k on the tuning split's validation positives (seed 0)."""
    _, n_val, _ = split_sizes(graph.num_edges, cfg.split_fractions)
    if n_val == 0:
        raise ValueError("tuning requires a non-empty validation split")
    split, state, decoder, lineage = _train_stages(graph, cfg, TUNING_SEED)
    hits, _, _ = _score(split, state, decoder, lineage, split.val_pos,
                        min(k, n_val))
    return hits


def random_search(space, base_cfg, seed, graph=None, objective=None,
                  out_dir=None, k=HITS_K):
    """Uniform random search over `space.budget` trials, scored by the
    validation objective; returns (best config, trial log). Each trial
    appends its row to `search_log.csv` as it ends. Trials that raise score
    -inf; all trials failing is an error, raised after the log with every
    trial's error is written."""
    if out_dir is not None:
        check_out_dir(out_dir)
    if objective is None:
        graph = load_dataset(base_cfg.dataset) if graph is None else graph
        objective = partial(validation_objective, graph, k=k)

    trial_log = []
    log_path = (os.devnull if out_dir is None
                else os.path.join(out_dir, "search_log.csv"))
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("trial", "score", "error", "config"))
        for idx, trial_cfg in enumerate(space.trials(base_cfg, seed)):
            try:
                score, err = float(objective(trial_cfg)), ""
            except Exception as exc:
                score, err = float("-inf"), str(exc)
            trial_log.append((idx, trial_cfg, score, err))
            flat = serialize_config(trial_cfg).replace("\n", ";")
            writer.writerow((idx, repr(score), err, flat))
            fh.flush()  # a killed search keeps every finished trial
    if all(score == float("-inf") for _, _, score, _ in trial_log):
        raise RuntimeError(f"every search trial failed; trial 0: "
                           f"{trial_log[0][3]}")
    best_cfg = max(trial_log, key=lambda trial: trial[2])[1]
    if out_dir is not None:
        with open(os.path.join(out_dir, "best_config.txt"), "w") as fh:
            fh.write(serialize_config(best_cfg))
    return best_cfg, trial_log
