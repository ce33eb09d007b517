"""Command-line interface.

Subcommands:
    split      materialize per-seed train/valid/test edge lists
    train      fit models and save checkpoints (no evaluation)
    evaluate   full per-seed protocol, metrics.csv per method
    benchmark  model x augmentation sweep on one dataset
    search     seeded uniform random hyperparameter search
    stats      Friedman + Bonferroni-Dunn pass over a results directory
    report     render the aggregate table (text + CSV) with annotations

Datasets are edge-list files under the directory named by the
LINKSSL_DATA_ROOT environment variable. Exit code 1 signals that at least
one seed, trial, or sweep cell failed; 0 means everything ran.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback

from . import report as report_mod
from . import runner
from .augment import ALL_KINDS
from .config import (ExperimentConfig, MODELS, SearchSpace, load_config,
                     serialize_config)
from .datasets import DATA_ROOT_ENV, load_dataset, write_edge_list
from .graphs import random_link_split
from .seeding import derive_seed

METRIC_CHOICES = ("hits_at_50", "ap", "auc")


def _parse_seeds(text):
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be comma-separated integers, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed list")
    return seeds


def _load_cfg(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if getattr(args, "dataset", None):
        overrides["dataset"] = args.dataset
    if getattr(args, "seeds", None):
        overrides["seeds"] = args.seeds
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_split(args):
    cfg = _load_cfg(args)
    graph = load_dataset(cfg.dataset)
    for seed in cfg.seeds:
        split = random_link_split(graph, cfg.split_fractions,
                                  seed=derive_seed(seed, "split"))
        seed_dir = os.path.join(args.out, cfg.dataset, "splits", str(seed))
        os.makedirs(seed_dir, exist_ok=True)
        for name, edges in (("train", split.train_graph.edges),
                            ("valid", split.val_pos),
                            ("test", split.test_pos)):
            write_edge_list(os.path.join(seed_dir, f"{name}.txt"), edges)
        print(f"seed {seed}: {len(split.train_graph.edges)} train, "
              f"{len(split.val_pos)} valid, {len(split.test_pos)} test "
              f"-> {seed_dir}")
    return 0


def cmd_train(args):
    cfg = _load_cfg(args)
    graph = load_dataset(cfg.dataset)
    failures = []
    for seed in cfg.seeds:
        try:
            result = runner.train_single(graph, cfg, seed)
        except Exception:
            failures.append((seed, traceback.format_exc()))
            continue
        runner.write_run_dir(args.out, cfg, result)
        final = result.loss_history[-1][1] if result.loss_history else None
        print(f"seed {seed}: trained {cfg.label()}"
              + (f", final loss {final:.6f}" if final is not None else ""))
    _report_failures(failures)
    return 1 if failures else 0


def _report_failures(failures):
    for seed, message in failures:
        print(f"seed {seed}: FAILED ({message.strip()})", file=sys.stderr)


def cmd_evaluate(args):
    cfg = _load_cfg(args)
    rows, failures = runner.run_experiment(cfg, out_dir=args.out,
                                           workers=args.workers)
    _report_failures(failures)
    if not rows:
        print("no seed completed", file=sys.stderr)
        return 1
    print(runner.CSV_HEADER)
    for row in rows:
        print(runner.format_row(row))
    return 1 if failures else 0


def _sweep_methods():
    methods = [("gcn_supervised", "random")]  # augmentation unused there
    for model in MODELS:
        if model == "gcn_supervised":
            continue
        methods.extend((model, kind) for kind in ALL_KINDS)
    return methods


def cmd_benchmark(args):
    base = _load_cfg(args)
    any_failure = False
    for model, kind in _sweep_methods():
        cfg = dataclasses.replace(
            base, model=model,
            augmentation=dataclasses.replace(base.augmentation, kind=kind))
        rows, failures = runner.run_experiment(cfg, out_dir=args.out,
                                               workers=args.workers)
        _report_failures(failures)
        status = f"{len(rows)}/{len(cfg.seeds)} seeds"
        print(f"{cfg.dataset} {cfg.label()}: {status}")
        any_failure |= bool(failures) or not rows
    return 1 if any_failure else 0


def cmd_search(args):
    base = _load_cfg(args)
    space = SearchSpace(budget=args.budget)
    seed = args.seeds[0] if args.seeds else runner.TUNING_SEED
    best, log = runner.random_search(space, base, seed=seed,
                                     out_dir=args.out)
    scores = [score for _, _, score, _ in log]
    print(f"{len(log)} trials, best score {max(scores)!r}")
    sys.stdout.write(serialize_config(best))
    print(f"best config -> {os.path.join(args.out, 'best_config.txt')}")
    return 0


def cmd_stats(args):
    rows = report_mod.read_result_rows(args.out)
    if not rows:
        print(f"no result rows under {args.out}", file=sys.stderr)
        return 1
    sys.stdout.write(report_mod.stats_summary(rows, alpha=args.alpha,
                                              metric=args.metric))
    return 0


def cmd_report(args):
    rows = report_mod.read_result_rows(args.out)
    if not rows:
        print(f"no result rows under {args.out}", file=sys.stderr)
        return 1
    table = report_mod.build_table(rows, metric=args.metric)
    report_mod.add_optim_rows(table)
    report_mod.annotate(table, alpha=args.alpha)
    text = report_mod.render_text(table)
    sys.stdout.write(text)
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(text)
    with open(os.path.join(args.out, "report.csv"), "w") as fh:
        fh.write(report_mod.render_csv(table))
    return 0


def _add_common(sub, *, workers=False, alpha=False, metric=False,
                budget=False):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--dataset", help="dataset name (overrides config)")
    sub.add_argument("--seeds", type=_parse_seeds,
                     help="comma-separated seed list (overrides config)")
    sub.add_argument("--out", default="results",
                     help="output / results directory (default: results)")
    if workers:
        sub.add_argument("--workers", type=int, default=1,
                         help="parallel seed jobs (default: 1)")
    if budget:
        sub.add_argument("--budget", type=int, default=25,
                         help="search trials (default: 25)")
    if alpha:
        sub.add_argument("--alpha", type=float, default=0.05,
                         help="significance level (default: 0.05)")
    if metric:
        sub.add_argument("--metric", choices=METRIC_CHOICES,
                         default="hits_at_50",
                         help="table metric (default: hits_at_50)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="linkssl",
        description="Self-supervised link prediction benchmark. Datasets "
                    f"are read from ${DATA_ROOT_ENV}.")
    subs = parser.add_subparsers(dest="command", required=True)

    cmds = [
        ("split", cmd_split, "write per-seed train/valid/test edge lists",
         {}),
        ("train", cmd_train, "train models and save checkpoints", {}),
        ("evaluate", cmd_evaluate, "run the full per-seed protocol",
         {"workers": True}),
        ("benchmark", cmd_benchmark, "sweep every model x augmentation",
         {"workers": True}),
        ("search", cmd_search, "random hyperparameter search",
         {"budget": True}),
        ("stats", cmd_stats, "significance pass over existing results",
         {"alpha": True, "metric": True}),
        ("report", cmd_report, "render the aggregate result table",
         {"alpha": True, "metric": True}),
    ]
    for name, func, help_text, extras in cmds:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub, **extras)
        sub.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
