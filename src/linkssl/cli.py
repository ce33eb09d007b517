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

from . import report as report_mod
from . import runner
from .augment import ALL_KINDS
from .config import (ExperimentConfig, MODELS, SearchSpace, default_split,
                     load_config, serialize_config)
from .datasets import DATA_ROOT_ENV, load_dataset, write_edge_list


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
    if args.dataset:
        overrides["dataset"] = args.dataset
        # save_config always writes the split, so only a split other than
        # the file dataset's default was chosen; the default one follows
        # --dataset (a USAir search's best_config.txt gives cora 85/5/10)
        if cfg.split_fractions == default_split(cfg.dataset):
            overrides["split_fractions"] = None
    # search's --seeds seeds the trial stream; its trials keep the config's
    if args.seeds and args.command != "search":
        overrides["seeds"] = args.seeds
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_split(args):
    cfg = _load_cfg(args)
    runner.check_out_dir(args.out)
    graph = load_dataset(cfg.dataset)
    for seed in cfg.seeds:
        split = runner.seed_split(graph, cfg, seed)
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
    [(_, results, failures)] = runner.run_configs([cfg], out_dir=args.out,
                                                  k=None)
    for result in results:
        final = result.loss_history[-1][1] if result.loss_history else None
        print(f"seed {result.seed}: trained {cfg.label()}"
              + (f", final loss {final:.6f}" if final is not None else ""))
    _report_failures(failures)
    return 1 if failures else 0


def _report_failures(failures, what="seed"):
    for key, message in failures:
        print(f"{what} {key}: FAILED ({message.strip()})", file=sys.stderr)


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
    cfgs = [dataclasses.replace(
        base, model=model,
        augmentation=dataclasses.replace(base.augmentation, kind=kind))
        for model, kind in _sweep_methods()]
    any_failure = False
    for cfg, results, failures in runner.run_configs(
            cfgs, out_dir=args.out, workers=args.workers):
        _report_failures(failures)
        print(f"{cfg.dataset} {cfg.label()}: "
              f"{len(results)}/{len(cfg.seeds)} seeds")
        any_failure |= bool(failures) or not results
    return 1 if any_failure else 0


def cmd_search(args):
    base = _load_cfg(args)
    space = SearchSpace(budget=args.budget)
    seed = args.seeds[0] if args.seeds else runner.TUNING_SEED
    print(f"search seed {seed}")
    best, log = runner.random_search(space, base, seed=seed,
                                     out_dir=args.out)
    scores = [score for _, _, score, _ in log]
    print(f"{len(log)} trials, best score {max(scores)!r}")
    sys.stdout.write(serialize_config(best))
    print(f"best config -> {os.path.join(args.out, 'best_config.txt')}")
    failures = [(idx, err) for idx, _, score, err in log
                if score == float("-inf")]
    _report_failures(failures, "trial")
    return 1 if failures else 0


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


def _add_common(sub, *, results=False, workers=False, budget=False):
    """--out on every command; a command that reads a results directory
    takes --alpha and --metric, one that runs seeds the config flags."""
    if results:
        sub.add_argument("--alpha", type=float, default=0.05,
                         help="significance level (default: 0.05)")
        sub.add_argument("--metric", choices=report_mod.METRICS,
                         default="hits_at_50",
                         help="table metric (default: hits_at_50)")
    else:
        sub.add_argument("--config", help="flat key=value config file")
        sub.add_argument("--dataset",
                         help="dataset name (overrides config; a config "
                              "split equal to its dataset's default becomes "
                              "this dataset's default)")
        sub.add_argument("--seeds", type=_parse_seeds,
                         help="comma-separated seed list (overrides config; "
                              "search takes one, which seeds its trial "
                              "stream)")
    sub.add_argument("--out", default="results",
                     help="output / results directory (default: results)")
    if workers:
        sub.add_argument("--workers", type=int, default=1,
                         help="parallel seed jobs (default: 1)")
    if budget:
        sub.add_argument("--budget", type=int, default=25,
                         help="search trials (default: 25)")


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
         {"results": True}),
        ("report", cmd_report, "render the aggregate result table",
         {"results": True}),
    ]
    for name, func, help_text, extras in cmds:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub, **extras)
        sub.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "search" and len(args.seeds or ()) > 1:
        parser.error("argument --seeds: search takes one seed")
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
