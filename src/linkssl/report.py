"""Result aggregation and table rendering.

Cells show mean±std of a metric over seeds (scaled x100, two decimals, the
convention of link-prediction tables). After the significance pass, '*'
marks methods in the best group and 'x' methods in the worst group of each
dataset column. A derived "optim" row per model takes the best adaptive
augmentation {deg, evc, pr, scom, sbm, sbm2} by mean.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .significance import bonferroni_dunn_groups, check_alpha, friedman_test

OPTIM_POOL = ("deg", "evc", "pr", "scom", "sbm", "sbm2")
METRICS = ("hits_at_50", "ap", "auc")


@dataclass
class Cell:
    scores: list

    @property
    def mean(self):
        return float(np.mean(self.scores))

    @property
    def std(self):
        return float(np.std(self.scores))


@dataclass
class ResultTable:
    datasets: list = field(default_factory=list)
    methods: list = field(default_factory=list)  # (model, augmentation)
    cells: dict = field(default_factory=dict)  # (method, dataset) -> Cell
    annotations: dict = field(default_factory=dict)  # same key -> str


def read_result_rows(results_root):
    """Parse every per-method metrics.csv under the results root into row
    dicts, skipping aggregate lines."""
    rows = []
    for dirpath, _, filenames in sorted(os.walk(results_root)):
        if "metrics.csv" not in filenames:
            continue
        rel = os.path.relpath(dirpath, results_root)
        if rel.count(os.sep) != 1:
            continue  # per-seed copies live one level deeper
        with open(os.path.join(dirpath, "metrics.csv")) as fh:
            for record in csv.DictReader(fh):
                if record["seed"] == "aggregate":
                    continue
                rows.append({
                    "dataset": record["dataset"],
                    "model": record["model"],
                    "augmentation": record["augmentation"],
                    "seed": int(record["seed"]),
                    "hits_at_50": float(record["hits_at_50"]),
                    "ap": float(record["ap"]),
                    "auc": float(record["auc"]),
                })
    return rows


def build_table(rows, metric="hits_at_50"):
    table = ResultTable()
    for row in rows:
        method = (row["model"], row["augmentation"])
        dataset = row["dataset"]
        if dataset not in table.datasets:
            table.datasets.append(dataset)
        if method not in table.methods:
            table.methods.append(method)
        cell = table.cells.setdefault((method, dataset), Cell(scores=[]))
        cell.scores.append(row[metric])
    return table


def add_optim_rows(table):
    """Per (model, dataset): the adaptive-augmentation cell with the best
    mean becomes the (model, "optim") cell."""
    models = {model for model, _ in table.methods}
    for model in sorted(models):
        pool = [(model, aug) for aug in OPTIM_POOL
                if (model, aug) in table.methods]
        if not pool:
            continue
        method = (model, "optim")
        for dataset in table.datasets:
            candidates = [table.cells[(m, dataset)] for m in pool
                          if (m, dataset) in table.cells]
            if not candidates:
                continue
            best = max(candidates, key=lambda c: c.mean)
            table.cells[(method, dataset)] = Cell(scores=list(best.scores))
        if any((method, d) in table.cells for d in table.datasets):
            table.methods.append(method)
    return table


def _comparable(table, dataset):
    """(methods, scores, skipped) for one dataset column: the methods with
    a cell there and their scores as a (runs, methods) matrix, or a reason
    the column is skipped, with scores None: fewer than two methods, or seed
    counts that differ or are below two."""
    methods = [m for m in table.methods if (m, dataset) in table.cells]
    if len(methods) < 2:
        return methods, None, "fewer than two methods"
    counts = {len(table.cells[(m, dataset)].scores) for m in methods}
    if len(counts) != 1 or min(counts) < 2:
        return methods, None, "unequal or single-run seed counts"
    scores = np.column_stack([table.cells[(m, dataset)].scores
                              for m in methods])
    return methods, scores, None


def annotate(table, alpha=0.05):
    """Bonferroni-Dunn star/cross per dataset over methods sharing a full
    seed count; skipped (no annotations) when fewer than two comparable
    methods or runs exist."""
    check_alpha(alpha)
    table.annotations = {}
    for dataset in table.datasets:
        methods, scores, skipped = _comparable(table, dataset)
        if skipped:
            continue
        best, worst = bonferroni_dunn_groups(scores, alpha)
        for j in best:
            key = (methods[j], dataset)
            table.annotations[key] = table.annotations.get(key, "") + "*"
        for j in worst:
            key = (methods[j], dataset)
            table.annotations[key] = table.annotations.get(key, "") + "x"
    return table


def _cell_text(table, method, dataset):
    cell = table.cells.get((method, dataset))
    if cell is None:
        return ""
    mark = table.annotations.get((method, dataset), "")
    return (f"{100.0 * cell.mean:.2f}±{100.0 * cell.std:.2f}"
            + (f" {mark}" if mark else ""))


def render_text(table):
    headers = ["method"] + list(table.datasets)
    rows = []
    for method in table.methods:
        label = f"{method[0]} {method[1]}"
        rows.append([label] + [_cell_text(table, method, d)
                               for d in table.datasets])
    widths = [max(len(r[i]) for r in [headers] + rows)
              for i in range(len(headers))]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "-+-".join("-" * w for w in widths)]
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def render_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method"] + list(table.datasets))
    for method in table.methods:
        writer.writerow([f"{method[0]} {method[1]}"]
                        + [_cell_text(table, method, d)
                           for d in table.datasets])
    return buf.getvalue()


def stats_summary(rows, alpha=0.05, metric="hits_at_50"):
    """Per-dataset Friedman test plus the Bonferroni-Dunn groups, rendered
    as plain text."""
    check_alpha(alpha)
    table = build_table(rows, metric=metric)
    lines = []
    for dataset in table.datasets:
        methods, scores, skipped = _comparable(table, dataset)
        if skipped:
            lines.append(f"{dataset}: {skipped}, skipped")
            continue
        chi, p = friedman_test(scores)
        best, worst = bonferroni_dunn_groups(scores, alpha)
        names = [f"{m[0]} {m[1]}" for m in methods]
        lines.append(f"{dataset}: friedman chi2={chi:.4f} p={p:.3e}")
        lines.append("  best group: "
                     + (", ".join(names[j] for j in sorted(best)) or "(none)"))
        lines.append("  worst group: "
                     + (", ".join(names[j] for j in sorted(worst))
                        or "(none)"))
    return "\n".join(lines) + "\n"
