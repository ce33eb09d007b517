"""Config persistence, search sampling, the seeded runner, report
rendering, and the command-line interface."""

import dataclasses
import os
import re

import numpy as np
import pytest

from linkssl import report, runner
from linkssl.augment import ALL_KINDS, AugmentationSpec
from linkssl.cli import main
from linkssl.config import (CT_EPOCH_CHOICES, DEFAULT_EVAL_SEEDS,
                            ExperimentConfig, LOSS_FUNCS, SearchSpace,
                            load_config, parse_config, save_config,
                            serialize_config)
from linkssl.datasets import DATA_ROOT_ENV, REGISTRY
from linkssl.graphs import Graph
from linkssl.models.nets import EncoderConfig
from linkssl.seeding import derive_rng, derive_seed, lineage_record


def clique_graph(n_blocks=3, size=8):
    """Cliques joined in a ring; small but link-predictable."""
    edges = []
    for b in range(n_blocks):
        base = b * size
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j))
        edges.append((base, ((b + 1) % n_blocks) * size))
    return Graph(n_blocks * size, edges)


def cheap_cfg(**overrides):
    base = dict(
        dataset="toy", model="grace",
        augmentation=AugmentationSpec(kind="random"),
        encoder=EncoderConfig(n_layers=2, layer_size=64, norm="layer"),
        ct_epochs=100, batch_size=256, proj_hidden=64, seeds=(1, 2))
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- config


def test_serialize_parse_roundtrip_default():
    cfg = ExperimentConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialize_parse_roundtrip_nondefault():
    cfg = ExperimentConfig(
        dataset="Power", model="lbgrl",
        augmentation=AugmentationSpec(kind="sbm_oracle", drop_edge_rate_1=0.7,
                                      drop_feature_rate_2=0.3,
                                      detector="louvain", cutoff=0.45),
        encoder=EncoderConfig(n_layers=4, layer_size=448, norm="layer",
                              batchnorm_momentum=0.83,
                              weight_standardization=True),
        ct_epochs=3000, batch_size=6400, gnn_lr=0.004670672881289643,
        pred_lr=1e-4, proj_hidden=512, loss_func="log_sig", mask_input=True,
        weight_decay=7.98462282778516e-05, tau=0.9, ema_decay=0.999,
        split_fractions=(0.85, 0.05, 0.10), seeds=(3, 1, 4))
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_file_roundtrip(tmp_path):
    cfg = cheap_cfg()
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_parse_accepts_comments_and_defaults():
    cfg = parse_config("# comment\n\nmodel=bgrl\n")
    assert cfg.model == "bgrl"
    assert cfg.dataset == "USAir"
    assert cfg.seeds == DEFAULT_EVAL_SEEDS


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("model=grace\nlearning_rate=3\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError, match="key=value"):
        parse_config("model grace\n")


@pytest.mark.parametrize("overrides", [
    {"model": "sage"},
    {"ct_epochs": 200},
    {"batch_size": 300},
    {"batch_size": 128},
    {"gnn_lr": 0.05},
    {"pred_lr": 1e-5},
    {"proj_hidden": 100},
    {"loss_func": "mse"},
    {"weight_decay": 1.0},
    {"tau": 0.55},
    {"ema_decay": 1.0},
    {"split_fractions": (0.5, 0.2, 0.2)},
    {"seeds": ()},
])
def test_config_validation_rejects(overrides):
    with pytest.raises(ValueError):
        ExperimentConfig(**overrides)


def test_config_label():
    cfg = cheap_cfg(model="lgrace",
                    augmentation=AugmentationSpec(kind="sbm2"))
    assert cfg.label() == "lgrace_sbm2"


# ---------------------------------------------------------- search space


def _on_grid(value, lo, hi, step):
    return lo - 1e-9 <= value <= hi + 1e-9 and (
        abs((value - lo) / step - round((value - lo) / step)) < 1e-6)


def test_sampled_trials_stay_within_bounds():
    space = SearchSpace(budget=200)
    for cfg in space.trials(ExperimentConfig(), seed=3):
        assert cfg.ct_epochs in CT_EPOCH_CHOICES
        assert _on_grid(cfg.batch_size, 256, 6400, 64)
        assert 1e-4 <= cfg.gnn_lr <= 1e-2
        assert 1e-4 <= cfg.pred_lr <= 1e-2
        assert _on_grid(cfg.proj_hidden, 64, 512, 64)
        assert cfg.loss_func in LOSS_FUNCS
        assert 1e-6 <= cfg.weight_decay <= 1e-4
        assert _on_grid(cfg.tau, 0.1, 0.9, 0.1)
        assert 1 <= cfg.encoder.n_layers <= 4
        assert _on_grid(cfg.encoder.layer_size, 64, 512, 64)
        assert cfg.encoder.norm in ("batch", "layer")
        assert 0.0 <= cfg.encoder.batchnorm_momentum <= 1.0
        aug = cfg.augmentation
        for rate in (aug.drop_edge_rate_1, aug.drop_edge_rate_2,
                     aug.drop_feature_rate_1, aug.drop_feature_rate_2):
            assert _on_grid(rate, 0.0, 0.9, 0.1)
        assert aug.detector == "louvain"


def test_trials_are_seed_deterministic():
    space = SearchSpace(budget=10)
    base = ExperimentConfig()
    assert space.trials(base, seed=5) == space.trials(base, seed=5)
    assert space.trials(base, seed=5) != space.trials(base, seed=6)


def test_budget_one_returns_single_trial():
    assert len(SearchSpace(budget=1).trials(ExperimentConfig(), seed=0)) == 1


# --------------------------------------------------------------- seeding


def test_derive_seed_label_sensitivity():
    assert derive_seed(7, "split") == derive_seed(7, "split")
    assert derive_seed(7, "split") != derive_seed(7, "train")
    assert derive_seed(7, "augment", 3) != derive_seed(7, "augment", 4)


def test_changing_root_seed_changes_every_substream():
    labels = ["split", "train", "decoder", "evaluate", "detection"]
    for label in labels:
        assert derive_seed(1, label) != derive_seed(2, label)
    assert derive_rng(1, "split").random() != derive_rng(2, "split").random()


def test_lineage_record_lists_path_and_seed():
    record = lineage_record(9, [["split"], ["augment", 0]])
    assert len(record) == 2
    for path, seed in record:
        assert isinstance(path, str) and isinstance(seed, int)
    assert record[0][1] == derive_seed(9, "split")


# ---------------------------------------------------------------- runner


def test_run_single_is_deterministic():
    g = clique_graph()
    cfg = cheap_cfg()
    a = runner.run_single(g, cfg, seed=1, k=5)
    b = runner.run_single(g, cfg, seed=1, k=5)
    assert a.row == b.row
    assert a.loss_history == b.loss_history
    for name in a.parameters:
        assert np.array_equal(a.parameters[name], b.parameters[name])


def test_run_experiment_layout_and_aggregate(tmp_path):
    g = clique_graph()
    cfg = cheap_cfg()
    rows, failures = runner.run_experiment(cfg, out_dir=tmp_path, graph=g,
                                           k=5)
    assert failures == []
    assert [r["seed"] for r in rows] == [1, 2]
    method_dir = tmp_path / "toy" / "grace_random"
    lines = (method_dir / "metrics.csv").read_text().splitlines()
    assert lines[0] == runner.CSV_HEADER
    assert len(lines) == 4  # header + 2 seeds + aggregate
    assert lines[-1].split(",")[3] == "aggregate"
    hits = np.array([r["hits_at_50"] for r in rows])
    assert lines[-1].split(",")[4] == f"{hits.mean():.6f}±{hits.std():.6f}"
    for seed in (1, 2):
        seed_dir = method_dir / str(seed)
        for name in ("metrics.csv", "config.txt", "loss.csv", "params.npz",
                     "run.txt"):
            assert (seed_dir / name).exists()
        assert load_config(seed_dir / "config.txt") == cfg


def test_run_experiment_rerun_is_byte_identical(tmp_path):
    g = clique_graph()
    cfg = cheap_cfg()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    runner.run_experiment(cfg, out_dir=out1, graph=g, k=5)
    runner.run_experiment(cfg, out_dir=out2, graph=g, k=5)
    rel = os.path.join("toy", "grace_random", "metrics.csv")
    assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_run_experiment_isolates_seed_failures(tmp_path, monkeypatch):
    g = clique_graph()
    cfg = cheap_cfg(seeds=(1, 2, 3))
    real = runner.run_single

    def flaky(graph, cfg, seed, k=runner.HITS_K):
        if seed == 2:
            raise RuntimeError("boom")
        return real(graph, cfg, seed, k=k)

    monkeypatch.setattr(runner, "run_single", flaky)
    rows, failures = runner.run_experiment(cfg, out_dir=tmp_path, graph=g,
                                           k=5)
    assert [r["seed"] for r in rows] == [1, 3]
    assert len(failures) == 1 and failures[0][0] == 2
    assert "boom" in failures[0][1]


def test_parallel_workers_match_serial():
    g = clique_graph()
    cfg = cheap_cfg()
    serial, _ = runner.run_experiment(cfg, graph=g, k=5)
    parallel, _ = runner.run_experiment(cfg, graph=g, workers=2, k=5)
    assert serial == parallel


def test_oracle_sbm_detection_runs_before_split(tmp_path):
    g = clique_graph()
    cfg = cheap_cfg(augmentation=AugmentationSpec(kind="sbm_oracle"))
    result = runner.run_single(g, cfg, seed=1, k=5)
    assert result.detector_edges == g.num_edges
    assert result.lineage[0][0] == "detection"
    runner.write_run_dir(tmp_path, cfg, result)
    run_txt = (tmp_path / "toy" / "grace_sbm_oracle" / "1"
               / "run.txt").read_text()
    assert f"detector_input_edges {g.num_edges}" in run_txt


def test_train_single_skips_metrics(tmp_path):
    g = clique_graph()
    cfg = cheap_cfg(seeds=(4,))
    result = runner.train_single(g, cfg, seed=4)
    assert result.row is None
    assert result.loss_history and result.parameters
    runner.write_run_dir(tmp_path, cfg, result)
    seed_dir = tmp_path / "toy" / "grace_random" / "4"
    assert not (seed_dir / "metrics.csv").exists()
    assert (seed_dir / "params.npz").exists()


def test_write_metrics_csv_is_deterministic(tmp_path):
    rows = [
        {"dataset": "d", "model": "grace", "augmentation": "random",
         "seed": s, "hits_at_50": 0.5 + 0.1 * s, "ap": 0.8, "auc": 0.9}
        for s in (1, 2, 3)
    ]
    t1 = runner.write_metrics_csv(tmp_path / "m1.csv", rows)
    t2 = runner.write_metrics_csv(tmp_path / "m2.csv", rows)
    assert t1 == t2
    agg = t1.splitlines()[-1].split(",")
    vals = np.array([0.6, 0.7, 0.8])
    assert agg[4] == f"{vals.mean():.6f}±{vals.std():.6f}"


def test_evaluation_protocol_seed_roles():
    # the tuning split is seed 0; scoring runs on seeds 1..10
    assert runner.TUNING_SEED == 0
    assert DEFAULT_EVAL_SEEDS == tuple(range(1, 11))


# ---------------------------------------------------------------- search


def test_random_search_rigged_objective_argmax(tmp_path):
    space = SearchSpace(budget=6)
    best, log = runner.random_search(space, cheap_cfg(), seed=11,
                                     objective=lambda cfg: cfg.tau,
                                     out_dir=tmp_path)
    assert len(log) == 6
    assert best.tau == max(cfg.tau for _, cfg, _, _ in log)
    log_lines = (tmp_path / "search_log.csv").read_text().splitlines()
    assert len(log_lines) == 7  # header + one line per trial
    assert load_config(tmp_path / "best_config.txt") == best


def test_random_search_budget_one_returns_lone_trial():
    space = SearchSpace(budget=1)
    best, log = runner.random_search(space, cheap_cfg(), seed=2,
                                     objective=lambda cfg: 0.0)
    assert len(log) == 1
    assert best == log[0][1]


def test_random_search_all_failures_raise():
    def explode(cfg):
        raise ValueError("nope")

    with pytest.raises(RuntimeError, match="every search trial failed"):
        runner.random_search(SearchSpace(budget=3), cheap_cfg(), seed=1,
                             objective=explode)


def test_random_search_partial_failures_score_neg_inf():
    calls = []

    def sometimes(cfg):
        calls.append(cfg)
        if len(calls) % 2:
            raise ValueError("odd trial")
        return cfg.tau

    best, log = runner.random_search(SearchSpace(budget=4), cheap_cfg(),
                                     seed=3, objective=sometimes)
    scores = [s for _, _, s, _ in log]
    assert scores[0] == scores[2] == float("-inf")
    assert best.tau == max(log[i][1].tau for i in (1, 3))


def test_validation_objective_trains_and_scores():
    g = clique_graph()
    value = runner.validation_objective(g, cheap_cfg(), k=3)
    assert 0.0 <= value <= 1.0


def test_validation_objective_rejects_empty_validation_before_training(
        monkeypatch):
    # 5 edges at (0.7, 0.1, 0.2): floor(0.5) = 0 validation positives
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])

    def must_not_train(*args, **kwargs):
        raise AssertionError("training started before the split check")

    monkeypatch.setattr(runner, "train_encoder", must_not_train)
    monkeypatch.setattr(runner, "train_supervised_gcn", must_not_train)
    for model in ("grace", "gcn_supervised"):
        with pytest.raises(ValueError, match="non-empty validation"):
            runner.validation_objective(g, cheap_cfg(model=model), k=3)


def test_parallel_seed_failure_carries_worker_traceback():
    # two edges cannot be split, so every seed raises inside its worker
    g = Graph(4, [(0, 1), (2, 3)])
    rows, failures = runner.run_experiment(cheap_cfg(), graph=g, workers=2,
                                           k=5)
    assert rows == []
    assert [seed for seed, _ in failures] == [1, 2]
    for _, message in failures:
        assert "Traceback" in message
        assert "split_sizes" in message
        assert "at least 3 edges" in message


def planted_partition(n_blocks, size, p_intra, p_inter, seed=0):
    rng = np.random.default_rng(seed)
    n = n_blocks * size
    blocks = np.arange(n) % n_blocks
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_intra if blocks[u] == blocks[v] else p_inter
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def test_oracle_sbm_beats_random_augmentation_on_planted_blocks():
    """Full-graph community detection before the split gives the SBM views
    an edge over uniform edge dropping. The regime needs many small blocks:
    sampled negatives then almost surely cross blocks, so block-level
    embeddings rank them below the held-out positives. Deterministic seeds
    freeze the measured gap (oracle 0.952 vs random 0.886)."""
    g = planted_partition(10, 8, 0.6, 0.004)

    def mean_hits(kind):
        cfg = cheap_cfg(
            augmentation=AugmentationSpec(kind=kind, drop_edge_rate_1=0.2,
                                          drop_edge_rate_2=0.2),
            seeds=(1, 2, 3))
        rows, failures = runner.run_experiment(cfg, graph=g, k=10)
        assert not failures
        return float(np.mean([r["hits_at_50"] for r in rows]))

    random_mean = mean_hits("random")
    oracle_mean = mean_hits("sbm_oracle")
    assert oracle_mean >= random_mean + 0.01, (
        f"oracle {oracle_mean:.3f} vs random {random_mean:.3f}")
    assert oracle_mean >= 0.90


# ---------------------------------------------------------------- report


def make_rows(spec):
    """spec: {(model, aug): {dataset: [per-seed scores]}} -> row dicts."""
    rows = []
    for (model, aug), by_dataset in spec.items():
        for dataset, scores in by_dataset.items():
            for seed, score in enumerate(scores, start=1):
                rows.append({"dataset": dataset, "model": model,
                             "augmentation": aug, "seed": seed,
                             "hits_at_50": score, "ap": score,
                             "auc": score})
    return rows


def test_build_table_collects_cells():
    rows = make_rows({("grace", "random"): {"A": [0.5, 0.7]},
                      ("bgrl", "deg"): {"A": [0.4, 0.6]}})
    table = report.build_table(rows)
    assert table.datasets == ["A"]
    assert set(table.methods) == {("grace", "random"), ("bgrl", "deg")}
    cell = table.cells[(("grace", "random"), "A")]
    assert cell.mean == pytest.approx(0.6)


def test_optim_row_takes_best_adaptive_augmentation():
    rows = make_rows({
        ("grace", "random"): {"A": [0.99, 0.99]},  # excluded from optim
        ("grace", "sbm_oracle"): {"A": [0.98, 0.98]},  # excluded too
        ("grace", "deg"): {"A": [0.50, 0.60]},
        ("grace", "pr"): {"A": [0.70, 0.80]},
        ("grace", "sbm2"): {"A": [0.20, 0.30]},
    })
    table = report.add_optim_rows(report.build_table(rows))
    optim = table.cells[(("grace", "optim"), "A")]
    assert optim.mean == pytest.approx(0.75)  # pr wins, oracle ignored
    constituents = [table.cells[(("grace", a), "A")].mean
                    for a in ("deg", "pr", "sbm2")]
    assert optim.mean == pytest.approx(max(constituents))


def strict_rows(n_runs=10):
    """Three methods strictly ordered on every run of one dataset."""
    spec = {}
    for j, method in enumerate([("m", "worst"), ("m", "mid"), ("m", "best")]):
        spec[method] = {"A": [0.1 * r + 0.01 * j for r in range(n_runs)]}
    return make_rows(spec)


def test_annotations_mark_best_and_worst():
    table = report.build_table(strict_rows())
    report.annotate(table, alpha=0.1)
    assert table.annotations[(("m", "best"), "A")] == "*"
    assert table.annotations[(("m", "worst"), "A")] == "x"
    assert (("m", "mid"), "A") not in table.annotations


def test_annotations_blocked_when_gate_fails():
    rows = make_rows({("m", "a"): {"A": [0.5] * 10},
                      ("m", "b"): {"A": [0.5] * 10}})
    table = report.annotate(report.build_table(rows))
    assert table.annotations == {}


def test_annotations_require_matching_seed_counts():
    rows = make_rows({("m", "a"): {"A": [0.1, 0.2, 0.3]},
                      ("m", "b"): {"A": [0.4, 0.5]}})
    table = report.annotate(report.build_table(rows))
    assert table.annotations == {}


def test_csv_and_text_render_identical_numbers():
    table = report.build_table(strict_rows())
    report.add_optim_rows(table)
    report.annotate(table, alpha=0.1)
    pattern = r"\d+\.\d{2}±\d+\.\d{2}"
    text_numbers = re.findall(pattern, report.render_text(table))
    csv_numbers = re.findall(pattern, report.render_csv(table))
    assert text_numbers and text_numbers == csv_numbers
    assert "*" in report.render_csv(table) and "x" in report.render_csv(table)


def test_rendered_cells_are_percentages_with_two_decimals():
    rows = make_rows({("grace", "random"): {"A": [0.5, 0.7]}})
    text = report.render_text(report.build_table(rows))
    assert "60.00±10.00" in text


def test_read_result_rows_skips_aggregate(tmp_path):
    rows = [
        {"dataset": "toy", "model": "grace", "augmentation": "random",
         "seed": s, "hits_at_50": 0.1 * s, "ap": 0.5, "auc": 0.5}
        for s in (1, 2)
    ]
    path = tmp_path / "toy" / "grace_random" / "metrics.csv"
    runner.write_metrics_csv(path, rows)
    parsed = report.read_result_rows(tmp_path)
    assert len(parsed) == 2
    assert all(isinstance(r["seed"], int) for r in parsed)
    assert parsed[0]["hits_at_50"] == pytest.approx(0.1)


def test_stats_summary_reports_friedman_and_groups():
    text = report.stats_summary(strict_rows(), alpha=0.1)
    assert "friedman chi2=" in text
    assert "best group: m best" in text
    assert "worst group: m worst" in text


# ------------------------------------------------------------------- cli


def plant_dataset(root, name, seed=0, n_blocks=4, p_skip_inter=0.9):
    """Write a block-structured edge list whose node and edge counts match
    the registry entry for `name`."""
    info = REGISTRY[name]
    rng = np.random.default_rng(seed)
    n, m = info.num_nodes, info.num_undirected_edges
    blocks = np.arange(n) % n_blocks
    chosen = set()
    # spanning chain so every node id appears in the file
    order = rng.permutation(n)
    for i in range(n - 1):
        u, v = int(order[i]), int(order[i + 1])
        chosen.add((min(u, v), max(u, v)))
    while len(chosen) < m:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v:
            continue
        if blocks[u] != blocks[v] and rng.random() < p_skip_inter:
            continue
        chosen.add((min(u, v), max(u, v)))
    with open(os.path.join(root, info.filename), "w") as fh:
        for u, v in sorted(chosen):
            fh.write(f"{u} {v}\n")


@pytest.fixture
def celegans_root(tmp_path, monkeypatch):
    data_root = tmp_path / "data"
    data_root.mkdir()
    plant_dataset(data_root, "Celegans")
    monkeypatch.setenv(DATA_ROOT_ENV, str(data_root))
    return data_root


@pytest.fixture
def cli_cfg_path(tmp_path):
    cfg = cheap_cfg(dataset="Celegans", seeds=(1,))
    path = tmp_path / "cli_cfg.txt"
    save_config(cfg, path)
    return str(path)


def test_cli_split_writes_per_seed_edge_lists(celegans_root, cli_cfg_path,
                                              tmp_path):
    out = tmp_path / "out"
    assert main(["split", "--config", cli_cfg_path, "--seeds", "1,2",
                 "--out", str(out)]) == 0
    info = REGISTRY["Celegans"]
    for seed in (1, 2):
        seed_dir = out / "Celegans" / "splits" / str(seed)
        counts = {}
        for part in ("train", "valid", "test"):
            counts[part] = len((seed_dir / f"{part}.txt")
                               .read_text().splitlines())
        assert sum(counts.values()) == info.num_undirected_edges
        assert counts["train"] > counts["test"] > counts["valid"]


def test_cli_evaluate_stats_report_roundtrip(celegans_root, cli_cfg_path,
                                             tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["evaluate", "--config", cli_cfg_path,
                 "--out", str(out)]) == 0
    evaluate_out = capsys.readouterr().out
    assert runner.CSV_HEADER in evaluate_out
    assert (out / "Celegans" / "grace_random" / "metrics.csv").exists()

    assert main(["stats", "--out", str(out)]) == 0
    assert "Celegans" in capsys.readouterr().out

    assert main(["report", "--out", str(out)]) == 0
    report_out = capsys.readouterr().out
    assert "grace random" in report_out
    assert (out / "report.txt").read_text() == report_out
    pattern = r"\d+\.\d{2}±\d+\.\d{2}"
    assert (re.findall(pattern, report_out)
            == re.findall(pattern, (out / "report.csv").read_text()))


def test_cli_train_writes_checkpoints_only(celegans_root, cli_cfg_path,
                                           tmp_path):
    out = tmp_path / "ckpt"
    assert main(["train", "--config", cli_cfg_path, "--seeds", "5",
                 "--out", str(out)]) == 0
    seed_dir = out / "Celegans" / "grace_random" / "5"
    assert (seed_dir / "params.npz").exists()
    assert (seed_dir / "loss.csv").exists()
    assert not (seed_dir / "metrics.csv").exists()


def test_cli_benchmark_covers_every_method(celegans_root, cli_cfg_path,
                                           tmp_path, monkeypatch):
    def stub(graph, cfg, seed, k=runner.HITS_K):
        row = {"dataset": cfg.dataset, "model": cfg.model,
               "augmentation": cfg.augmentation.kind, "seed": seed,
               "hits_at_50": 0.5, "ap": 0.5, "auc": 0.5}
        return runner.RunResult(seed=seed, row=row, detector_edges=None,
                                loss_history=[(0, 1.0)],
                                lineage=[("split", 0)])

    monkeypatch.setattr(runner, "run_single", stub)
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", cli_cfg_path, "--seeds", "1,2",
                 "--out", str(out)]) == 0
    method_dirs = sorted(p.name for p in (out / "Celegans").iterdir())
    ssl_models = ("grace", "bgrl", "lgrace", "lbgrl")
    expected = {"gcn_supervised_random"} | {
        f"{m}_{k}" for m in ssl_models for k in ALL_KINDS}
    assert set(method_dirs) == expected
    sample = (out / "Celegans" / "lgrace_sbm" / "metrics.csv").read_text()
    assert len(sample.splitlines()) == 4  # header + 2 seeds + aggregate


def test_cli_search_writes_best_config(celegans_root, cli_cfg_path,
                                       tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "validation_objective",
                        lambda graph, cfg, k=runner.HITS_K: cfg.tau)
    out = tmp_path / "searched"
    assert main(["search", "--config", cli_cfg_path, "--budget", "3",
                 "--out", str(out)]) == 0
    best = load_config(out / "best_config.txt")
    log_lines = (out / "search_log.csv").read_text().splitlines()
    assert len(log_lines) == 4
    assert best.tau == pytest.approx(
        max(float(line.split("tau=")[1].split(";")[0])
            for line in log_lines[1:]))


def test_cli_stats_on_empty_directory_fails(tmp_path, capsys):
    assert main(["stats", "--out", str(tmp_path)]) == 1
    assert "no result rows" in capsys.readouterr().err


def test_cli_missing_data_root_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    rc = main(["split", "--dataset", "USAir", "--out", str(tmp_path)])
    assert rc == 1
    assert DATA_ROOT_ENV in capsys.readouterr().err


def test_cli_rejects_malformed_seed_list():
    with pytest.raises(SystemExit):
        main(["evaluate", "--seeds", "one,two"])


def test_cli_dataset_flag_overrides_config(celegans_root, tmp_path, capsys):
    cfg = cheap_cfg(dataset="USAir", seeds=(1,))
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    out = tmp_path / "out"
    # USAir is not planted, so only the override lets this run
    assert main(["split", "--config", str(path), "--dataset", "Celegans",
                 "--seeds", "1", "--out", str(out)]) == 0
    assert (out / "Celegans" / "splits" / "1" / "train.txt").exists()


@pytest.mark.parametrize("seed", [2 ** 32 + 1, -1])
def test_config_rejects_seeds_that_would_alias(seed):
    # derive_seed keeps 32 bits: 2**32 + 1 would replay seed 1, -1 seed 2**32-1
    with pytest.raises(ValueError, match=f"seed {seed} "):
        ExperimentConfig(seeds=(1, seed))


def test_config_accepts_seed_range_edges():
    assert ExperimentConfig(seeds=(0, 2 ** 32 - 1)).seeds == (0, 2 ** 32 - 1)


def test_cli_reports_out_of_range_seed(tmp_path, capsys):
    rc = main(["split", "--seeds", str(2 ** 32 + 1), "--out", str(tmp_path)])
    assert rc == 1
    assert f"error: seed {2 ** 32 + 1} outside" in capsys.readouterr().err


def test_cli_train_failure_reports_traceback(celegans_root, cli_cfg_path,
                                             tmp_path, monkeypatch, capsys):
    def boom(graph, cfg, seed):
        raise RuntimeError("encoder exploded")

    monkeypatch.setattr(runner, "train_single", boom)
    assert main(["train", "--config", cli_cfg_path, "--seeds", "5",
                 "--out", str(tmp_path / "ckpt")]) == 1
    err = capsys.readouterr().err
    assert "seed 5: FAILED (Traceback (most recent call last)" in err
    assert "in boom" in err and "RuntimeError: encoder exploded" in err
