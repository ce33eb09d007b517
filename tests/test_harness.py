"""Config persistence, search sampling, the seeded runner, report
rendering, and the command-line interface."""

import argparse
import csv
import dataclasses
import hashlib
import math
import os
import re

import numpy as np
import pytest

from linkssl import cli, process, report, runner
from linkssl.augment import ALL_KINDS, AugmentationSpec
from linkssl.cli import main
from linkssl.community import louvain
from linkssl.config import (CT_EPOCH_CHOICES, DEFAULT_EVAL_SEEDS,
                            ExperimentConfig, LOSS_FUNCS, SearchSpace,
                            load_config, parse_config, save_config,
                            serialize_config)
from linkssl.datasets import (DATA_ROOT_ENV, REGISTRY, DatasetInfo,
                              write_edge_list)
from linkssl.graphs import Graph, random_link_split, split_sizes
from linkssl.models.nets import EncoderConfig
from linkssl.seeding import derive_rng, derive_seed


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
    assert parse_config("") == ExperimentConfig()


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


@pytest.mark.parametrize("build, name, value", [
    (ExperimentConfig, "ct_epochs", 100.0),
    (ExperimentConfig, "batch_size", 256.0),
    (ExperimentConfig, "proj_hidden", 256.0),
    (EncoderConfig, "n_layers", 2.0),
    (EncoderConfig, "layer_size", 128.0),
    (ExperimentConfig, "seeds", (1.7,)),
    (ExperimentConfig, "seeds", (1.7, 1.2)),
])
def test_config_rejects_non_integral_integer_fields(build, name, value):
    # 100.0 passed the range checks and then broke the file round trip and
    # range(); seed 1.7 ran as seed 1, and (1.7, 1.2) failed as a repeat
    with pytest.raises(ValueError, match=f"{name} takes integers"):
        build(**{name: value})


@pytest.mark.parametrize("text, where", [
    ("ct_epochs=100.0\n", "line 1: ct_epochs=100.0: "),
    ("model=grace\nseeds=1,x\n", "line 2: seeds=1,x: "),
    ("# tuned\n\ntau=abc\n", "line 3: tau=abc: "),
])
def test_parse_config_names_the_line_and_key_of_a_bad_value(text, where):
    # each raised the bare int()/float() message, naming neither
    with pytest.raises(ValueError) as info:
        parse_config(text)
    assert str(info.value).startswith(where)


@pytest.mark.parametrize("fractions", [(math.nan, 0.5, 0.5),
                                       (0.5, 0.5, math.inf),
                                       (1.2, -0.1, -0.1), (0.9, 0.2, -0.1)])
@pytest.mark.parametrize("build", ["constructor", "parse_config",
                                   "split_sizes"])
def test_split_fractions_reject_non_finite_and_out_of_range(build,
                                                            fractions):
    # nan slipped past the sum check and split 87 edges into 1 train, 43
    # valid and 43 test; (1.2, -0.1, -0.1) built and failed once per seed
    text = ",".join(repr(f) for f in fractions)
    calls = {
        "constructor": lambda: ExperimentConfig(split_fractions=fractions),
        "parse_config": lambda: parse_config(f"split_fractions={text}\n"),
        "split_sizes": lambda: split_sizes(87, fractions)}
    with pytest.raises(ValueError, match=re.escape(
            f"split_fractions {fractions} must be 3 values in [0, 1]")):
        calls[build]()


@pytest.mark.parametrize("text, message", [
    ("tau=0.3\ntau=0.7\n", "line 2: key 'tau' repeats line 1"),
    ("seeds=1,2\n# again\n seeds = 3\n",
     "line 3: key 'seeds' repeats line 1"),
])
def test_parse_config_rejects_a_repeated_key(text, message):
    # the last line won silently: tau 0.7, seeds (3,)
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(text)


def test_config_integer_fields_take_numpy_ints_and_roundtrip():
    cfg = ExperimentConfig(
        encoder=EncoderConfig(n_layers=np.int64(3), layer_size=np.int32(192)),
        ct_epochs=np.int64(100), batch_size=np.int64(320),
        proj_hidden=np.int16(128), seeds=(np.int64(4), 7))
    ints = (cfg.ct_epochs, cfg.batch_size, cfg.proj_hidden, *cfg.seeds,
            cfg.encoder.n_layers, cfg.encoder.layer_size)
    assert [type(v) for v in ints] == [int] * 7
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("detector", ["leiden", "infomap", "external"])
def test_config_rejects_detectors_that_are_not_built_in(detector):
    # Louvain is the only detector, so no kind accepts another name, not
    # even those that never read blocks
    for kind in ALL_KINDS:
        with pytest.raises(ValueError,
                           match=f"{detector!r}; only 'louvain' is built in"):
            parse_config(f"augmentation={kind}\ncommu_detect={detector}\n")
    with pytest.raises(ValueError, match=detector):
        parse_config(f"model=gcn_supervised\naugmentation=sbm\n"
                     f"commu_detect={detector}\n")


@pytest.mark.parametrize("dataset, split", [
    ("cora", (0.85, 0.05, 0.10)), ("citeseer", (0.85, 0.05, 0.10)),
    ("USAir", (0.70, 0.10, 0.20)), ("toy", (0.70, 0.10, 0.20))])
def test_config_split_defaults_to_the_registry_entry(dataset, split):
    # "toy" is outside the registry and keeps the unattributed split
    assert ExperimentConfig(dataset=dataset).split_fractions == split


def test_config_explicit_split_wins_over_the_registry():
    cfg = ExperimentConfig(dataset="cora", split_fractions=(0.7, 0.1, 0.2))
    assert cfg.split_fractions == (0.7, 0.1, 0.2)


def test_config_split_survives_the_file_roundtrip():
    for cfg in (ExperimentConfig(dataset="cora"),
                ExperimentConfig(dataset="cora",
                                 split_fractions=(0.7, 0.1, 0.2))):
        assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config("dataset=cora\n").split_fractions == (0.85, 0.05,
                                                               0.10)


def test_cli_dataset_flag_takes_that_datasets_split(tmp_path):
    args = argparse.Namespace(config=None, dataset="cora", seeds=None)
    assert cli._load_cfg(args).split_fractions == (0.85, 0.05, 0.10)
    # a saved config always carries a split: its dataset's default follows
    # the flag, any other split was chosen and stays
    path = tmp_path / "cfg.txt"
    save_config(ExperimentConfig(dataset="USAir", model="bgrl"), path)
    args.config = str(path)
    cfg = cli._load_cfg(args)
    assert (cfg.dataset, cfg.model) == ("cora", "bgrl")
    assert cfg.split_fractions == (0.85, 0.05, 0.10)
    save_config(ExperimentConfig(dataset="USAir",
                                 split_fractions=(0.8, 0.1, 0.1)), path)
    assert cli._load_cfg(args).split_fractions == (0.8, 0.1, 0.1)
    path.write_text("dataset=USAir\nmodel=bgrl\n")
    assert cli._load_cfg(args).split_fractions == (0.85, 0.05, 0.10)


def test_cli_evaluate_dataset_flag_on_a_searched_config(
        celegans_root, cli_cfg_path, tmp_path, monkeypatch):
    # search writes best_config.txt with Celegans's 70/10/20; evaluating it
    # on cora must run cora's 85/5/10
    monkeypatch.setattr(runner, "validation_objective",
                        lambda graph, cfg, k=runner.HITS_K: cfg.tau)
    out = tmp_path / "searched"
    assert main(["search", "--config", cli_cfg_path, "--budget", "2",
                 "--out", str(out)]) == 0
    best = out / "best_config.txt"
    assert load_config(best).split_fractions == (0.70, 0.10, 0.20)
    ran = []

    def run_experiment(cfg, out_dir=None, workers=1):
        ran.append(cfg)
        return [], []

    monkeypatch.setattr(runner, "run_experiment", run_experiment)
    main(["evaluate", "--config", str(best), "--dataset", "cora"])
    assert [(c.dataset, c.split_fractions) for c in ran] == [
        ("cora", (0.85, 0.05, 0.10))]


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


@pytest.mark.parametrize("budget", [0, -3])
def test_search_space_rejects_budget_below_one(budget):
    with pytest.raises(ValueError, match=f"budget {budget} "):
        SearchSpace(budget=budget)


def test_search_trial_stream_is_pinned():
    # frozen digest of every serialized trial of three seeded searches
    base = ExperimentConfig(augmentation=AugmentationSpec(kind="sbm"))
    text = "".join(serialize_config(c) for s in (0, 1, 7)
                   for c in SearchSpace().trials(base, s))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest[:16] == "56f43248869e2fd2"


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


@pytest.mark.parametrize("model", ["grace", "gcn_supervised"])
def test_run_dir_records_the_decoder_stage_loss(model, tmp_path,
                                                 monkeypatch):
    # one row per decoder epoch, the mean of that epoch's batch losses;
    # gcn_supervised has no separate decoder stage (its loss.csv is the
    # decoder loss), so it writes no decoder_loss.csv
    from linkssl.models import training

    batches = []

    def descend(terms, epoch, name, *args, _descend=training._descend):
        value = _descend(terms, epoch, name, *args)
        if name == "decoder":
            batches.append((epoch, value))
        return value

    monkeypatch.setattr(training, "_descend", descend)
    cfg = cheap_cfg(model=model, seeds=(1,))
    # about 300 training positives: two decoder batches an epoch
    result = runner.run_single(clique_graph(4, 15), cfg, seed=1, k=5)
    runner.write_run_dir(tmp_path, cfg, result)
    seed_dir = tmp_path / "toy" / cfg.label() / "1"
    assert (seed_dir / "loss.csv").exists()
    path = seed_dir / "decoder_loss.csv"
    if model == "gcn_supervised":
        assert not batches and not path.exists()
        return
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss"
    rows = [(int(e), float(v)) for e, v in
            (line.split(",") for line in lines[1:])]
    assert [e for e, _ in rows] == list(range(training.DECODER_EPOCHS))
    assert len(batches) > len(rows)  # several batches an epoch
    for epoch, value in rows:
        assert value == np.mean([v for e, v in batches if e == epoch])


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


def test_oracle_sbm_detects_on_every_known_edge(tmp_path):
    g = clique_graph()
    cfg = cheap_cfg(augmentation=AugmentationSpec(kind="sbm_oracle"))
    result = runner.run_single(g, cfg, seed=1, k=5)
    assert result.detector_edges == g.num_edges
    assert result.lineage[0][0] == "detection"
    runner.write_run_dir(tmp_path, cfg, result)
    run_txt = (tmp_path / "toy" / "grace_sbm_oracle" / "1"
               / "run.txt").read_text()
    assert f"detector_input_edges {g.num_edges}" in run_txt


def test_run_txt_records_block_detection_on_the_train_graph(tmp_path):
    g = clique_graph()
    cfg = cheap_cfg(augmentation=AugmentationSpec(kind="sbm"), seeds=(1,))
    runner.run_experiment(cfg, out_dir=tmp_path, graph=g, k=5)
    train_seed = derive_seed(1, "train")
    train_graph = random_link_split(g, cfg.split_fractions,
                                    seed=derive_seed(1, "split")).train_graph
    detection_seed = derive_seed(train_seed, "detection")
    blocks = louvain(train_graph, detection_seed)
    lines = (tmp_path / "toy" / "grace_sbm" / "1"
             / "run.txt").read_text().splitlines()
    assert lines[0] == f"lineage detection {detection_seed}"
    assert f"lineage train {train_seed}" in lines
    assert f"detector_input_edges {train_graph.num_edges}" in lines
    assert f"detected_blocks {blocks.max() + 1}" in lines


def test_run_txt_records_the_training_process_threads(tmp_path,
                                                     monkeypatch):
    # a 2-CPU process over a 1-thread OpenBLAS budgets 2 threads, and
    # each of 2 pool workers (forked, so patched alike) budgets 1
    monkeypatch.setattr(process, "blas_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    g = clique_graph()
    for workers, budget in ((1, 2), (2, 1)):
        cfg = cheap_cfg(seeds=(1, 2))
        out = tmp_path / str(workers)
        runner.run_experiment(cfg, out_dir=out, graph=g, workers=workers,
                              k=5)
        for seed in cfg.seeds:
            lines = (out / "toy" / "grace_random" / str(seed)
                     / "run.txt").read_text().splitlines()
            assert lines[-2:] == ["blas_threads 1", f"nce_threads {budget}"]


def test_run_single_without_k_skips_metrics(tmp_path):
    g = clique_graph()
    cfg = cheap_cfg(seeds=(4,))
    result = runner.run_single(g, cfg, seed=4, k=None)
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


def test_random_search_all_failures_write_the_log_first(tmp_path):
    def explode(cfg):
        raise ValueError(f"no trial at tau={cfg.tau}")

    with pytest.raises(RuntimeError, match=r"trial 0: no trial at tau="):
        runner.random_search(SearchSpace(budget=3), cheap_cfg(), seed=1,
                             objective=explode, out_dir=tmp_path)
    with open(tmp_path / "search_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["trial"] for row in rows] == ["0", "1", "2"]
    assert all(row["score"] == "-inf" for row in rows)
    assert all(row["error"].startswith("no trial at tau=") for row in rows)
    assert not (tmp_path / "best_config.txt").exists()


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


def test_random_search_log_is_valid_csv_with_failing_trials(tmp_path):
    # the config column always holds commas; an error message may hold
    # commas and newlines too
    calls = []

    def sometimes(cfg):
        calls.append(cfg)
        if len(calls) % 2:
            raise ValueError("a, b\nc")
        return cfg.tau

    _, log = runner.random_search(SearchSpace(budget=4), cheap_cfg(), seed=3,
                                  objective=sometimes, out_dir=tmp_path)
    with open(tmp_path / "search_log.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "score", "error", "config"]
    assert len(rows) == 1 + len(log)
    assert all(len(row) == 4 for row in rows)
    assert [row[2] for row in rows[1:]] == ["a, b\nc", "", "a, b\nc", ""]
    assert [float(row[1]) for row in rows[1:]] == [s for _, _, s, _ in log]
    assert "seeds=1,2" in rows[1][3]


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


@pytest.mark.parametrize("kwargs, message", [
    ({"workers": 0}, "workers must be >= 1, got 0"),
    ({"workers": -1}, "workers must be >= 1, got -1"),
    ({"k": 0}, "k >= 1, got 0")])
def test_run_experiment_rejects_bad_arguments_before_training(
        kwargs, message, monkeypatch):
    # workers < 1 used to run serially and k=0 failed every seed only in
    # hits_at_k, after full training
    def must_not_run(*args, **kwargs):
        raise AssertionError("the run started before the argument check")

    monkeypatch.setattr(runner, "load_dataset", must_not_run)
    monkeypatch.setattr(runner, "run_single", must_not_run)
    with pytest.raises(ValueError, match=message):
        runner.run_experiment(cheap_cfg(), **kwargs)


def test_run_experiment_rejects_unscorable_hits_k_before_training(
        monkeypatch):
    # 240 edges split 70/10/20 leave 48 test edges, too few for hits@50;
    # each seed used to fail in hits_at_k only after full training
    def must_not_run(*args, **kwargs):
        raise AssertionError("a seed started before the k check")

    monkeypatch.setattr(runner, "run_single", must_not_run)
    g = Graph(120, [(i, (i + step) % 120) for step in (1, 2)
                    for i in range(120)])
    with pytest.raises(ValueError, match="hits@50 needs k=50 test edges; "
                                         "the split of 240 edges has 48"):
        runner.run_experiment(cheap_cfg(), graph=g)


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


def test_stats_summary_reports_skipped_datasets():
    rows = make_rows({("m", "a"): {"A": [0.1, 0.2], "B": [0.1, 0.2, 0.3],
                                   "C": [0.1], "D": [0.1, 0.2]},
                      ("m", "b"): {"B": [0.4, 0.5], "C": [0.2],
                                   "D": [0.3, 0.4]}})
    lines = report.stats_summary(rows).splitlines()
    assert lines[0] == "A: fewer than two methods, skipped"
    assert lines[1] == "B: unequal or single-run seed counts, skipped"
    assert lines[2] == "C: unequal or single-run seed counts, skipped"
    assert lines[3].startswith("D: friedman chi2=")
    # annotate skips the same columns
    table = report.annotate(report.build_table(rows), alpha=0.5)
    assert {d for _, d in table.annotations} <= {"D"}


ONE_METHOD_ROWS = make_rows({("m", "a"): {"A": [0.1, 0.2, 0.3]}})


@pytest.mark.parametrize("alpha", [1.5, -3.0, 0.0, np.nan])
def test_stats_summary_rejects_alpha_with_nothing_to_compare(alpha):
    # one method leaves no column for the Bonferroni-Dunn pass, whose own
    # check would otherwise never run
    with pytest.raises(ValueError, match="alpha must lie in \\(0, 1\\)"):
        report.stats_summary(ONE_METHOD_ROWS, alpha=alpha)


@pytest.mark.parametrize("alpha", [1.5, -3.0, 0.0, np.nan])
def test_annotate_rejects_alpha_with_nothing_to_compare(alpha):
    table = report.build_table(ONE_METHOD_ROWS)
    table.annotations = {"kept": "*"}
    with pytest.raises(ValueError, match="alpha must lie in \\(0, 1\\)"):
        report.annotate(table, alpha=alpha)
    assert table.annotations == {"kept": "*"}  # raised before any work


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


def test_cli_split_writes_the_split_training_uses(celegans_root,
                                                  cli_cfg_path, tmp_path,
                                                  monkeypatch):
    trained_on = []
    real = runner.train_encoder

    def spy(split, *args):
        trained_on.append(split)
        return real(split, *args)

    monkeypatch.setattr(runner, "train_encoder", spy)
    out = tmp_path / "out"
    for command in ("split", "train"):
        assert main([command, "--config", cli_cfg_path, "--seeds", "1",
                     "--out", str(out)]) == 0
    [split] = trained_on
    split_dir = out / "Celegans" / "splits" / "1"
    for name, edges in (("train", split.train_graph.edges),
                        ("valid", split.val_pos), ("test", split.test_pos)):
        written = np.loadtxt(split_dir / f"{name}.txt", dtype=np.int64)
        assert np.array_equal(written.reshape(-1, 2), edges)
    run_txt = (out / "Celegans" / "grace_random" / "1" / "run.txt")
    assert f"lineage split {split.seed}" in run_txt.read_text().splitlines()


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


SWEEP = [("gcn_supervised", "random"), ("grace", "random"),
         ("bgrl", "random")]


@pytest.fixture
def toy_sweep(tmp_path, monkeypatch):
    """A config file for a 60-node "toy" dataset under the data root, with
    the sweep cut to three methods; 276 edges leave 55 test edges for
    hits@50."""
    g = clique_graph(n_blocks=6, size=10)
    root = tmp_path / "data"
    root.mkdir()
    write_edge_list(root / "toy.txt", g.edges)
    monkeypatch.setitem(REGISTRY, "toy",
                        DatasetInfo("toy", "toy.txt", g.n, 2 * g.num_edges))
    monkeypatch.setenv(DATA_ROOT_ENV, str(root))
    monkeypatch.setattr(cli, "_sweep_methods", lambda: list(SWEEP))
    path = tmp_path / "toy.cfg"
    save_config(cheap_cfg(encoder=EncoderConfig(n_layers=1, layer_size=64,
                                                norm="layer")), path)
    return str(path)


def spy_pools(monkeypatch):
    pools = []

    class Spy(runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", Spy)
    return pools


def test_cli_benchmark_on_one_pool_matches_serial(toy_sweep, tmp_path,
                                                  monkeypatch):
    pools = spy_pools(monkeypatch)
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        assert main(["benchmark", "--config", toy_sweep, "--seeds", "1,2,3",
                     "--workers", str(workers), "--out", str(out)]) == 0
        assert len(pools) == workers - 1  # one pool over all nine cells
        outs.append(out / "toy")
    serial, parallel = outs
    for model, kind in SWEEP:
        method = f"{model}_{kind}"
        assert ((serial / method / "metrics.csv").read_bytes()
                == (parallel / method / "metrics.csv").read_bytes())
        for seed in ("1", "2", "3"):
            a, b = serial / method / seed, parallel / method / seed
            for name in ("metrics.csv", "loss.csv"):
                assert (a / name).read_bytes() == (b / name).read_bytes()
            with np.load(a / "params.npz") as pa, \
                    np.load(b / "params.npz") as pb:
                assert pa.files == pb.files
                for key in pa.files:
                    assert np.array_equal(pa[key], pb[key])


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_benchmark_cell_failure_spares_every_other_cell(
        workers, toy_sweep, tmp_path, monkeypatch, capsys):
    def stub(graph, cfg, seed, k=runner.HITS_K):
        if (cfg.model, seed) == ("grace", 2):
            raise RuntimeError("cell exploded")
        row = {"dataset": cfg.dataset, "model": cfg.model,
               "augmentation": cfg.augmentation.kind, "seed": seed,
               "hits_at_50": 0.5, "ap": 0.5, "auc": 0.5}
        return runner.RunResult(seed=seed, row=row, detector_edges=None,
                                loss_history=[(0, 1.0)],
                                lineage=[("split", 0)])

    monkeypatch.setattr(runner, "run_single", stub)
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", toy_sweep, "--seeds", "1,2,3",
                 "--workers", str(workers), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "seed 2: FAILED (" in err and "in stub" in err
    assert "RuntimeError: cell exploded" in err
    for model, kind in SWEEP:
        method_dir = out / "toy" / f"{model}_{kind}"
        seeds = ["1", "3"] if model == "grace" else ["1", "2", "3"]
        assert sorted(p.name for p in method_dir.iterdir()
                      if p.is_dir()) == seeds
        lines = (method_dir / "metrics.csv").read_text().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == [
            *seeds, "aggregate"]


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


def test_cli_search_fails_when_a_trial_fails(celegans_root, cli_cfg_path,
                                             tmp_path, monkeypatch, capsys):
    trials = []

    def objective(graph, cfg, k=runner.HITS_K):
        trials.append(cfg)
        if len(trials) == 2:
            raise RuntimeError("trial blew up")
        return cfg.tau

    monkeypatch.setattr(runner, "validation_objective", objective)
    out = tmp_path / "searched"
    assert main(["search", "--config", cli_cfg_path, "--budget", "3",
                 "--out", str(out)]) == 1
    assert "trial 1: FAILED (trial blew up)" in capsys.readouterr().err
    log_lines = (out / "search_log.csv").read_text().splitlines()
    assert len(log_lines) == 4
    assert log_lines[2].startswith("1,-inf,trial blew up,")
    best = load_config(out / "best_config.txt")
    assert best.tau == max(trials[0].tau, trials[2].tau)


def test_random_search_streams_each_finished_trial(tmp_path):
    # a search interrupted in trial 2 leaves the header and trials 0 and 1,
    # which were on disk before trial 2 began
    log = tmp_path / "search_log.csv"
    done, on_disk = [], []

    def objective(cfg):
        on_disk.append(len(log.read_text().splitlines()))
        if len(done) == 2:
            raise KeyboardInterrupt
        done.append(cfg)
        return cfg.tau

    with pytest.raises(KeyboardInterrupt):
        runner.random_search(SearchSpace(budget=5), cheap_cfg(), seed=4,
                             objective=objective, out_dir=tmp_path)
    assert on_disk[1:] == [2, 3]
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "score", "error", "config"]
    assert [row[0] for row in rows[1:]] == ["0", "1"]
    assert [float(row[1]) for row in rows[1:]] == [cfg.tau for cfg in done]
    assert not (tmp_path / "best_config.txt").exists()


@pytest.mark.parametrize("flags, seed", [([], runner.TUNING_SEED),
                                         (["--seeds", "7"], 7)])
def test_cli_search_uses_one_seed_and_says_which(cli_cfg_path, tmp_path,
                                                 monkeypatch, capsys, flags,
                                                 seed):
    # the config's seeds are (1,); the search seed is the flag's or
    # TUNING_SEED, the trials evaluate the config's seeds, and no trial
    # trains
    seen = []

    def stub(space, base_cfg, seed, out_dir=None):
        seen.append((seed, base_cfg.seeds))
        return base_cfg, [(0, base_cfg, 0.5, "")]

    monkeypatch.setattr(runner, "random_search", stub)
    assert main(["search", "--config", cli_cfg_path, *flags,
                 "--out", str(tmp_path / "s")]) == 0
    assert seen == [(seed, (1,))]
    assert f"search seed {seed}\n" in capsys.readouterr().out


def test_cli_search_rejects_more_than_one_seed(cli_cfg_path, tmp_path,
                                               monkeypatch, capsys):
    def stub(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr(runner, "random_search", stub)
    with pytest.raises(SystemExit) as exc:
        main(["search", "--config", cli_cfg_path, "--seeds", "1,2,3",
              "--out", str(tmp_path / "s")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seeds: search takes one seed" in err


def test_cli_search_rejects_budget_below_one(tmp_path, capsys):
    assert main(["search", "--budget", "0", "--out", str(tmp_path)]) == 1
    assert "error: search budget 0 must be >= 1" in capsys.readouterr().err


def test_cli_evaluate_rejects_workers_below_one(tmp_path, capsys):
    assert main(["evaluate", "--workers", "0", "--out", str(tmp_path)]) == 1
    assert "error: workers must be >= 1, got 0" in capsys.readouterr().err


def test_cli_stats_on_empty_directory_fails(tmp_path, capsys):
    assert main(["stats", "--out", str(tmp_path)]) == 1
    assert "no result rows" in capsys.readouterr().err


def test_cli_stats_rejects_alpha_outside_unit_interval(tmp_path, capsys):
    rows = strict_rows()
    for aug in ("worst", "mid", "best"):
        runner.write_metrics_csv(tmp_path / "A" / f"m_{aug}" / "metrics.csv",
                                 [r for r in rows if r["augmentation"] == aug])
    assert main(["stats", "--alpha", "1.5", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: alpha must lie in (0, 1), got 1.5" in captured.err
    assert main(["stats", "--alpha", "0.1", "--out", str(tmp_path)]) == 0
    assert "best group: m best" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["stats", "report"])
def test_cli_rejects_alpha_outside_unit_interval_with_one_method(
        command, tmp_path, capsys):
    runner.write_metrics_csv(tmp_path / "A" / "m_a" / "metrics.csv",
                             ONE_METHOD_ROWS)
    assert main([command, "--alpha", "1.5", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: alpha must lie in (0, 1), got 1.5" in captured.err
    assert not (tmp_path / "report.txt").exists()
    assert main([command, "--alpha", "0.1", "--out", str(tmp_path)]) == 0


def test_cli_missing_data_root_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    rc = main(["split", "--dataset", "USAir", "--out", str(tmp_path)])
    assert rc == 1
    assert DATA_ROOT_ENV in capsys.readouterr().err


def test_cli_names_the_line_of_an_id_outside_int64(tmp_path, monkeypatch,
                                                   capsys):
    path = tmp_path / REGISTRY["USAir"].filename
    path.write_text("0 1\n3 99999999999999999999\n")
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
    rc = main(["split", "--dataset", "USAir", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"{path}:2: id 99999999999999999999 outside int64" in (
        capsys.readouterr().err)


def test_cli_names_an_undecodable_config(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_bytes(b"model = grace\n\xff\n")
    rc = main(["split", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")


@pytest.mark.parametrize("command",
                         ["split", "train", "evaluate", "benchmark", "search"])
def test_cli_unusable_out_fails_before_any_work(command, celegans_root,
                                                cli_cfg_path, tmp_path,
                                                monkeypatch, capsys):
    # evaluate trained seed 1 and then died in write_run_dir; search ran
    # every trial before making its directory
    ran = []

    def spy(*args, **kwargs):
        ran.append(args)

    for name in ("seed_split", "run_single", "validation_objective"):
        monkeypatch.setattr(runner, name, spy)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert main([command, "--config", cli_cfg_path,
                 "--out", str(blocker / "out")]) == 1
    assert ran == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err


@pytest.mark.parametrize("command", ["stats", "report"])
@pytest.mark.parametrize("flag, value", [("--config", "/nonexistent.cfg"),
                                         ("--dataset", "USAir"),
                                         ("--seeds", "9")])
def test_cli_stats_and_report_reject_run_flags(command, flag, value,
                                               tmp_path, capsys):
    # both accepted these flags and ignored them
    with pytest.raises(SystemExit) as info:
        main([command, flag, value, "--out", str(tmp_path)])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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


@pytest.mark.parametrize("seed", [2 ** 32 + 1, -1, 1])
def test_config_rejects_seeds_that_would_alias(seed):
    # derive_seed keeps 32 bits: 2**32 + 1 would replay seed 1, -1 seed 2**32-1
    # and a repeated 1 would overwrite seed 1's directory
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
    def boom(graph, cfg, seed, k=runner.HITS_K):
        raise RuntimeError("encoder exploded")

    monkeypatch.setattr(runner, "run_single", boom)
    assert main(["train", "--config", cli_cfg_path, "--seeds", "5",
                 "--out", str(tmp_path / "ckpt")]) == 1
    err = capsys.readouterr().err
    assert "seed 5: FAILED (Traceback (most recent call last)" in err
    assert "in boom" in err and "RuntimeError: encoder exploded" in err
