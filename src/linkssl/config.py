"""Experiment configuration: tuned-field bounds, flat-file persistence, and
the seeded uniform random search space (25 trials by default).

The file format is flat ``key=value`` lines; augmentation fields use the
``drop_edge_rate_1 ... commu_detect`` key names and encoder fields their own
names. parse(serialize(cfg)) == cfg holds exactly (floats via repr).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .augment import ALL_KINDS, AugmentationSpec
from .models.nets import EncoderConfig
from .seeding import derive_rng

MODELS = ("gcn_supervised", "grace", "bgrl", "lgrace", "lbgrl")
CT_EPOCH_CHOICES = (100, 500, 1500, 3000)
LOSS_FUNCS = ("log_sig", "bce")
DETECTOR_CHOICES = ("louvain", "leiden", "infomap")

DEFAULT_EVAL_SEEDS = tuple(range(1, 11))


def _is_on_grid(value, lo, hi, step):
    if not lo <= value <= hi + 1e-12:
        return False
    ratio = (value - lo) / step
    return abs(ratio - round(ratio)) < 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "USAir"
    model: str = "grace"
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    ct_epochs: int = 500
    batch_size: int = 256
    gnn_lr: float = 1e-3
    pred_lr: float = 1e-3
    proj_hidden: int = 256
    loss_func: str = "bce"
    mask_input: bool = False
    weight_decay: float = 1e-5
    tau: float = 0.5
    ema_decay: float = 0.99
    split_fractions: tuple = (0.70, 0.10, 0.20)
    seeds: tuple = DEFAULT_EVAL_SEEDS

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.ct_epochs not in CT_EPOCH_CHOICES:
            raise ValueError(f"ct_epochs must be one of {CT_EPOCH_CHOICES}")
        if not _is_on_grid(self.batch_size, 256, 6400, 64):
            raise ValueError("batch_size must lie in [256, 6400] step 64")
        for name in ("gnn_lr", "pred_lr"):
            lr = getattr(self, name)
            if not 1e-4 <= lr <= 1e-2:
                raise ValueError(f"{name} must lie in [1e-4, 1e-2]")
        if not _is_on_grid(self.proj_hidden, 64, 512, 64):
            raise ValueError("proj_hidden must lie in [64, 512] step 64")
        if self.loss_func not in LOSS_FUNCS:
            raise ValueError(f"loss_func must be one of {LOSS_FUNCS}")
        if not 1e-6 <= self.weight_decay <= 1e-4:
            raise ValueError("weight_decay must lie in [1e-6, 1e-4]")
        if not _is_on_grid(self.tau, 0.1, 0.9, 0.1):
            raise ValueError("tau must lie in [0.1, 0.9] step 0.1")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in [0, 1)")
        fr = tuple(float(f) for f in self.split_fractions)
        if len(fr) != 3 or abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError("split_fractions must be 3 values summing to 1")
        object.__setattr__(self, "split_fractions", fr)
        object.__setattr__(self, "seeds",
                           tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for seed in self.seeds:
            # derive_seed keeps the low 32 bits: wider seeds would alias
            if not 0 <= seed < 2 ** 32:
                raise ValueError(f"seed {seed} outside [0, 2**32)")

    def label(self):
        """results/ directory label: <model>_<augmentation kind>."""
        return f"{self.model}_{self.augmentation.kind}"


_BOOLS = {"true": True, "false": False}


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def serialize_config(cfg):
    """Flat key=value text; one field per line, stable key order."""
    aug = cfg.augmentation
    enc = cfg.encoder
    pairs = [
        ("dataset", cfg.dataset),
        ("model", cfg.model),
        ("augmentation", aug.kind),
        ("drop_edge_rate_1", aug.drop_edge_rate_1),
        ("drop_edge_rate_2", aug.drop_edge_rate_2),
        ("drop_feature_rate_1", aug.drop_feature_rate_1),
        ("drop_feature_rate_2", aug.drop_feature_rate_2),
        ("commu_detect", aug.detector),
        ("cutoff", aug.cutoff),
        ("n_layers", enc.n_layers),
        ("layer_size", enc.layer_size),
        ("norm", enc.norm),
        ("batchnorm_momentum", enc.batchnorm_momentum),
        ("weight_standardization", enc.weight_standardization),
        ("ct_epochs", cfg.ct_epochs),
        ("batch_size", cfg.batch_size),
        ("gnn_lr", cfg.gnn_lr),
        ("pred_lr", cfg.pred_lr),
        ("proj_hidden", cfg.proj_hidden),
        ("loss_func", cfg.loss_func),
        ("mask_input", cfg.mask_input),
        ("weight_decay", cfg.weight_decay),
        ("tau", cfg.tau),
        ("ema_decay", cfg.ema_decay),
        ("split_fractions", cfg.split_fractions),
        ("seeds", cfg.seeds),
    ]
    return "".join(f"{k}={_fmt(v)}\n" for k, v in pairs)


def parse_config(text):
    """Inverse of serialize_config; '#' comments and blank lines allowed."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()

    def take(key, conv, default=None):
        if key not in raw:
            if default is None:
                raise KeyError(f"missing config key {key!r}")
            return default
        return conv(raw.pop(key))

    def as_bool(s):
        if s.lower() not in _BOOLS:
            raise ValueError(f"expected true/false, got {s!r}")
        return _BOOLS[s.lower()]

    aug = AugmentationSpec(
        kind=take("augmentation", str, "random"),
        drop_edge_rate_1=take("drop_edge_rate_1", float, 0.2),
        drop_edge_rate_2=take("drop_edge_rate_2", float, 0.2),
        drop_feature_rate_1=take("drop_feature_rate_1", float, 0.1),
        drop_feature_rate_2=take("drop_feature_rate_2", float, 0.1),
        detector=take("commu_detect", str, "louvain"),
        cutoff=take("cutoff", float, 0.9),
    )
    enc = EncoderConfig(
        n_layers=take("n_layers", int, 2),
        layer_size=take("layer_size", int, 128),
        norm=take("norm", str, "batch"),
        batchnorm_momentum=take("batchnorm_momentum", float, 0.9),
        weight_standardization=take("weight_standardization", as_bool, False),
    )
    cfg = ExperimentConfig(
        dataset=take("dataset", str, "USAir"),
        model=take("model", str, "grace"),
        augmentation=aug,
        encoder=enc,
        ct_epochs=take("ct_epochs", int, 500),
        batch_size=take("batch_size", int, 256),
        gnn_lr=take("gnn_lr", float, 1e-3),
        pred_lr=take("pred_lr", float, 1e-3),
        proj_hidden=take("proj_hidden", int, 256),
        loss_func=take("loss_func", str, "bce"),
        mask_input=take("mask_input", as_bool, False),
        weight_decay=take("weight_decay", float, 1e-5),
        tau=take("tau", float, 0.5),
        ema_decay=take("ema_decay", float, 0.99),
        split_fractions=take(
            "split_fractions",
            lambda s: tuple(float(f) for f in s.split(",")), (0.7, 0.1, 0.2)),
        seeds=take("seeds",
                   lambda s: tuple(int(f) for f in s.split(",")),
                   DEFAULT_EVAL_SEEDS),
    )
    if raw:
        raise ValueError(f"unknown config keys: {sorted(raw)}")
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))


@dataclass(frozen=True)
class SearchSpace:
    """Uniform sampling ranges for the tuned fields.

    Detectors other than louvain need external partition files, so the
    default search keeps commu_detect fixed; pass detectors=DETECTOR_CHOICES
    to widen it.
    """

    budget: int = 25
    detectors: tuple = ("louvain",)

    def sample(self, base, rng):
        """One uniformly sampled trial config refining `base`."""
        def grid(lo, hi, step):
            return lo + step * int(rng.integers(0, (hi - lo) // step + 1))

        aug = replace(
            base.augmentation,
            drop_edge_rate_1=round(grid(0.0, 0.9, 0.1), 1),
            drop_edge_rate_2=round(grid(0.0, 0.9, 0.1), 1),
            drop_feature_rate_1=round(grid(0.0, 0.9, 0.1), 1),
            drop_feature_rate_2=round(grid(0.0, 0.9, 0.1), 1),
            detector=str(rng.choice(list(self.detectors))),
        )
        enc = EncoderConfig(
            n_layers=int(rng.integers(1, 5)),
            layer_size=grid(64, 512, 64),
            norm=str(rng.choice(["batch", "layer"])),
            batchnorm_momentum=round(grid(0.80, 1.0, 0.01), 2),
            weight_standardization=bool(rng.integers(0, 2)),
        )
        return replace(
            base,
            augmentation=aug,
            encoder=enc,
            ct_epochs=int(rng.choice(CT_EPOCH_CHOICES)),
            batch_size=grid(256, 6400, 64),
            gnn_lr=float(rng.uniform(1e-4, 1e-2)),
            pred_lr=float(rng.uniform(1e-4, 1e-2)),
            proj_hidden=grid(64, 512, 64),
            loss_func=str(rng.choice(LOSS_FUNCS)),
            mask_input=bool(rng.integers(0, 2)),
            weight_decay=float(rng.uniform(1e-6, 1e-4)),
            tau=round(grid(0.1, 0.9, 0.1), 1),
        )

    def trials(self, base, seed):
        """The budgeted list of trial configs for one seeded search."""
        rng = derive_rng(seed, "search")
        return [self.sample(base, rng) for _ in range(self.budget)]
