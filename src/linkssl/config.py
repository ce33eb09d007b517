"""Experiment configuration: tuned-field bounds, flat-file persistence, and
the seeded uniform random search space (25 trials by default).

The file format is flat ``key=value`` lines; augmentation fields use the
``drop_edge_rate_1 ... commu_detect`` key names and encoder fields their own
names. parse(serialize(cfg)) == cfg holds exactly (floats via repr).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .augment import AugmentationSpec
from .datasets import REGISTRY, UNATTRIBUTED_SPLIT
from .graphs import check_split_fractions, read_lines
from .models.nets import EncoderConfig, as_int
from .seeding import derive_rng

MODELS = ("gcn_supervised", "grace", "bgrl", "lgrace", "lbgrl")
CT_EPOCH_CHOICES = (100, 500, 1500, 3000)
LOSS_FUNCS = ("log_sig", "bce")

DEFAULT_EVAL_SEEDS = tuple(range(1, 11))


def _is_on_grid(value, lo, hi, step):
    if not lo <= value <= hi + 1e-12:
        return False
    ratio = (value - lo) / step
    return abs(ratio - round(ratio)) < 1e-9


def default_split(dataset):
    """The registry entry's split of `dataset`; 70/10/20 outside it."""
    info = REGISTRY.get(dataset)
    return info.split_fractions if info else UNATTRIBUTED_SPLIT


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. `split_fractions` left as None takes the registry
    entry of `dataset` (85/5/10 for attributed graphs, 70/10/20 for the
    rest and for names outside the registry); an explicit value wins.
    `dataclasses.replace` keeps the resolved split, so a copy with another
    dataset passes split_fractions=None to take that dataset's default.
    """

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
    split_fractions: tuple | None = None
    seeds: tuple = DEFAULT_EVAL_SEEDS

    def __post_init__(self):
        for name in ("ct_epochs", "batch_size", "proj_hidden"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        object.__setattr__(self, "seeds",
                           tuple(as_int("seeds", s) for s in self.seeds))
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
        if self.split_fractions is None:
            object.__setattr__(self, "split_fractions",
                               default_split(self.dataset))
        object.__setattr__(self, "split_fractions",
                           check_split_fractions(self.split_fractions))
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for i, seed in enumerate(self.seeds):
            # derive_seed keeps the low 32 bits: wider seeds would alias
            if not 0 <= seed < 2 ** 32:
                raise ValueError(f"seed {seed} outside [0, 2**32)")
            if seed in self.seeds[:i]:
                raise ValueError(f"seed {seed} repeats: its runs would "
                                 "share one seed directory")

    def label(self):
        """results/ directory label: <model>_<augmentation kind>."""
        return f"{self.model}_{self.augmentation.kind}"


_BOOLS = {"true": True, "false": False}


def _as_bool(s):
    if s.lower() not in _BOOLS:
        raise ValueError(f"expected true/false, got {s!r}")
    return _BOOLS[s.lower()]


def _tuple_of(conv):
    return lambda s: tuple(conv(f) for f in s.split(","))


# (file key, section of ExperimentConfig holding the field or None for the
# config itself, field name, parser), in file order
_FIELDS = (
    ("dataset", None, "dataset", str),
    ("model", None, "model", str),
    ("augmentation", "augmentation", "kind", str),
    ("drop_edge_rate_1", "augmentation", "drop_edge_rate_1", float),
    ("drop_edge_rate_2", "augmentation", "drop_edge_rate_2", float),
    ("drop_feature_rate_1", "augmentation", "drop_feature_rate_1", float),
    ("drop_feature_rate_2", "augmentation", "drop_feature_rate_2", float),
    ("commu_detect", "augmentation", "detector", str),
    ("cutoff", "augmentation", "cutoff", float),
    ("n_layers", "encoder", "n_layers", int),
    ("layer_size", "encoder", "layer_size", int),
    ("norm", "encoder", "norm", str),
    ("batchnorm_momentum", "encoder", "batchnorm_momentum", float),
    ("weight_standardization", "encoder", "weight_standardization", _as_bool),
    ("ct_epochs", None, "ct_epochs", int),
    ("batch_size", None, "batch_size", int),
    ("gnn_lr", None, "gnn_lr", float),
    ("pred_lr", None, "pred_lr", float),
    ("proj_hidden", None, "proj_hidden", int),
    ("loss_func", None, "loss_func", str),
    ("mask_input", None, "mask_input", _as_bool),
    ("weight_decay", None, "weight_decay", float),
    ("tau", None, "tau", float),
    ("ema_decay", None, "ema_decay", float),
    ("split_fractions", None, "split_fractions", _tuple_of(float)),
    ("seeds", None, "seeds", _tuple_of(int)),
)


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
    lines = []
    for key, section, name, _ in _FIELDS:
        owner = getattr(cfg, section) if section else cfg
        lines.append(f"{key}={_fmt(getattr(owner, name))}\n")
    return "".join(lines)


def parse_config(text):
    """Inverse of serialize_config; '#' comments and blank lines allowed.
    Absent keys take the dataclass defaults, so a file without
    split_fractions gets its dataset's registry split. A value that does
    not parse or repeats an earlier key raises ValueError naming its line."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in raw:
            raise ValueError(f"line {lineno}: key {key!r} repeats line "
                             f"{raw[key][0]}")
        raw[key] = (lineno, value.strip())

    fields = {None: {}, "augmentation": {}, "encoder": {}}
    for key, section, name, conv in _FIELDS:
        if key in raw:
            lineno, value = raw.pop(key)
            try:
                fields[section][name] = conv(value)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {key}={value}: "
                                 f"{exc}") from None
    cfg = ExperimentConfig(
        augmentation=AugmentationSpec(**fields["augmentation"]),
        encoder=EncoderConfig(**fields["encoder"]), **fields[None])
    if raw:
        raise ValueError(f"unknown config keys: {sorted(raw)}")
    return cfg


def load_config(path):
    return parse_config("".join(read_lines(path)))


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))


@dataclass(frozen=True)
class SearchSpace:
    """Uniform sampling ranges for the tuned fields."""

    budget: int = 25

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"search budget {self.budget} must be >= 1")

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
