"""The benchmark's workloads: one fixed (model, augmentation, twin) each.

Every workload trains for the smallest allowed encoder budget
(ct_epochs=100), then the fixed 100-epoch decoder at the default batch of
256, and evaluates, exactly as `run_experiment` does for a user.
"""

from __future__ import annotations

from dataclasses import dataclass

TRAIN_SEED = 1  # the run seed handed to run_experiment in every repeat
CT_EPOCHS = 100  # the smallest encoder budget the config accepts


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    model: str
    augmentation: str
    auc_floor: float  # correctness gate; README.md says how it was set
    why: str

    def config(self):
        from linkssl.augment import AugmentationSpec
        from linkssl.config import ExperimentConfig

        return ExperimentConfig(
            dataset=self.dataset, model=self.model,
            augmentation=AugmentationSpec(kind=self.augmentation),
            ct_epochs=CT_EPOCHS, seeds=(TRAIN_SEED,))


WORKLOADS = {w.name: w for w in (
    Workload(
        "usair-grace", "USAir", "grace", "random", auc_floor=0.70,
        why="node-level InfoNCE on the USAir twin; the decoder's per-batch "
            "negative sampler is about a quarter of the seed"),
    Workload(
        "usair-lgrace", "USAir", "lgrace", "random", auc_floor=0.70,
        why="link-level InfoNCE over ~950 shared links per epoch on the "
            "USAir twin: dense k x k autodiff sets time and peak memory"),
    Workload(
        "ns-bgrl-sbm", "NS", "bgrl", "sbm", auc_floor=0.35,
        why="BGRL with SBM views on the sparse NS twin: Louvain, per-epoch "
            "SBM sampling and sparse encoder passes; no InfoNCE at all"),
)}
