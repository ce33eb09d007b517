"""Encoders, projection heads, contrastive losses, and training loops."""

from .losses import bgrl_loss, grace_loss, lgrace_loss, select_link_sets
from .nets import (Decoder, EncoderConfig, GCNEncoder, LinkMLP, MLP,
                   Predictor, Projector, hadamard_pairs, link_representation)
from .training import (DECODER_EPOCHS, SELF_SUPERVISED, TrainState, embed,
                       predict_scores, train_decoder, train_encoder,
                       train_supervised_gcn)

__all__ = [
    "bgrl_loss", "grace_loss", "lgrace_loss", "select_link_sets", "Decoder",
    "EncoderConfig", "GCNEncoder", "LinkMLP", "MLP", "Predictor", "Projector",
    "hadamard_pairs", "link_representation", "DECODER_EPOCHS",
    "SELF_SUPERVISED", "TrainState", "embed", "predict_scores",
    "train_decoder", "train_encoder", "train_supervised_gcn",
]
