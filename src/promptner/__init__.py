"""Open-type span NER by entity-type prompt matching.

A bidirectional encoder embeds natural-language entity-type prompts and
text spans into a shared latent space; spans are labeled by thresholded
sigmoid matching scores and selected greedily under flat or nested
constraints. Everything runs on a small from-scratch autodiff core.
"""

from . import tensor
from .decoder import DecodeConfig, EntityMention, decode
from .encoder import EncoderConfig
from .evaluation import EvalReport, score
from .matcher import ScoreTable, enumerate_spans
from .model import Model, ModelConfig
from .prompt import EncodedPrompt, build_prompt, chunk_types
from .tokenizer import Vocab, build_vocab, segment
from .trainer import TrainConfig, TrainingExample, fit

__all__ = [
    "tensor", "DecodeConfig", "EntityMention", "decode", "EncoderConfig",
    "EvalReport", "score", "ScoreTable", "enumerate_spans",
    "Model", "ModelConfig", "EncodedPrompt", "build_prompt", "chunk_types",
    "Vocab", "build_vocab", "segment", "TrainConfig", "TrainingExample", "fit",
]

__version__ = "0.1.0"
