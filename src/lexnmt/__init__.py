"""Attentional neural machine translation with discrete lexicon bias.

Desk-scale implementation: bidirectional coupled-gate LSTM encoder, attentional
decoder whose output softmax can be biased by IBM Model 1 lexical translation
probabilities, maximum-likelihood and minimum-risk training, and beam-search
decoding with a word penalty and probability-averaged ensembles.
"""

__version__ = "0.1.0"

from .align import LexiconTable, ibm1_train, load_lexicon, prune_lexicon, save_lexicon
from .corpus import (BpeModel, SentencePair, Vocabulary, apply_bpe, build_vocab,
                     encode_pairs, invert_bpe, learn_bpe, make_minibatches,
                     normalize_halfwidth)
from .decode import (Hypothesis, beam_search, ensemble_distribution,
                     score_hypothesis, translate)
from .errors import DataError, NumericalError
from .metrics import bleu, length_ratio, mrt_error, sbleu
from .model import (ModelParams, build_lexicon_matrix, init_params,
                    load_checkpoint, save_checkpoint, sentence_logprob)
from .train import (MrtSettings, TrainConfig, adam_update, clip_gradients,
                    mrt_loss, mrt_loss_frozen, nll_loss, sample_translations,
                    train_ml, train_mrt)

__all__ = [
    "BpeModel", "DataError", "Hypothesis", "LexiconTable", "ModelParams",
    "MrtSettings", "NumericalError", "SentencePair", "TrainConfig",
    "Vocabulary", "adam_update", "apply_bpe", "beam_search", "bleu",
    "build_lexicon_matrix", "build_vocab", "clip_gradients", "encode_pairs",
    "ensemble_distribution", "ibm1_train", "init_params", "invert_bpe",
    "learn_bpe", "length_ratio", "load_checkpoint", "load_lexicon",
    "make_minibatches", "mrt_error", "mrt_loss", "mrt_loss_frozen",
    "nll_loss", "normalize_halfwidth", "prune_lexicon",
    "sample_translations", "save_checkpoint", "save_lexicon", "sbleu",
    "score_hypothesis", "sentence_logprob", "train_ml", "train_mrt",
    "translate",
]
