"""Attentional encoder-decoder with an optional lexicon-biased output softmax.

A bidirectional coupled-gate LSTM encodes the source into per-word columns R;
the decoder LSTM consumes [embed(previous word); previous context], attends
over R (dot product or MLP similarity), and emits the next-word distribution
softmax(W_s eta + b_s), optionally biased by log(L_F a + epsilon) where L_F
is a dense (|V_e|, |F|) slice of the lexical translation probabilities for the
source words.

The model is written once, as graph functions over :class:`GraphParams`.
Everything that depends only on the source sentence (R, the decoder's initial
state, the MLP projection W1_r R and L_F) is built once per model and sentence
by :func:`_source_context`; teacher forcing, sampling, minimum-risk scoring and
beam search all step from that one context.  Training records gradients
through the graph functions; scoring, sampling and search run the same
functions without gradient recording.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .align import LexiconTable
from .corpus import Vocabulary
from .errors import DataError

ATTENTION_KINDS = ("dot", "mlp")

_CHECKPOINT_MAGIC = b"LEXNMT/CKPT/v1\n"


@dataclass
class ModelParams:
    """All named tensors of one encoder-decoder instance plus hyperparameters.

    The decoder hidden width is 2 * d_hid (the concatenated bidirectional
    width), so the encoder's sentence-end state initializes the decoder
    without projection.
    """

    d_emb: int
    d_hid: int
    attn_dim: int
    attention: str
    src_vocab_size: int
    tgt_vocab_size: int
    src_eos: int
    tgt_eos: int
    use_lexicon: bool
    epsilon: float
    tensors: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.attention not in ATTENTION_KINDS:
            raise ValueError(f"unknown attention kind: {self.attention!r}")
        expected = expected_shapes(self)
        for name, shape in expected.items():
            if name not in self.tensors:
                raise DataError(f"tensor '{name}': missing")
            got = self.tensors[name].shape
            if got != shape:
                raise DataError(
                    f"tensor '{name}': expected shape {shape}, found {got}")
        for name in self.tensors:
            if name not in expected:
                raise DataError(f"tensor '{name}': unexpected")
            if not np.all(np.isfinite(self.tensors[name])):
                raise DataError(f"tensor '{name}': non-finite values")

    @property
    def dec_hid(self) -> int:
        return 2 * self.d_hid

    def copy(self) -> "ModelParams":
        return ModelParams(
            d_emb=self.d_emb, d_hid=self.d_hid, attn_dim=self.attn_dim,
            attention=self.attention, src_vocab_size=self.src_vocab_size,
            tgt_vocab_size=self.tgt_vocab_size, src_eos=self.src_eos,
            tgt_eos=self.tgt_eos, use_lexicon=self.use_lexicon,
            epsilon=self.epsilon,
            tensors={k: v.copy() for k, v in self.tensors.items()})

    def hyper_dict(self) -> dict:
        return {
            "d_emb": self.d_emb, "d_hid": self.d_hid,
            "attn_dim": self.attn_dim, "attention": self.attention,
            "src_vocab_size": self.src_vocab_size,
            "tgt_vocab_size": self.tgt_vocab_size,
            "src_eos": self.src_eos, "tgt_eos": self.tgt_eos,
            "use_lexicon": self.use_lexicon, "epsilon": self.epsilon,
        }


def expected_shapes(hp) -> dict[str, tuple[int, ...]]:
    """Canonical tensor-name -> shape map for one hyperparameter setting."""
    d_emb, d_hid = hp.d_emb, hp.d_hid
    dec = 2 * d_hid
    shapes = {
        "src_emb": (hp.src_vocab_size, d_emb),
        "tgt_emb": (hp.tgt_vocab_size, d_emb),
        "enc_fwd_W": (3 * d_hid, d_emb + d_hid),
        "enc_fwd_b": (3 * d_hid,),
        "enc_bwd_W": (3 * d_hid, d_emb + d_hid),
        "enc_bwd_b": (3 * d_hid,),
        "dec_W": (3 * dec, d_emb + dec + dec),
        "dec_b": (3 * dec,),
        "out_W": (dec, dec + dec),
        "out_b": (dec,),
        "softmax_W": (hp.tgt_vocab_size, dec),
        "softmax_b": (hp.tgt_vocab_size,),
    }
    if hp.attention == "mlp":
        shapes["attn_W1"] = (hp.attn_dim, 2 * dec)
        shapes["attn_w2"] = (hp.attn_dim,)
    return shapes


def init_params(src_vocab_size: int, tgt_vocab_size: int, *, d_emb: int = 64,
                d_hid: int = 64, attention: str = "dot", attn_dim: int | None = None,
                use_lexicon: bool = False, epsilon: float = 1e-6,
                src_eos: int = 0, tgt_eos: int = 0, seed: int = 0,
                init_scale: float = 0.08) -> ModelParams:
    """Fresh parameters with uniform(-init_scale, init_scale) weights, zero biases."""
    if attention not in ATTENTION_KINDS:
        raise ValueError(f"unknown attention kind: {attention!r}")
    hyper = dict(d_emb=d_emb, d_hid=d_hid, attention=attention,
                 attn_dim=attn_dim if attn_dim is not None else d_hid,
                 src_vocab_size=src_vocab_size, tgt_vocab_size=tgt_vocab_size)
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in expected_shapes(SimpleNamespace(**hyper)).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.uniform(-init_scale, init_scale, shape)
    return ModelParams(**hyper, src_eos=src_eos, tgt_eos=tgt_eos,
                       use_lexicon=use_lexicon, epsilon=epsilon, tensors=tensors)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

class GraphParams:
    """Parameters wrapped as graph leaves for one forward/backward pass."""

    def __init__(self, params: ModelParams):
        self.hp = params
        self.t = {name: ad.Tensor(arr) for name, arr in params.tensors.items()}
        if params.attention == "mlp":
            dec = params.dec_hid
            self.w1_h = ad.cols_slice(self.t["attn_W1"], 0, dec)
            self.w1_r = ad.cols_slice(self.t["attn_W1"], dec, 2 * dec)

    def grads(self) -> dict[str, np.ndarray]:
        return {name: (t.grad if t.grad is not None else np.zeros_like(t.value))
                for name, t in self.t.items()}


@dataclass
class DecoderState:
    """Decoder hidden and cell state and the last attention context."""

    hidden: ad.Tensor
    cell: ad.Tensor
    context: ad.Tensor


@dataclass
class _EncGraph:
    """Per-sentence source context of one model, shared by every decoder step."""

    R: ad.Tensor
    init_state: ad.Tensor
    mlp_proj: ad.Tensor | None = None  # W1[:, r-part] @ R for MLP attention
    lexicon_matrix: np.ndarray | None = None  # dense L_F; None: no bias


def _lstm_g(W, b, x, h, c):
    """Coupled-gate LSTM: the forget gate is one minus the input gate."""
    n = h.value.shape[0]
    z = ad.add(ad.matvec(W, ad.concat([x, h])), b)
    i = ad.sigmoid(ad.vec_slice(z, 0, n))
    o = ad.sigmoid(ad.vec_slice(z, n, 2 * n))
    g = ad.tanh(ad.vec_slice(z, 2 * n, 3 * n))
    c_new = ad.add(ad.mul(ad.one_minus(i), c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


def _encode_g(gp: GraphParams, F) -> _EncGraph:
    hp = gp.hp
    if len(F) == 0:
        raise ValueError("cannot encode an empty sentence")
    for f in F:
        if not (0 <= f < hp.src_vocab_size):
            raise ValueError(f"source id {f} outside vocabulary")
    emb = gp.t["src_emb"]
    xs = [ad.row(emb, f) for f in F]
    x_eos = ad.row(emb, hp.src_eos)
    Wf, bf = gp.t["enc_fwd_W"], gp.t["enc_fwd_b"]
    Wb, bb = gp.t["enc_bwd_W"], gp.t["enc_bwd_b"]
    zero = np.zeros(hp.d_hid)

    h, c = ad.Tensor(zero), ad.Tensor(zero)
    fwd = []
    for x in xs:
        h, c = _lstm_g(Wf, bf, x, h, c)
        fwd.append(h)
    fwd_final, _ = _lstm_g(Wf, bf, x_eos, h, c)

    h, c = ad.Tensor(zero), ad.Tensor(zero)
    bwd = [None] * len(xs)
    for j in range(len(xs) - 1, -1, -1):
        h, c = _lstm_g(Wb, bb, xs[j], h, c)
        bwd[j] = h
    bwd_final, _ = _lstm_g(Wb, bb, x_eos, h, c)

    cols = [ad.concat([bwd[j], fwd[j]]) for j in range(len(xs))]
    R = ad.stack_cols(cols)
    init_state = ad.concat([bwd_final, fwd_final])
    proj = ad.matmat(gp.w1_r, R) if hp.attention == "mlp" else None
    return _EncGraph(R, init_state, proj)


def _source_context(gp: GraphParams, F, lexicon) -> _EncGraph:
    """Encode F and attach its L_F: the one build of a sentence's context."""
    enc = _encode_g(gp, F)
    enc.lexicon_matrix = _lexicon_matrix(gp.hp, F, lexicon)
    return enc


def _attend_g(gp: GraphParams, h, enc: _EncGraph):
    if enc.mlp_proj is None:
        scores = ad.matTvec(enc.R, h)
    else:
        m = ad.tanh(ad.addcol(enc.mlp_proj, ad.matvec(gp.w1_h, h)))
        scores = ad.matTvec(m, gp.t["attn_w2"])
    a = ad.softmax_vec(scores)
    return a, ad.matvec(enc.R, a)


def _init_state_g(gp: GraphParams, enc: _EncGraph) -> DecoderState:
    zero = np.zeros(gp.hp.dec_hid)
    return DecoderState(enc.init_state, ad.Tensor(zero), ad.Tensor(zero))


def _decoder_step_g(gp: GraphParams, prev_word: int, state: DecoderState,
                    enc: _EncGraph):
    """One decoder step; returns (new state, logits tensor, attention tensor)."""
    x = ad.concat([ad.row(gp.t["tgt_emb"], prev_word), state.context])
    h, c = _lstm_g(gp.t["dec_W"], gp.t["dec_b"], x, state.hidden, state.cell)
    a, ctx = _attend_g(gp, h, enc)
    eta = ad.add(ad.matvec(gp.t["out_W"], ad.concat([h, ctx])), gp.t["out_b"])
    logits = ad.add(ad.matvec(gp.t["softmax_W"], eta), gp.t["softmax_b"])
    if enc.lexicon_matrix is not None:
        p_lex = ad.const_matvec(enc.lexicon_matrix, a)
        logits = ad.add(logits, ad.log_add_eps(p_lex, gp.hp.epsilon))
    return DecoderState(h, c, ctx), logits, a


def _step_probs(gp: GraphParams, prev_word: int, state: DecoderState,
                enc: _EncGraph):
    """One decoder step as (new state, next-word probability array)."""
    state, logits, _ = _decoder_step_g(gp, prev_word, state, enc)
    return state, ad.softmax_vec(logits).value


def _teacher_forced_g(gp: GraphParams, enc: _EncGraph, E):
    """Yield the logits of each step of E, feeding the reference words."""
    if not all(0 <= e < gp.hp.tgt_vocab_size for e in E):
        raise ValueError(f"target id outside vocabulary in {list(E)}")
    state = _init_state_g(gp, enc)
    prev = gp.hp.tgt_eos
    for e in E:
        state, logits, _ = _decoder_step_g(gp, prev, state, enc)
        yield logits
        prev = e


def _sentence_logprob_g(gp: GraphParams, enc: _EncGraph, E):
    """Teacher-forced log-probability of E (which must end with the eos id)."""
    terms = [ad.pick(ad.log_softmax_vec(logits), e)
             for e, logits in zip(E, _teacher_forced_g(gp, enc, E))]
    return ad.sumall(ad.stack_scalars(terms))


def _as_model_list(models) -> list[ModelParams]:
    """One model, or a non-empty ensemble sharing one target vocabulary."""
    if isinstance(models, ModelParams):
        return [models]
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    if len({(m.tgt_vocab_size, m.tgt_eos) for m in models}) > 1:
        raise ValueError("ensemble members have a mismatched target vocabulary")
    return models


def _lexicon_matrix(params: ModelParams, F, lexicon):
    """L_F of one source sentence for one model, or None without a table.

    A lexicon-trained model without a table would silently score unbiased,
    so that mismatch is an error.
    """
    if lexicon is None:
        if params.use_lexicon:
            raise ValueError(
                "model was trained with lexicon bias; a lexicon table is required")
        return None
    if params.epsilon <= 0:
        raise ValueError(
            "lexicon bias requires epsilon > 0 to prevent zero probabilities "
            "from becoming -inf under the log")
    return build_lexicon_matrix(F, lexicon, params.tgt_vocab_size)


def _length_cap(F, max_len: int | None) -> int:
    """``max_len``, or the default cap 2*|F| + 10 on hypotheses and samples."""
    return 2 * len(F) + 10 if max_len is None else max_len


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def build_lexicon_matrix(F, table: LexiconTable, tgt_vocab) -> np.ndarray:
    """Dense (|V_e|, |F|) matrix; column j holds p(e | f_j), zero if unknown."""
    size = tgt_vocab if isinstance(tgt_vocab, int) else len(tgt_vocab)
    L = np.zeros((size, len(F)))
    for j, f in enumerate(F):
        dist = table.entries.get(f, {})
        if not all(0 <= e < size for e in dist):
            raise ValueError(f"lexicon entry of source id {f} outside the "
                             "target vocabulary")
        L[list(dist), j] = list(dist.values())
    return L


def ensemble_distribution(distributions) -> np.ndarray:
    """Arithmetic mean of per-model next-word distributions."""
    distributions = [np.asarray(d, dtype=float) for d in distributions]
    if not distributions:
        raise ValueError("need at least one distribution")
    if any(d.shape != distributions[0].shape for d in distributions):
        raise ValueError("ensemble members have mismatched vocabulary sizes")
    return sum(distributions) / len(distributions)


def sentence_logprob(models, F, E, lexicon: LexiconTable | None = None) -> float:
    """Teacher-forced log p(E | F); ensembles average per-step probabilities.

    ``E`` must end with the target sentence-end id.
    """
    models = _as_model_list(models)
    if not E or E[-1] != models[0].tgt_eos:
        raise ValueError("E must end with the sentence-end id")
    with ad.no_grad():
        gps = [GraphParams(m) for m in models]
        steps = [_teacher_forced_g(gp, _source_context(gp, F, lexicon), E)
                 for gp in gps]
        total = 0.0
        for e, *logits in zip(E, *steps):
            probs = ensemble_distribution([ad.softmax_vec(lg).value
                                           for lg in logits])
            total += float(np.log(probs[e]))
    return total


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams, src_vocab: Vocabulary,
                    tgt_vocab: Vocabulary):
    """Write a versioned, byte-deterministic container of the full model."""
    names = sorted(params.tensors)
    header = {
        "hyper": params.hyper_dict(),
        "src_vocab": src_vocab.tokens,
        "tgt_vocab": tgt_vocab.tokens,
        "tensors": [{"name": n, "shape": list(params.tensors[n].shape)}
                    for n in names],
    }
    blob = b"".join(np.ascontiguousarray(params.tensors[n], dtype="<f8").tobytes()
                    for n in names)
    with open(path, "wb") as f:
        f.write(_CHECKPOINT_MAGIC)
        f.write(json.dumps(header, sort_keys=True,
                           separators=(",", ":")).encode("utf-8"))
        f.write(b"\n")
        f.write(blob)


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, src Vocabulary, tgt Vocabulary)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from e
    if not raw.startswith(_CHECKPOINT_MAGIC):
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    rest = raw[len(_CHECKPOINT_MAGIC):]
    try:
        header_bytes, blob = rest.split(b"\n", 1)
        header = json.loads(header_bytes)
    except (ValueError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt checkpoint header") from e
    _check_header(path, header)
    hyper = header["hyper"]
    tensors = {}
    offset = 0
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise DataError(
                f"{path}: tensor '{entry['name']}': truncated data")
        tensors[entry["name"]] = np.frombuffer(
            blob[offset:offset + nbytes], dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise DataError(f"{path}: trailing bytes after tensor data")
    params = ModelParams(tensors=tensors, **hyper)
    return (params, Vocabulary(header["src_vocab"]),
            Vocabulary(header["tgt_vocab"]))


_HYPER_TYPES = {f.name: {"int": int, "str": str, "bool": bool,
                         "float": (int, float)}[f.type]
                for f in fields(ModelParams) if f.name != "tensors"}


def _check_header(path, header):
    """Raise DataError unless the parsed header has the layout save writes."""
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    for key in ("hyper", "tensors", "src_vocab", "tgt_vocab"):
        if key not in header:
            raise DataError(f"{path}: checkpoint header lacks '{key}'")
    hyper = header["hyper"]
    if not (isinstance(hyper, dict) and set(hyper) == set(_HYPER_TYPES)
            and all(isinstance(hyper[k], t) for k, t in _HYPER_TYPES.items())):
        raise DataError(f"{path}: checkpoint hyperparameters must be exactly "
                        f"{sorted(_HYPER_TYPES)}, typed as in ModelParams")
    for key in ("src_vocab", "tgt_vocab"):
        if not (isinstance(header[key], list)
                and all(isinstance(t, str) for t in header[key])):
            raise DataError(f"{path}: '{key}' must be a list of tokens")
    entries = header["tensors"]
    if not isinstance(entries, list) or not all(
            isinstance(t, dict) and isinstance(t.get("name"), str)
            and isinstance(t.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in t["shape"])
            for t in entries):
        raise DataError(f"{path}: tensor entries need a string name and a "
                        "shape of non-negative integers")
