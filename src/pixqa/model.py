"""Patch-transformer encoder-decoder for single-page visual question answering.

The encoder turns the fused question+page patch sequence into a contextual
feature matrix; the decoder generates the answer character by character with
cross-attention over that feature. Decoding is incremental: a
``DecoderCache`` holds the feature's cross-attention K/V, projected once per
answer, and each layer's self-attention K/V rows, so a greedy step runs the
decoder on the one new token. Teacher forcing runs the same per-layer code
on every token at once. Every grid and feature is a stack of pages along a
leading axis, a single page a stack of one, and each page is computed as
it would be in a stack of its own. Deliberately small: the retrieval
mechanism built on top is backbone-agnostic, so a desk-scale transformer
stands in for a large pretrained one.
"""

from __future__ import annotations

import string
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import BudgetError, ConfigError, NumericError
from .layers import (
    ParamEntry,
    apply_layer_norm,
    attend,
    attention_table,
    ffn,
    ffn_table,
    glorot,
    init_params,
    linear,
    multi_head_attention,
    norm_table,
    normal,
    project_kv,
    zeros,
)
from .render import PatchGrid

PRINTABLE_ASCII = string.printable[:-5]  # digits+letters+punctuation+space, no control chars

PAD, BOS, EOS = 0, 1, 2
N_SPECIALS = 3

NEG_MASK = -1e30


class Vocab:
    """Character vocabulary with PAD/BOS/EOS bookkeeping."""

    def __init__(self, chars: str):
        if len(set(chars)) != len(chars):
            raise ConfigError("vocabulary characters must be unique")
        if not chars:
            raise ConfigError("vocabulary must contain at least one character")
        self.chars = chars
        self._to_id = {ch: i + N_SPECIALS for i, ch in enumerate(chars)}

    @property
    def size(self) -> int:
        return len(self.chars) + N_SPECIALS

    def encode_answer(self, text: str) -> np.ndarray:
        """Character ids followed by EOS."""
        try:
            ids = [self._to_id[ch] for ch in text]
        except KeyError as exc:
            raise ValueError(f"character {exc.args[0]!r} not in vocabulary") from None
        return np.array(ids + [EOS], dtype=np.intp)

    def decode(self, ids) -> str:
        out = []
        for i in ids:
            if i == EOS:
                break
            if i >= N_SPECIALS:
                out.append(self.chars[i - N_SPECIALS])
        return "".join(out)


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 256
    patch_size: int = 16
    max_patches: int = 2048
    vocab_chars: str = PRINTABLE_ASCII
    max_answer_len: int = 32
    seed: int = 0

    def __post_init__(self):
        sizes = (self.d_model, self.n_heads, self.n_enc_layers, self.n_dec_layers, self.d_ff,
                 self.max_answer_len, self.patch_size, self.max_patches)
        if min(sizes) < 1:
            raise ConfigError("widths, head and layer counts, lengths and sizes must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        Vocab(self.vocab_chars)  # validates uniqueness


def _causal_mask(n: int, past: int) -> np.ndarray | None:
    """Additive mask for ``n`` query rows at positions ``past``.. over keys 0..past+n-1.

    None for a single row: the newest token may see every key.
    """
    return None if n == 1 else np.triu(np.full((n, past + n), NEG_MASK), k=past + 1)


@dataclass
class DecoderCache:
    """One answer's decoder state.

    ``cross`` holds each layer's cross-attention K/V of the encoder feature,
    projected once per answer. ``self_kv`` holds each layer's self-attention
    K/V of the ``length`` tokens decoded so far, (length, n_heads, head_dim)
    each, or None before the first token.
    """

    cross: list[tuple[Tensor, Tensor]]
    self_kv: list[tuple[Tensor, Tensor] | None]
    length: int = 0


class VqaModel:
    """Encoder-decoder over patch sequences with character-level decoding."""

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor] | None = None):
        self.cfg = cfg
        self.vocab = Vocab(cfg.vocab_chars)
        self.params = params if params is not None else init_params(self.param_table(cfg), cfg.seed)

    @staticmethod
    def param_table(cfg: ModelConfig) -> Iterator[ParamEntry]:
        """Name, shape and initializer of every parameter, in draw order, allocating nothing."""
        d, d_ff, n_vocab = cfg.d_model, cfg.d_ff, Vocab(cfg.vocab_chars).size
        # Position tables are initialized at a scale comparable to projected
        # patch content, so position-keyed attention is available early.
        yield from [("embed.proj_w", (cfg.patch_size**2, d), glorot), ("embed.proj_b", (d,), zeros),
                    ("embed.row_emb", (cfg.max_patches, d), normal(0.3)), ("embed.col_emb", (cfg.max_patches, d), normal(0.3))]
        for i in range(cfg.n_enc_layers):
            yield from (norm_table(f"enc.{i}.ln1", d) + attention_table(f"enc.{i}.attn", d)
                        + norm_table(f"enc.{i}.ln2", d) + ffn_table(f"enc.{i}.ffn", d, d_ff))
        yield from norm_table("enc.final_ln", d)
        yield from [("dec.tok_emb", (n_vocab, d), normal(0.3)), ("dec.pos_emb", (cfg.max_answer_len + 1, d), normal(0.3))]
        for i in range(cfg.n_dec_layers):
            yield from (norm_table(f"dec.{i}.ln1", d) + attention_table(f"dec.{i}.self_attn", d)
                        + norm_table(f"dec.{i}.ln2", d) + attention_table(f"dec.{i}.cross_attn", d)
                        + norm_table(f"dec.{i}.ln3", d) + ffn_table(f"dec.{i}.ffn", d, d_ff))
        yield from norm_table("dec.final_ln", d)
        yield from [("dec.out_w", (d, n_vocab), glorot), ("dec.out_b", (n_vocab,), zeros)]

    # ----- encoder -----

    def embed_patches(self, grid: PatchGrid) -> Tensor:
        """Affine projection of each patch plus learned row and column embeddings: (pages, n_patches, d_model).

        Patch values are recentered so the white background maps to zero;
        this removes the large shared component an all-ones background would
        otherwise inject into every embedding (a fixed bias absorbed into
        the affine map).
        """
        cfg = self.cfg
        if grid.n_patches > cfg.max_patches:
            raise BudgetError(f"grid has {grid.n_patches} patches, budget is {cfg.max_patches}")
        if grid.patch_size != cfg.patch_size:
            raise ConfigError(f"grid patch size {grid.patch_size} != model patch size {cfg.patch_size}")
        # Position indices get the patches' page axis too, so a stack's
        # position gradients are added one page at a time.
        rows, cols = (np.broadcast_to(idx, grid.patches.shape[:-1]) for idx in grid.row_col_indices())
        p = self.params
        projected = linear(Tensor(grid.patches - 1.0), p["embed.proj_w"], p["embed.proj_b"])
        return projected + ag.take_rows(p["embed.row_emb"], rows) + ag.take_rows(p["embed.col_emb"], cols)

    def encode(self, embeddings: Tensor) -> Tensor:
        """Encode a (pages, length, d_model) stack of embeddings.

        The feature is the final layer norm's output, shaped like the
        embeddings. Each page of a stack is computed as it would be in a
        stack of its own, so its feature is bit-identical.
        """
        if embeddings.shape[-2] < 1:
            raise ValueError("cannot encode an empty embedding sequence")
        cfg, p = self.cfg, self.params
        x = embeddings
        for i in range(cfg.n_enc_layers):
            a = apply_layer_norm(x, p, f"enc.{i}.ln1")
            x = x + multi_head_attention(a, a, p, f"enc.{i}.attn", cfg.n_heads)
            b = apply_layer_norm(x, p, f"enc.{i}.ln2")
            x = x + ffn(b, p, f"enc.{i}.ffn")
            if not np.isfinite(x.data).all():
                raise NumericError(f"encoder layer {i} produced non-finite values")
        return apply_layer_norm(x, p, "enc.final_ln")

    def encode_grid(self, grid: PatchGrid) -> Tensor:
        """Encode a grid's pages at once."""
        return self.encode(self.embed_patches(grid))

    # ----- decoder -----

    def decoder_cache(self, feature: Tensor) -> DecoderCache:
        """An empty cache for decoding from a (pages, length, d_model) ``feature``: its cross-attention K/V per layer."""
        if feature.data.ndim != 3:
            raise ValueError(f"a feature is a (pages, length, d_model) stack, got shape {feature.shape}")
        cfg, p = self.cfg, self.params
        cross = [project_kv(feature, p, f"dec.{i}.cross_attn", cfg.n_heads) for i in range(cfg.n_dec_layers)]
        return DecoderCache(cross, [None] * cfg.n_dec_layers)

    def _decode_logits(self, tokens_in: np.ndarray, cache: DecoderCache) -> Tensor:
        """Logits for ``tokens_in``, the tokens that follow the ``cache.length`` already decoded.

        One decoder path for both uses: teacher forcing feeds every token to
        an empty cache under a causal mask, and greedy decoding feeds one
        token per step, whose query sees every cached key. Each layer's
        self-attention K/V of ``tokens_in`` are appended to the cache.
        ``tokens_in`` is (pages, n), one row of tokens per page of the
        cache's feature.
        """
        cfg, p = self.cfg, self.params
        n, past = tokens_in.shape[-1], cache.length
        positions = np.broadcast_to(np.arange(past, past + n), tokens_in.shape)
        x = ag.take_rows(p["dec.tok_emb"], tokens_in) + ag.take_rows(p["dec.pos_emb"], positions)
        mask = _causal_mask(n, past)
        for i in range(cfg.n_dec_layers):
            a = apply_layer_norm(x, p, f"dec.{i}.ln1")
            kv = project_kv(a, p, f"dec.{i}.self_attn", cfg.n_heads)
            if cache.self_kv[i] is not None:
                kv = tuple(ag.concat_rows([old, new], axis=-3) for old, new in zip(cache.self_kv[i], kv))
            cache.self_kv[i] = kv
            x = x + attend(a, *kv, p, f"dec.{i}.self_attn", cfg.n_heads, mask=mask)
            b = apply_layer_norm(x, p, f"dec.{i}.ln2")
            x = x + attend(b, *cache.cross[i], p, f"dec.{i}.cross_attn", cfg.n_heads)
            c = apply_layer_norm(x, p, f"dec.{i}.ln3")
            x = x + ffn(c, p, f"dec.{i}.ffn")
        cache.length += n
        x = apply_layer_norm(x, p, "dec.final_ln")
        return linear(x, p["dec.out_w"], p["dec.out_b"])

    def vqa_loss(self, feature: Tensor, answers: Sequence[str]) -> Tensor:
        """Token-level cross-entropy of teacher-forced decoding, averaged over each answer's tokens.

        A (pages, length, d_model) feature takes a list of one answer per
        page and gives one loss per page, (pages,), in one decoder call:
        the answers are padded with PAD to the longest, the causal mask
        keeps the padding out of every real token's logits, and each
        answer's tokens are weighted by 1/its length (characters plus EOS).
        A stack whose answers have equal length gives each page the loss
        and gradients of its one-page stack, bit for bit; with mixed
        lengths the padding changes sums' rounding only (within 1e-12).
        """
        if isinstance(answers, str) or len(answers) != feature.shape[0]:
            raise ValueError(f"a stack of {feature.shape[0]} pages takes a list of one answer per page: {answers!r}")
        for text in answers:
            if len(text) > self.cfg.max_answer_len:
                raise ValueError(f"answer length {len(text)} exceeds max_answer_len {self.cfg.max_answer_len}")
        targets = [self.vocab.encode_answer(text) for text in answers]
        lengths = np.array([len(t) for t in targets])
        target = np.full((len(targets), lengths.max()), PAD, dtype=np.intp)
        for row, ids in zip(target, targets):
            row[: len(ids)] = ids
        tokens_in = np.concatenate((np.full((len(targets), 1), BOS), target[:, :-1]), axis=1)
        logits = self._decode_logits(tokens_in, self.decoder_cache(feature))
        log_probs = ag.log_softmax_last(logits)
        onehot = (target[..., None] == np.arange(self.vocab.size)) & (target != PAD)[..., None]
        picked = ag.sum_axis(ag.mul(log_probs, onehot.astype(np.float64)), axis=-1)
        return -ag.mul(ag.sum_axis(picked, axis=-1), 1.0 / lengths)

    def generate_answer(self, feature: Tensor, max_answer_len: int | None = None) -> str:
        """Greedy decoding of a one-page feature's answer from BOS until EOS or the length cap."""
        return self.generate_answers(feature, max_answer_len)[0]

    def generate_answers(self, feature: Tensor, max_answer_len: int | None = None) -> list[str]:
        """Greedy decoding of one answer per page of a (pages, length, d_model) feature.

        Each answer runs from BOS until its own EOS or the length cap, one
        token per step; a stack steps all its pages together until every
        answer has stopped, and a page's logits are those it would get in a
        stack of its own. The cross-attention K/V are projected once per
        answer and each step adds one row to every layer's self-attention
        cache, so a step runs the decoder on one row per page. Raises NumericError when
        a step's logits are not finite for an answer still being decoded:
        an argmax over NaN would pick PAD, which decodes to nothing, and
        pass for an empty answer.
        """
        limit = self.cfg.max_answer_len if max_answer_len is None else min(max_answer_len, self.cfg.max_answer_len)
        n_pages = feature.shape[0]
        ids: list[list[int]] = [[] for _ in range(n_pages)]
        running = np.ones(n_pages, dtype=bool)
        tokens = np.full((n_pages, 1), BOS, dtype=np.intp)
        with ag.no_grad():
            cache = self.decoder_cache(feature)
            for step in range(limit):
                logits = self._decode_logits(tokens, cache).data[:, -1, :]
                if not np.isfinite(logits).all() and not np.isfinite(logits[running]).all():
                    raise NumericError(f"decoder step {step} produced non-finite logits")
                nxt = logits.argmax(axis=-1)
                running &= nxt != EOS
                if not running.any():
                    break
                for page in np.flatnonzero(running):
                    ids[page].append(int(nxt[page]))
                tokens = nxt[:, None]
        return [self.vocab.decode(page_ids) for page_ids in ids]


def parameter_gradients(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Backpropagate and collect one gradient per named parameter.

    Parameters the loss does not depend on get an exactly-zero gradient.
    Raises NumericError if the loss or any gradient is non-finite.
    """
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is non-finite")
    loss.backward()
    grads: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"gradient for {name} is non-finite")
        grads[name] = g
    return grads
