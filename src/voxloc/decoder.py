"""Scene-agnostic cross-attention decoder over per-voxel code banks.

A trainable linear encoder embeds raw keypoint descriptors, T stacked
cross-attention blocks attend over the voxel's scaled codes, and a small
head emits a local 3D coordinate plus an in-voxel confidence logit.
Single-head attention, post-norm residual blocks, logits scaled by 1/sqrt(D).
decode reads a map only through bank_keys, each block's live keys and values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import BinaryIO

import numpy as np

from . import diffcore as dc
from .containers import FormatError, Reader, Writer
from .diffcore import DTensor, MLP
from .scene import CodeBank

WEIGHTS_MAGIC = b"NMWT"
WEIGHTS_FORMAT_VERSION = 1


@dataclass
class BlockParams:
    wq: DTensor
    wk: DTensor
    wv: DTensor
    mlp: MLP
    ln1_gain: DTensor
    ln1_bias: DTensor
    ln2_gain: DTensor
    ln2_bias: DTensor

    def parameters(self) -> list[DTensor]:
        return ([self.wq, self.wk, self.wv] + self.mlp.parameters()
                + [self.ln1_gain, self.ln1_bias, self.ln2_gain, self.ln2_bias])


class DecoderParams:
    """All scene-agnostic weights: encoder, attention blocks, output head."""

    def __init__(self, encoder: MLP, blocks: list[BlockParams], head: MLP,
                 d_raw: int, d: int, block_hidden: int, head_hidden: int):
        self.encoder = encoder
        self.blocks = blocks
        self.head = head
        self.d_raw = d_raw
        self.d = d
        self.block_hidden = block_hidden
        self.head_hidden = head_hidden

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @classmethod
    def init(cls, rng: np.random.Generator, d_raw: int = 64, d: int = 32,
             num_blocks: int = 6, block_hidden: int = 32,
             head_hidden: int = 32) -> "DecoderParams":
        # a single linear layer preserves descriptor similarity structure
        # exactly (a hidden ReLU layer does not)
        encoder = MLP.init([d_raw, d], rng, prefix="encoder")
        blocks = []
        bound = np.sqrt(6.0 / (d + d))
        for t in range(num_blocks):
            blocks.append(BlockParams(
                wq=DTensor(rng.uniform(-bound, bound, (d, d)),
                           name=f"block.{t}.wq"),
                wk=DTensor(rng.uniform(-bound, bound, (d, d)),
                           name=f"block.{t}.wk"),
                wv=DTensor(rng.uniform(-bound, bound, (d, d)),
                           name=f"block.{t}.wv"),
                mlp=MLP.init([d, block_hidden, d], rng, prefix=f"block.{t}.mlp"),
                ln1_gain=DTensor(np.ones((1, d)), name=f"block.{t}.ln1.gain"),
                ln1_bias=DTensor(np.zeros((1, d)), name=f"block.{t}.ln1.bias"),
                ln2_gain=DTensor(np.ones((1, d)), name=f"block.{t}.ln2.gain"),
                ln2_bias=DTensor(np.zeros((1, d)), name=f"block.{t}.ln2.bias"),
            ))
        head = MLP.init([d, head_hidden, 4], rng, prefix="head")
        return cls(encoder, blocks, head, d_raw, d, block_hidden, head_hidden)

    def named_parameters(self) -> dict[str, DTensor]:
        out = {}
        for p in self.encoder.parameters() + self.head.parameters():
            out[p.name] = p
        for blk in self.blocks:
            for p in blk.parameters():
                out[p.name] = p
        return dict(sorted(out.items()))


def encode_feature(tape, params: DecoderParams, raw: DTensor) -> DTensor:
    """Embed raw descriptors (M, D_raw) -> features (M, D)."""
    if raw.shape[1] != params.d_raw:
        raise dc.DimensionError(
            f"descriptor width {raw.shape} != encoder input {params.d_raw}")
    return params.encoder.forward(tape, raw)


def _canonical_order(bank: CodeBank, t: int, idx: np.ndarray) -> np.ndarray:
    """Reorder active code rows lexicographically by (code, scale) values.

    Every reduction downstream then sees the codes in a storage-order-free
    sequence, so permuting rows of a bank leaves decode outputs
    bit-identical. Fully duplicated rows commute exactly, so ties are safe.
    """
    rows = np.hstack([bank.codes[t].values[idx], bank.scales[t].values[idx]])
    return idx[np.lexsort(rows.T[::-1])]


def block_keys(tape, params: DecoderParams, bank: CodeBank, t: int):
    """(keys, values): block t's (K, D) active codes times their scales, in
    canonical order, times Wk and Wv; None when all are pruned."""
    idx = bank.active_rows(t)
    if len(idx) == 0:
        return None
    idx = _canonical_order(bank, t, idx)
    scaled = dc.mul(tape, dc.take_rows(tape, bank.codes[t], idx),
                    dc.take_rows(tape, bank.scales[t], idx))
    blk = params.blocks[t]
    return dc.matmul(tape, scaled, blk.wk), dc.matmul(tape, scaled, blk.wv)


def cross_attention_block(tape, f: DTensor, kv, t: int,
                          params: DecoderParams):
    """One post-norm residual cross-attention block over kv, block t's
    block_keys.

    Returns the new (M, D) features and the block's (M, K) softmax over its
    K active codes in canonical order, a plain array off the tape. A block
    whose codes are all pruned (kv None) acts as identity on f: (f, None).
    """
    if kv is None:
        return f, None
    blk = params.blocks[t]
    q = dc.matmul(tape, f, blk.wq)
    attended, attn = dc.attention(tape, q, *kv,
                                  float(1.0 / np.sqrt(params.d)))
    f1 = dc.layer_norm(tape, dc.add(tape, f, attended),
                       blk.ln1_gain, blk.ln1_bias)
    f2 = dc.layer_norm(tape, dc.add(tape, f1, blk.mlp.forward(tape, f1)),
                       blk.ln2_gain, blk.ln2_bias)
    return f2, attn


def _check_bank(params: DecoderParams, bank: CodeBank) -> None:
    if bank.dims[0] != params.num_blocks or bank.dims[2] != params.d:
        raise dc.DimensionError(f"code bank (T, N, D) {bank.dims} != decoder "
                                f"(T, D) ({params.num_blocks}, {params.d})")


def bank_keys(tape, params: DecoderParams, bank: CodeBank) -> list:
    """block_keys of every block of the bank: what decode attends over."""
    _check_bank(params, bank)
    return [block_keys(tape, params, bank, t) for t in range(params.num_blocks)]


def decode(tape, params: DecoderParams, features: DTensor, blocks: list):
    """Run encoded features (M, D) through all blocks and the output head,
    attending over blocks, bank_keys' result for the voxel's code bank.

    Returns (local, confidence): (M, 3) coordinates in the voxel's frame,
    meters, and (M, 1) sigmoid probabilities of lying in the voxel. The
    caller adds the voxel's origin for world coordinates.
    """
    if features.shape[1] != params.d or len(blocks) != params.num_blocks:
        raise dc.DimensionError(
            f"features {features.shape} and {len(blocks)} key blocks != "
            f"decoder width {params.d} and {params.num_blocks} blocks")
    f = features
    for t, kv in enumerate(blocks):
        f, _ = cross_attention_block(tape, f, kv, t, params)
    out = params.head.forward(tape, f)
    return (dc.slice_cols(tape, out, 0, 3),
            dc.sigmoid(tape, dc.slice_cols(tape, out, 3, 4)))


def attention_scores(params: DecoderParams, features: DTensor,
                     bank: CodeBank, block: int, code: int):
    """Per-input attention scores for one code, plus min-max normalization.

    s is column `code` of the block's attention matrix over the feature
    batch; s_norm maps [min, max] over the batch to [0, 1], with an all-zero
    result when the batch scores are constant.
    """
    _check_bank(params, bank)
    for name, i, n in (("block", block, params.num_blocks),
                       ("code", code, bank.dims[1])):
        if not 0 <= i < n:
            raise ValueError(f"{name} {i} out of range [0, {n})")
    idx = bank.active_rows(block)
    if code not in idx:
        raise ValueError(f"code {code} in block {block} is pruned")
    pos = np.flatnonzero(_canonical_order(bank, block, idx) == code)
    f = features
    for t, kv in enumerate(bank_keys(None, params, bank)[:block + 1]):
        f, attn = cross_attention_block(None, f, kv, t, params)
    s = attn[:, pos[0]].copy()
    lo, hi = s.min(), s.max()
    if hi - lo == 0.0:
        return s, np.zeros_like(s)
    return s, (s - lo) / (hi - lo)


def route_scores(params: DecoderParams, q: np.ndarray, kv0):
    """Each keypoint's largest block-0 logit q·k/√D, (M,), over the keys of
    kv0, block 0's block_keys, for queries q = features·Wq (a max, so
    code-row order does not matter). None when kv0 is None (no active
    block-0 code); a non-finite logit raises NumericError.
    """
    if kv0 is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        logits = q @ kv0[0].values.T
        logits *= float(1.0 / np.sqrt(params.d))
    dc._check_finite(logits, "routing logits")
    return logits.max(axis=1)


def params_to_bytes(params: DecoderParams) -> bytes:
    if params.num_blocks == 0:  # params_from_bytes refuses it
        raise ValueError("num_blocks is 0: weights would not load")
    w = Writer(WEIGHTS_MAGIC, WEIGHTS_FORMAT_VERSION)
    # the fourth u32 is reserved and always 0
    for v in (params.d_raw, params.d, params.num_blocks, 0,
              params.block_hidden, params.head_hidden):
        w.u32(v)
    named = params.named_parameters()
    w.u32(len(named))
    for name, tens in named.items():
        raw = name.encode()
        w.u32(len(raw))
        w.bytes_(raw)
        w.u32(tens.values.ndim)
        for s in tens.values.shape:
            w.u32(s)
        w.f32_array(tens.values)
    return w.getvalue()


def _param_count(d_raw: int, d: int, num_blocks: int, block_hidden: int,
                 head_hidden: int) -> int:
    """Number of values in DecoderParams.init(...) of these dims."""
    def mlp(*widths):
        return sum((fi + 1) * fo for fi, fo in zip(widths[:-1], widths[1:]))
    block = 3 * d * d + mlp(d, block_hidden, d) + 4 * d
    return mlp(d_raw, d) + num_blocks * block + mlp(d, head_hidden, 4)


def params_from_bytes(data: bytes | BinaryIO) -> DecoderParams:
    r = Reader(data, WEIGHTS_MAGIC, WEIGHTS_FORMAT_VERSION, "weights")
    dims = [r.u32(what) for what in ("d_raw", "d", "num_blocks",
                                     "reserved", "block hidden",
                                     "head hidden")]
    if (reserved := dims.pop(3)) != 0:
        raise FormatError(20, f"reserved header field is {reserved}, not 0; "
                              f"a hidden encoder layer does not load")
    if dims[1] == 0:
        raise FormatError(r.offset, "feature width d is 0")
    if dims[2] == 0:
        raise FormatError(r.offset, "num_blocks is 0")
    # every parameter value is stored as 4 bytes: check before allocating
    if 4 * _param_count(*dims) > r.remaining:
        raise FormatError(r.offset, f"dims {dims} need {_param_count(*dims)} "
                                    f"values, more than the file holds")
    # shape-only buffers: a generator stand-in that draws zeros, since
    # every value is overwritten below
    zeros = SimpleNamespace(uniform=lambda low, high, size: np.zeros(size))
    params = DecoderParams.init(zeros, *dims)
    named = params.named_parameters()
    count = r.u32("parameter count")
    if count != len(named):
        raise FormatError(r.offset, f"expected {len(named)} parameters, got {count}")
    # count names each parameter once, so every one is overwritten
    for _ in range(count):
        nlen = r.u32("name length")
        name = r.raw(nlen, "parameter name").decode()
        if name not in named:
            raise FormatError(r.offset, f"unknown or repeated parameter {name!r}")
        ndim = r.u32("ndim")
        shape = tuple(r.u32("dim") for _ in range(ndim))
        if named[name].values.shape != shape:
            raise FormatError(r.offset, f"shape mismatch for {name!r}")
        vals = r.f32_array(int(np.prod(shape)), f"values of {name}")
        named.pop(name).values[...] = vals.reshape(shape)
    r.expect_end()
    return params


def save_params(params: DecoderParams, path) -> None:
    # serialized first, so a refused save leaves no file behind
    Path(path).write_bytes(params_to_bytes(params))


def load_params(path) -> DecoderParams:
    with open(path, "rb") as f:
        return params_from_bytes(f)
