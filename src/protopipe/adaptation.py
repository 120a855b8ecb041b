"""Set-to-set prototype adaptation.

A single post-norm transformer encoder block applied to the stacked class
prototypes: multi-head self-attention with a residual connection and layer
norm, then a two-layer relu feed-forward with another residual and layer
norm. Each prototype is refined in the context of the full set, so the
output is permutation-equivariant in the rows.

Weights are saved as a JSON header and a file of packed float64 values
beside it; see `save_transformer_weights`. A load reads each tensor
straight into an `array('d')` of its own (`errors.read_float64`), which its
`Matrix` keeps, so the values are held once. Each product unpacks the
columns it reads (`Matrix.columns`). The six vectors are lists.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .errors import NUMBER, ConfigError, read_float64, read_json, write_float64, write_json
from .numerics import (
    Matrix,
    Vector,
    add,
    hconcat,
    layer_norm_rows,
    matmul,
    relu,
    scale,
    softmax_rows,
)


def _shape_mismatch(field_name: str, expected: tuple, got: tuple) -> ConfigError:
    return ConfigError(f"{field_name}: expected shape {expected}, got {got}")


@dataclass(frozen=True)
class TransformerWeights:
    """The block's weights; `values_layout(d, h, d_ff)` gives each tensor's name and shape."""

    d: int
    h: int
    d_ff: int
    w_q: list[Matrix]  # one matrix per head
    w_k: list[Matrix]
    w_v: list[Matrix]
    w_o: Matrix
    w1: Matrix
    b1: Vector
    w2: Matrix
    b2: Vector
    ln1_gain: Vector
    ln1_bias: Vector
    ln2_gain: Vector
    ln2_bias: Vector
    eps: float = 1e-5

    def __post_init__(self):
        _check_dims(self.d, self.h, self.d_ff)
        if not 0.0 < self.eps < math.inf:
            raise ConfigError(f"eps must be positive and finite, got {self.eps!r}")
        for name in HEAD_MATRICES:
            if (count := len(getattr(self, name))) != self.h:
                raise _shape_mismatch(name, (self.h,), (count,))
        for (name, shape), t in zip(values_layout(self.d, self.h, self.d_ff), self.tensors()):
            got = (t.rows, t.cols) if isinstance(t, Matrix) else (len(t),)
            if got != shape:
                raise _shape_mismatch(name, shape, got)

    def tensors(self) -> list[Matrix | Vector]:
        """Every tensor, in `values_layout` order: each head's w_q, w_k and w_v, then the rest."""
        heads = itertools.chain.from_iterable(zip(*(getattr(self, n) for n in HEAD_MATRICES)))
        tail = values_layout(self.d, self.h, self.d_ff)[3 * self.h :]
        return [*heads, *(getattr(self, name) for name, _ in tail)]


def _check_dims(d: int, h: int, d_ff: int) -> None:
    if d < 1 or h < 1 or d_ff < 1:
        raise ConfigError("d, h and d_ff must be positive")
    if d % h:
        raise ConfigError(f"d={d} is not divisible by h={h}")


def attention_matrices(p: Matrix, w: TransformerWeights) -> list[Matrix]:
    """Per-head attention: softmax(Q Kᵀ / sqrt(d/h)) with Q = P·W_Qi, K = P·W_Ki.

    Every row of every returned matrix sums to one.
    """
    if p.cols != w.d:
        raise _shape_mismatch("prototypes", (p.rows, w.d), (p.rows, p.cols))
    inv_sqrt = 1.0 / math.sqrt(w.d / w.h)
    out = []
    for i in range(w.h):
        q = matmul(p, w.w_q[i])
        k = matmul(p, w.w_k[i])
        logits = scale(matmul(q, k.transpose()), inv_sqrt)
        out.append(softmax_rows(logits))
    return out


def self_attention(p: Matrix, w: TransformerWeights) -> Matrix:
    """Concatenate the per-head values A_i·(P·W_Vi), then project by W_O."""
    heads = attention_matrices(p, w)
    mixed = [matmul(a, matmul(p, w.w_v[i])) for i, a in enumerate(heads)]
    return matmul(hconcat(mixed), w.w_o)


def _ffn(z: Matrix, w: TransformerWeights) -> Matrix:
    hidden = relu(add(matmul(z, w.w1), Matrix.from_rows([w.b1] * z.rows)))
    return add(matmul(hidden, w.w2), Matrix.from_rows([w.b2] * z.rows))


def adapt_prototypes(p: Matrix, w: TransformerWeights) -> Matrix:
    """Post-norm encoder block: LN(Z + FFN(Z)) where Z = LN(P + attn(P))."""
    z = layer_norm_rows(add(p, self_attention(p, w)), w.ln1_gain, w.ln1_bias, w.eps)
    return layer_norm_rows(add(z, _ffn(z, w)), w.ln2_gain, w.ln2_bias, w.eps)


def centering_adapter_weights(d: int, strength: float = 1.0) -> TransformerWeights:
    """A hand-built block that pushes each prototype away from the set mean.

    Zero Q/K make attention uniform, so the attention output is the set mean;
    W_V = -strength*I and W_O = I turn the residual into P - strength*mean(P).
    The feed-forward stage is zeroed, leaving only the two layer norms. The
    effect is to strip the component the classes share, which widens the
    angles between prototypes.
    """
    zeros = Matrix.zeros(d, d)
    neg_eye = scale(Matrix.identity(d), -strength)
    return TransformerWeights(
        d=d,
        h=1,
        d_ff=d,
        w_q=[zeros],
        w_k=[zeros],
        w_v=[neg_eye],
        w_o=Matrix.identity(d),
        w1=Matrix.zeros(d, d),
        b1=[0.0] * d,
        w2=Matrix.zeros(d, d),
        b2=[0.0] * d,
        ln1_gain=[1.0] * d,
        ln1_bias=[0.0] * d,
        ln2_gain=[1.0] * d,
        ln2_bias=[0.0] * d,
    )


HEAD_MATRICES = ("w_q", "w_k", "w_v")
HEADER_KEYS = {"d": int, "h": int, "d_ff": int, "eps": NUMBER, "values": str}


def values_layout(d: int, h: int, d_ff: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor, in values-file order; the record checks its own by it."""
    heads = [(f"{name}[{i}]", (d, d // h)) for i in range(h) for name in HEAD_MATRICES]
    return heads + [
        ("w_o", (d, d)), ("w1", (d, d_ff)), ("b1", (d_ff,)), ("w2", (d_ff, d)), ("b2", (d,)),
        ("ln1_gain", (d,)), ("ln1_bias", (d,)), ("ln2_gain", (d,)), ("ln2_bias", (d,)),
    ]


def load_transformer_weights(path) -> TransformerWeights:
    """Adapter weights: a header read by HEADER_KEYS, then the values file it names.

    The values file, resolved against the header's directory, must hold
    exactly the values of `values_layout`: 4d² + 2·d·d_ff + d_ff + 5d of
    them, a count taken before the layout is built, so that no header can
    make the load build a huge one. Each tensor is read into its own
    array, which a matrix keeps. Every fault is a ConfigError naming the
    header; one in the values file also names that file, and a NaN or an
    infinity its tensor and index.
    """
    def build(doc) -> TransformerWeights:
        d, h, d_ff = doc["d"], doc["h"], doc["d_ff"]
        _check_dims(d, h, d_ff)
        values = read_float64(
            Path(path).parent / doc["values"], 4 * d * d + 2 * d * d_ff + d_ff + 5 * d,
            ConfigError, "values file", partial(values_layout, d, h, d_ff),
        )
        tensors = {
            name: Matrix(*shape, flat) if len(shape) == 2 else flat.tolist()
            for (name, shape), flat in zip(values_layout(d, h, d_ff), values)
        }
        heads = {name: [tensors.pop(f"{name}[{i}]") for i in range(h)] for name in HEAD_MATRICES}
        return TransformerWeights(
            d=d, h=h, d_ff=d_ff, **heads, **tensors, eps=doc.get("eps", TransformerWeights.eps)
        )

    return read_json(path, ConfigError, "adapter weights", HEADER_KEYS, ("eps",), build)


def save_transformer_weights(w: TransformerWeights, path) -> None:
    """Write `<stem>.f64` beside path, then the header naming it at path.

    The values file holds every tensor of `values_layout` as little-endian
    float64, matrices row-major; the header is `{"d", "h", "d_ff", "eps",
    "values"}`, `values` the values file's name.
    """
    path = Path(path)
    values = path.with_suffix(".f64")
    if values == path:
        raise ConfigError(f"adapter weights {path} would overwrite their own values file")
    flat = (t.values if isinstance(t, Matrix) else t for t in w.tensors())
    write_float64(values, itertools.chain.from_iterable(flat))
    write_json(path, {"d": w.d, "h": w.h, "d_ff": w.d_ff, "eps": w.eps, "values": values.name})
