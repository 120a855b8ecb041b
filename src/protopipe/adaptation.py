"""Set-to-set prototype adaptation.

A single post-norm transformer encoder block applied to the stacked class
prototypes: multi-head self-attention with a residual connection and layer
norm, then a two-layer relu feed-forward with another residual and layer
norm. Each prototype is refined in the context of the full set, so the
output is permutation-equivariant in the rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FLOATS, NUMBER, ROWS, ConfigError, read_json, write_json
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


class ShapeMismatch(ConfigError):
    def __init__(self, field_name: str, expected: tuple, got: tuple):
        super().__init__(f"{field_name}: expected shape {expected}, got {got}")


@dataclass(frozen=True)
class TransformerWeights:
    d: int
    h: int
    d_ff: int
    w_q: list[Matrix]  # one d x (d/h) matrix per head
    w_k: list[Matrix]
    w_v: list[Matrix]
    w_o: Matrix  # d x d
    w1: Matrix  # d x d_ff
    b1: Vector
    w2: Matrix  # d_ff x d
    b2: Vector
    ln1_gain: Vector
    ln1_bias: Vector
    ln2_gain: Vector
    ln2_bias: Vector
    eps: float = 1e-5

    def __post_init__(self):
        d, h, d_ff = self.d, self.h, self.d_ff
        if d < 1 or h < 1 or d_ff < 1:
            raise ConfigError("d, h and d_ff must be positive")
        if d % h:
            raise ConfigError(f"d={d} is not divisible by h={h}")
        if not 0.0 < self.eps < math.inf:
            raise ConfigError(f"eps must be positive and finite, got {self.eps!r}")
        d_head = d // h
        for name in ("w_q", "w_k", "w_v"):
            mats = getattr(self, name)
            if len(mats) != h:
                raise ShapeMismatch(name, (h,), (len(mats),))
            for i, m in enumerate(mats):
                if (m.rows, m.cols) != (d, d_head):
                    raise ShapeMismatch(f"{name}[{i}]", (d, d_head), (m.rows, m.cols))
        checks = [
            ("w_o", self.w_o, (d, d)),
            ("w1", self.w1, (d, d_ff)),
            ("w2", self.w2, (d_ff, d)),
        ]
        for name, m, shape in checks:
            if (m.rows, m.cols) != shape:
                raise ShapeMismatch(name, shape, (m.rows, m.cols))
        vectors = [
            ("b1", self.b1, d_ff),
            ("b2", self.b2, d),
            ("ln1_gain", self.ln1_gain, d),
            ("ln1_bias", self.ln1_bias, d),
            ("ln2_gain", self.ln2_gain, d),
            ("ln2_bias", self.ln2_bias, d),
        ]
        for name, v, n in vectors:
            if len(v) != n:
                raise ShapeMismatch(name, (n,), (len(v),))


def attention_matrices(p: Matrix, w: TransformerWeights) -> list[Matrix]:
    """Per-head attention: softmax(Q Kᵀ / sqrt(d/h)) with Q = P·W_Qi, K = P·W_Ki.

    Every row of every returned matrix sums to one.
    """
    if p.cols != w.d:
        raise ShapeMismatch("prototypes", (p.rows, w.d), (p.rows, p.cols))
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


LAYER_NORM_KEYS = {"gain": FLOATS, "bias": FLOATS}
WEIGHTS_KEYS = {
    "d": int, "h": int, "d_ff": int,
    "heads": [{"w_q": ROWS, "w_k": ROWS, "w_v": ROWS}],
    "w_o": ROWS, "w1": ROWS, "b1": FLOATS, "w2": ROWS, "b2": FLOATS,
    "ln1": LAYER_NORM_KEYS, "ln2": LAYER_NORM_KEYS, "eps": NUMBER,
}


def load_transformer_weights(path) -> TransformerWeights:
    """Adapter weights JSON, read by WEIGHTS_KEYS; shapes are validated on construction."""
    doc = read_json(path, ConfigError, "adapter weights", WEIGHTS_KEYS, optional=("eps",))
    heads, ln1, ln2, rows = doc["heads"], doc["ln1"], doc["ln2"], Matrix.from_rows
    return TransformerWeights(
        d=doc["d"], h=doc["h"], d_ff=doc["d_ff"],
        w_q=[rows(head["w_q"]) for head in heads],
        w_k=[rows(head["w_k"]) for head in heads],
        w_v=[rows(head["w_v"]) for head in heads],
        w_o=rows(doc["w_o"]), w1=rows(doc["w1"]), b1=doc["b1"], w2=rows(doc["w2"]), b2=doc["b2"],
        ln1_gain=ln1["gain"], ln1_bias=ln1["bias"], ln2_gain=ln2["gain"], ln2_bias=ln2["bias"],
        eps=doc.get("eps", TransformerWeights.eps),
    )


def save_transformer_weights(w: TransformerWeights, path) -> None:
    doc = {
        "d": w.d,
        "h": w.h,
        "d_ff": w.d_ff,
        "heads": [
            {
                "w_q": w.w_q[i].to_rows(),
                "w_k": w.w_k[i].to_rows(),
                "w_v": w.w_v[i].to_rows(),
            }
            for i in range(w.h)
        ],
        "w_o": w.w_o.to_rows(),
        "w1": w.w1.to_rows(),
        "b1": list(w.b1),
        "w2": w.w2.to_rows(),
        "b2": list(w.b2),
        "ln1": {"gain": list(w.ln1_gain), "bias": list(w.ln1_bias)},
        "ln2": {"gain": list(w.ln2_gain), "bias": list(w.ln2_bias)},
        "eps": w.eps,
    }
    write_json(path, doc)
