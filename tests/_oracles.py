"""Independent numpy reference implementations used to cross-check results,
the plain-Python code the reference outputs were made with, and the seeded
random adapter weights the tests draw.

Nothing here imports from protopipe's internals beyond plain data (lists of
floats, weight containers), so a bug in the package cannot hide inside its
own oracle.
"""
from __future__ import annotations

import math
import random

import numpy as np

from protopipe.adaptation import TransformerWeights
from protopipe.media_io.pnm import Frame
from protopipe.numerics import Matrix


def np_softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def np_layer_norm_rows(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float
) -> np.ndarray:
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)  # population variance
    return gain * ((x - mean) / np.sqrt(var + eps)) + bias


def np_transformer_block(p: np.ndarray, w) -> np.ndarray:
    """Straight-line re-derivation of the post-norm encoder block.

    `w` is a protopipe TransformerWeights; only its raw lists are read.
    """
    def mat(m):
        return np.array(m.values, dtype=np.float64).reshape(m.rows, m.cols)

    d, h = w.d, w.h
    dk = d // h
    heads = []
    for i in range(h):
        q = p @ mat(w.w_q[i])
        k = p @ mat(w.w_k[i])
        v = p @ mat(w.w_v[i])
        logits = (q @ k.T) / np.sqrt(dk)
        heads.append(np_softmax_rows(logits) @ v)
    attn = np.concatenate(heads, axis=1) @ mat(w.w_o)
    ln1 = np_layer_norm_rows(
        p + attn, np.array(w.ln1_gain), np.array(w.ln1_bias), w.eps
    )
    hidden = np.maximum(ln1 @ mat(w.w1) + np.array(w.b1), 0.0)
    ffn = hidden @ mat(w.w2) + np.array(w.b2)
    return np_layer_norm_rows(
        ln1 + ffn, np.array(w.ln2_gain), np.array(w.ln2_bias), w.eps
    )


def np_sobel_magnitude(gray: np.ndarray) -> np.ndarray:
    """3x3 Sobel gradient magnitude on the interior (no padding)."""
    g = gray.astype(np.float64)
    h, w = g.shape
    gx = np.zeros((h - 2, w - 2))
    gy = np.zeros((h - 2, w - 2))
    for dy, dx, cx, cy in (
        (-1, -1, -1.0, -1.0),
        (-1, 0, 0.0, -2.0),
        (-1, 1, 1.0, -1.0),
        (0, -1, -2.0, 0.0),
        (0, 1, 2.0, 0.0),
        (1, -1, -1.0, 1.0),
        (1, 0, 0.0, 2.0),
        (1, 1, 1.0, 1.0),
    ):
        patch = g[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
        gx += cx * patch
        gy += cy * patch
    return np.sqrt(gx * gx + gy * gy)


def ref_to_grayscale(frame):
    """BT.601 luma, rounded half-up and clamped, one pixel at a time.

    The loop the reference outputs were made with; the edge gate must see
    the same bytes. `frame` is an RGB protopipe Frame; returns the bytes.
    """
    px = frame.pixels
    gray = bytearray(frame.width * frame.height)
    for i in range(len(gray)):
        base = 3 * i
        y = 0.299 * px[base] + 0.587 * px[base + 1] + 0.114 * px[base + 2]
        gray[i] = min(255, int(y + 0.5))
    return bytes(gray)


def ref_sobel_magnitude(gray) -> Matrix:
    """Float Sobel magnitude sqrt(Gx^2 + Gy^2) of every interior pixel.

    The per-pixel loop the reference outputs were made with, on a grayscale
    protopipe Frame of at least 3x3: the result is (height-2) x (width-2).
    The edge gate must count exactly its entries above a threshold.
    """
    w, h = gray.width, gray.height
    px = gray.pixels
    out = [0.0] * ((h - 2) * (w - 2))
    pos = 0
    for y in range(1, h - 1):
        up = (y - 1) * w
        mid = y * w
        dn = (y + 1) * w
        for x in range(1, w - 1):
            a = px[up + x - 1]
            b = px[up + x]
            c = px[up + x + 1]
            d = px[mid + x - 1]
            f = px[mid + x + 1]
            g = px[dn + x - 1]
            i = px[dn + x]
            j = px[dn + x + 1]
            gx = (c + 2 * f + j) - (a + 2 * d + g)
            gy = (g + 2 * i + j) - (a + 2 * b + c)
            out[pos] = math.sqrt(gx * gx + gy * gy)
            pos += 1
    return Matrix(h - 2, w - 2, out)


def ref_edge_density(frame, tau_mag: float) -> float:
    """Fraction of interior pixels whose float Sobel magnitude exceeds tau_mag.

    An RGB frame is first turned to luma by `ref_to_grayscale`.
    `is_frame_valid(frame, cfg)` must be exactly
    `ref_edge_density(frame, cfg.tau_mag) >= cfg.tau_density`.
    """
    if frame.channels == 3:
        frame = Frame(frame.width, frame.height, 1, ref_to_grayscale(frame))
    mags = ref_sobel_magnitude(frame).values
    return sum(1 for m in mags if m > tau_mag) / len(mags)


def np_downsample_boxes(pixels: np.ndarray, grid: int) -> np.ndarray:
    """Channel-major box-average matching the embedder's binning rule."""
    h, w, c = pixels.shape
    sums = np.zeros((c, grid, grid))
    counts = np.zeros((grid, grid))
    for y in range(h):
        yb = min(grid - 1, y * grid // h)
        for x in range(w):
            xb = min(grid - 1, x * grid // w)
            counts[yb, xb] += 1
            for ch in range(c):
                sums[ch, yb, xb] += pixels[y, x, ch]
    # Divide by count * 255 in one step, as the embedder does, so the result
    # is the same float bit for bit (sums are exact integers).
    return (sums / (counts * 255.0)).reshape(-1)


def loop_matmul(a: list[float], b: list[float], n: int, k: int, m: int) -> list[float]:
    """Exact-order reference product of row-major n x k and k x m lists.

    This is the accumulate loop protopipe's reference outputs were made
    with: out[i][j] starts at +0.0 and gains a[i][p] * b[p][j] for p in
    order, rounding after every step, and a zero a[i][p] is skipped.
    """
    out = [0.0] * (n * m)
    for i in range(n):
        for p in range(k):
            x = a[i * k + p]
            if x == 0.0:
                continue
            for j in range(m):
                out[i * m + j] += x * b[p * m + j]
    return out


def loop_mean_vectors(vectors: list[list[float]]) -> list[float]:
    """Exact-order reference mean of same-length vectors.

    The accumulate loop protopipe's reference outputs were made with: entry
    j starts at +0.0 and gains each vector's entry j in vector order,
    rounding after every step, and is then divided by the vector count.
    """
    acc = [0.0] * len(vectors[0])
    for v in vectors:
        for j, x in enumerate(v):
            acc[j] += x
    return [x / len(vectors) for x in acc]


def ref_cosine_similarity(a, b) -> float:
    """Cosine with generator sums from an int 0, as the reference outputs were made.

    `numerics.cosine_similarity` must give the same bits on finite inputs.
    """
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return max(-1.0, min(1.0, dot / (na * nb)))


def ref_orthonormal_columns(n: int, d: int, seed: int) -> list[float]:
    """The n x d projection the reference outputs were made with, row-major.

    Seeded Gaussian, then modified Gram-Schmidt with generator sums, then a
    scatter loop into the n x d layout. `make_patch_projection_spec` must
    give the same bits.
    """
    rng = random.Random(f"projection/{seed}")
    cols = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(d)]
    for j in range(d):
        col = cols[j]
        for p in range(j):
            prev = cols[p]
            dot = sum(a * b for a, b in zip(col, prev))
            for i in range(n):
                col[i] -= dot * prev[i]
        norm = sum(a * a for a in col) ** 0.5
        for i in range(n):
            col[i] /= norm
    values = [0.0] * (n * d)
    for j, col in enumerate(cols):
        for i in range(n):
            values[i * d + j] = col[i]
    return values


def random_transformer_weights(
    d: int, h: int = 1, d_ff: int | None = None, seed: int = 0
) -> TransformerWeights:
    """Gaussian init scaled by 1/sqrt(fan_in); zero biases, identity norms.

    Seeded test weights for the adapter; the golden adapter file was made
    with them, so the draw order must not change.
    """
    if d_ff is None:
        d_ff = 2 * d
    rng = random.Random(f"transformer/{seed}")

    def draw(rows: int, cols: int) -> Matrix:
        s = 1.0 / math.sqrt(rows)
        return Matrix(rows, cols, [rng.gauss(0.0, s) for _ in range(rows * cols)])

    d_head = d // h
    return TransformerWeights(
        d=d,
        h=h,
        d_ff=d_ff,
        w_q=[draw(d, d_head) for _ in range(h)],
        w_k=[draw(d, d_head) for _ in range(h)],
        w_v=[draw(d, d_head) for _ in range(h)],
        w_o=draw(d, d),
        w1=draw(d, d_ff),
        b1=[0.0] * d_ff,
        w2=draw(d_ff, d),
        b2=[0.0] * d,
        ln1_gain=[1.0] * d,
        ln1_bias=[0.0] * d,
        ln2_gain=[1.0] * d,
        ln2_bias=[0.0] * d,
    )
