"""Dense linear algebra and activation kernels, stdlib only.

Everything here operates on 64-bit Python floats in row-major matrices.
A `Matrix` holds its values in a list, or packed in an `array('d')` at 8
bytes a value where a list of floats takes 32: the adapter keeps its
weight matrices packed, and every activation is a list. `Matrix.row` and
`Matrix.columns` return lists for either, so `dot` always runs over lists
and a product's bits do not depend on how its operands are held; two
matrices are equal when their shapes and values are, however held.

Summation-order contract: every float dot product and norm in the package
(`matmul`, `norm`, `cosine_similarity`, the frame projection and
Gram-Schmidt in `embedding`) is `dot(row, col)`, which adds the products
row[0]*col[0], row[1]*col[1], ... one at a time, left to right, starting
from +0.0, each addition rounded to float64. That is the order of the plain
accumulate loop the pipeline's reference outputs were made with, so
reports, prototypes and predictions stay byte-identical, whatever the
shape of the product. A zero product adds +-0.0 to a running sum that can
never be -0.0, so a loop that skips zero inputs gives the same bits.
`cosine_similarity` takes its two norms from the caller, made by `norm`,
and so does `protonet.classify_clip` for its query: each prototype row and
query clip has its norm computed once, to the same bits. The float sums
outside `dot` are `mean_vectors`' column sums, `softmax_rows`'s total,
`layer_norm_rows`'s mean and variance, `evaluation`'s mean accuracy, and
the sums of `Matrix` and `errors.finite_floats`, which only test an array
for finiteness. `mean_vectors` sums each column with one `sum` from +0.0
in vector order, the order of the accumulate loop the reference clip means
and prototypes were made with.

The contract holds below CPython 3.12. From 3.12 on, builtin `sum`
compensates float rounding, so `dot` and `mean_vectors`, like every other
float `sum` in the package, can differ there in the last bits.
"""
from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .errors import ConfigError, DataError

Vector = list[float]
# The largest float whose square is finite.
_SQUARE_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major float64 matrix; `values` is a list or an `array('d')`."""

    rows: int
    cols: int
    values: list[float] | array

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ConfigError(f"negative shape {self.rows}x{self.cols}")
        if len(self.values) != self.rows * self.cols:
            raise ConfigError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"values, got {len(self.values)}"
            )
        if not math.isfinite(sum(self.values)):  # else every entry is finite
            for v in self.values:
                if not math.isfinite(v):
                    raise DataError(f"non-finite matrix entry {v!r}")

    def __eq__(self, other):
        """Equal shapes and values, whether a list or an array holds them."""
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            map(operator.eq, self.values, other.values)
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Matrix":
        """Rows of one length, as floats; input files are checked by `errors.read_object`."""
        n = len(rows)
        m = len(rows[0]) if n else 0
        flat: list[float] = []
        for r in rows:
            if len(r) != m:
                raise ConfigError("ragged rows")
            flat.extend(map(float, r))
        return cls(n, m, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0.0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        values = [0.0] * (n * n)
        for i in range(n):
            values[i * n + i] = 1.0
        return cls(n, n, values)

    def row(self, i: int) -> Vector:
        return _as_list(self.values[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def columns(self) -> list[Vector]:
        """Column j as a list, for every j: the right operand of `dot`."""
        return [_as_list(self.values[j :: self.cols]) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, [x for c in self.columns() for x in c])


def _as_list(values: list[float] | array) -> Vector:
    """A slice of a matrix's values as a list: packed values are unpacked."""
    return values.tolist() if isinstance(values, array) else values


def dot(row: Sequence[float], col: Sequence[float]) -> float:
    """sum(row[p] * col[p]) in p order from +0.0; see the module docs."""
    return sum(map(operator.mul, row, col), 0.0)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product; entry (i, j) is dot(row i of a, column j of b)."""
    if a.cols != b.rows:
        raise ConfigError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    k = a.cols
    av = a.values
    cols = b.columns()
    out: list[float] = []
    for i in range(a.rows):
        row = av[i * k : (i + 1) * k]
        out.extend([dot(row, col) for col in cols])
    return Matrix(a.rows, b.cols, out)


def add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ConfigError(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )
    return Matrix(a.rows, a.cols, [x + y for x, y in zip(a.values, b.values)])


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax, max-shifted so large logits cannot overflow."""
    if m.rows == 0 or m.cols == 0:
        raise DataError("softmax_rows needs a nonempty matrix")
    out: list[float] = []
    for i in range(m.rows):
        row = m.row(i)
        top = max(row)
        exps = [math.exp(x - top) for x in row]
        total = sum(exps)
        out.extend(e / total for e in exps)
    return Matrix(m.rows, m.cols, out)


def layer_norm_rows(m: Matrix, gain: Vector, bias: Vector, eps: float) -> Matrix:
    """Per-row normalization to zero mean / unit variance, then gain and bias.

    Uses population (biased) variance with eps added inside the square root.
    A row whose variance passes the float range is a DataError: one
    deviation from the mean too large to square, or squares that sum past
    it, which would leave every output of the row at its bias.
    """
    if len(gain) != m.cols or len(bias) != m.cols:
        raise ConfigError(
            f"gain/bias length {len(gain)}/{len(bias)} vs {m.cols} columns"
        )
    if eps <= 0:
        raise ConfigError("eps must be positive")
    out: list[float] = []
    for i in range(m.rows):
        row = m.row(i)
        mean = sum(row) / m.cols
        if max(abs(x - mean) for x in row) <= _SQUARE_MAX:  # else `** 2` raises OverflowError
            var = sum((x - mean) ** 2 for x in row) / m.cols
        else:
            var = math.inf
        if var == math.inf:
            raise DataError(f"non-finite layer norm: row {i}'s variance overflows")
        denom = math.sqrt(var + eps)
        out.extend(
            g * ((x - mean) / denom) + b for x, g, b in zip(row, gain, bias)
        )
    return Matrix(m.rows, m.cols, out)


def norm(v: Sequence[float]) -> float:
    """Euclidean length, sqrt(dot(v, v))."""
    return math.sqrt(dot(v, v))


def cosine_similarity(a: Vector, b: Vector, na: float, nb: float) -> float:
    """Cosine of the angle between two vectors, 0.0 if either is ~zero.

    `na` and `nb` are `norm(a)` and `norm(b)`, so a caller that scores one
    vector against many computes each norm once.

    A non-finite entry makes the dot product or a norm non-finite and raises
    DataError: min(1.0, nan) would otherwise score it a perfect match.
    """
    if len(a) != len(b):
        raise ConfigError(f"vector lengths {len(a)} vs {len(b)}")
    ab = dot(a, b)
    if not math.isfinite(ab + na + nb):
        raise DataError("non-finite vector entry in cosine similarity")
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return max(-1.0, min(1.0, ab / (na * nb)))


def mean_vectors(vectors: Sequence[Vector]) -> Vector:
    """Arithmetic mean of same-length vectors, summed by column; see the module docs."""
    if not vectors:
        raise DataError("mean of no vectors")
    n = len(vectors[0])
    for v in vectors:
        if len(v) != n:
            raise ConfigError(f"vector lengths {len(v)} vs {n}")
    k = len(vectors)
    return [x / k for x in map(sum, zip(*vectors), repeat(0.0))]


def relu(m: Matrix) -> Matrix:
    """Entry-wise max(0, x)."""
    return Matrix(m.rows, m.cols, [x if x > 0.0 else 0.0 for x in m.values])


def scale(m: Matrix, c: float) -> Matrix:
    return Matrix(m.rows, m.cols, [c * x for x in m.values])


def hconcat(blocks: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices with equal row counts along columns."""
    if not blocks:
        raise DataError("hconcat of no blocks")
    rows = blocks[0].rows
    for b in blocks:
        if b.rows != rows:
            raise ConfigError("hconcat row counts differ")
    out: list[float] = []
    for i in range(rows):
        for b in blocks:
            out.extend(b.row(i))
    return Matrix(rows, sum(b.cols for b in blocks), out)
