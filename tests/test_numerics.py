from __future__ import annotations

import math
import random
import sys
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from protopipe.errors import ConfigError, DataError
from protopipe.numerics import (
    Matrix,
    add,
    cosine_similarity,
    hconcat,
    layer_norm_rows,
    matmul,
    mean_vectors,
    norm,
    relu,
    scale,
    softmax_rows,
    _SQUARE_MAX,
)

from _oracles import (
    loop_matmul,
    loop_mean_vectors,
    np_layer_norm_rows,
    np_softmax_rows,
    ref_cosine_similarity,
)


def rand_matrix(rng, rows, cols, lo=-5.0, hi=5.0):
    return Matrix(rows, cols, [rng.uniform(lo, hi) for _ in range(rows * cols)])


def as_np(m: Matrix) -> np.ndarray:
    return np.array(m.values).reshape(m.rows, m.cols)


# --- Matrix container ---


def test_matrix_rejects_wrong_value_count():
    with pytest.raises(ConfigError, match="^2x3 matrix needs 6 values, got 5$"):
        Matrix(2, 3, [1.0] * 5)


def test_matrix_rejects_nonfinite():
    # The first non-finite entry is named, also behind a finite one that a
    # sum would overflow on.
    for values, name in (
        ([1.0, math.nan], "nan"),
        ([1.0, math.inf], "inf"),
        ([1e308, 1e308, -math.inf, math.nan], "-inf"),
        ([-math.inf, math.inf], "-inf"),
    ):
        with pytest.raises(DataError, match=f"^non-finite matrix entry {name}$"):
            Matrix(1, len(values), values)


def test_matrix_accepts_finite_entries_whose_sum_overflows():
    m = Matrix(2, 2, [1e308, 1e308, -1e308, math.nextafter(math.inf, 0.0)])
    assert m.values[0] == 1e308


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ConfigError, match="^ragged rows$"):
        Matrix.from_rows([[1.0, 2.0], [3.0]])


def test_matrix_row_and_at():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.row(1) == [4.0, 5.0, 6.0]
    assert m.values[0 * m.cols + 2] == 3.0
    assert m.to_rows() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_packed_values_give_the_same_list_rows_and_columns_as_list_values():
    # A packed matrix unpacks what it hands out, so `dot` runs over lists
    # and a product's bits do not depend on how its right operand is held.
    rng = random.Random(3)
    listed = rand_matrix(rng, 4, 3)
    packed = Matrix(4, 3, array("d", listed.values))
    for got, want in ((packed.columns(), listed.columns()), (packed.to_rows(), listed.to_rows())):
        assert all(type(v) is list for v in got + want)
        assert [[x.hex() for x in v] for v in got] == [[x.hex() for x in v] for v in want]
    a = rand_matrix(rng, 2, 4)
    assert [x.hex() for x in matmul(a, packed).values] == [x.hex() for x in matmul(a, listed).values]
    assert packed.transpose() == listed.transpose()


def test_matrices_are_equal_by_shape_and_values_however_they_are_held():
    listed = Matrix(2, 2, [1.0, -0.0, 2.0, 3.0])
    assert Matrix(2, 2, array("d", [1.0, 0.0, 2.0, 3.0])) == listed
    assert listed == Matrix(2, 2, array("d", listed.values))
    assert Matrix(2, 2, array("d", [1.0, 0.0, 2.0, 4.0])) != listed
    assert Matrix(1, 4, array("d", listed.values)) != listed
    assert listed != listed.values


def test_transpose_round_trip():
    rng = random.Random(0)
    m = rand_matrix(rng, 3, 5)
    t = m.transpose()
    assert (t.rows, t.cols) == (5, 3)
    assert t.transpose() == m


# --- matmul ---


def test_matmul_identity():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert matmul(Matrix.identity(3), m) == m


def test_matmul_hand_product():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5], [6]])
    assert matmul(a, b).to_rows() == [[17.0], [39.0]]


def test_matmul_against_triple_loop_oracle():
    rng = random.Random(42)
    a = rand_matrix(rng, 4, 5)
    b = rand_matrix(rng, 5, 3)
    got = matmul(a, b)
    for i in range(4):
        for j in range(3):
            want = sum(a.values[i * 5 + p] * b.values[p * 3 + j] for p in range(5))
            assert got.values[i * 3 + j] == pytest.approx(want, abs=1e-12)


# Signed zeros, negatives and magnitudes small enough that no product of
# two overflows (Matrix refuses an infinite result).
ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False
)


@st.composite
def operand_pairs(draw):
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    a = draw(st.lists(ENTRIES, min_size=n * k, max_size=n * k))
    b = draw(st.lists(ENTRIES, min_size=k * m, max_size=k * m))
    return Matrix(n, k, a), Matrix(k, m, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operand_pairs())
@example((Matrix(2, 0, []), Matrix(0, 3, [])))
@example((Matrix(1, 2, [-0.0, 0.0]), Matrix(2, 2, [-1.0, 1.0, -0.0, 2.0])))
def test_matmul_is_bitwise_the_accumulate_loop(operands):
    a, b = operands
    got = matmul(a, b)
    want = loop_matmul(a.values, b.values, a.rows, a.cols, b.cols)
    assert (got.rows, got.cols) == (a.rows, b.cols)
    # float.hex tells -0.0 from 0.0; the type check catches an int 0 entry.
    assert [type(x) for x in got.values] == [float] * len(want)
    assert [x.hex() for x in got.values] == [x.hex() for x in want]


def test_matmul_shape_mismatch():
    with pytest.raises(ConfigError, match="^cannot multiply 2x3 by 2x3$"):
        matmul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))


def test_matmul_associative_on_random_triples():
    rng = random.Random(7)
    for _ in range(10):
        a = rand_matrix(rng, 3, 4)
        b = rand_matrix(rng, 4, 2)
        c = rand_matrix(rng, 2, 5)
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        np.testing.assert_allclose(as_np(left), as_np(right), rtol=1e-9, atol=1e-9)


# --- softmax ---


def test_softmax_symmetry():
    out = softmax_rows(Matrix.from_rows([[0, 0, 0]]))
    assert out.row(0) == pytest.approx([1 / 3] * 3)


def test_softmax_no_overflow_on_large_logits():
    out = softmax_rows(Matrix.from_rows([[1000.0, 1000.0]]))
    assert out.row(0) == pytest.approx([0.5, 0.5])


def test_softmax_direct_evaluation():
    out = softmax_rows(Matrix.from_rows([[1, 2, 3]]))
    assert out.row(0) == pytest.approx(
        [0.09003057, 0.24472847, 0.66524096], abs=1e-7
    )


def test_softmax_empty_is_error():
    with pytest.raises(DataError, match="^softmax_rows needs a nonempty matrix$"):
        softmax_rows(Matrix.zeros(0, 0))


@given(
    st.lists(
        st.lists(st.floats(-50, 50), min_size=2, max_size=6),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_softmax_rows_sum_to_one_and_shift_invariant(rows):
    m = Matrix.from_rows(rows)
    out = softmax_rows(m)
    for i in range(out.rows):
        assert sum(out.row(i)) == pytest.approx(1.0, abs=1e-9)
    shifted = Matrix.from_rows([[x + 13.5 for x in r] for r in rows])
    out2 = softmax_rows(shifted)
    np.testing.assert_allclose(as_np(out), as_np(out2), atol=1e-9)


def test_softmax_matches_numpy():
    rng = random.Random(5)
    m = rand_matrix(rng, 4, 6, -30, 30)
    np.testing.assert_allclose(
        as_np(softmax_rows(m)), np_softmax_rows(as_np(m)), atol=1e-12
    )


# --- layer norm ---


def test_layer_norm_constant_row_collapses_to_bias():
    out = layer_norm_rows(
        Matrix.from_rows([[5.0, 5.0, 5.0]]), [1.0] * 3, [0.0] * 3, 1e-5
    )
    assert out.row(0) == pytest.approx([0.0, 0.0, 0.0])


def test_layer_norm_two_point_row():
    # mean 2, population var 1: (1-2)/sqrt(1+1e-5) and (3-2)/sqrt(1+1e-5)
    out = layer_norm_rows(Matrix.from_rows([[1.0, 3.0]]), [1, 1], [0, 0], 1e-5)
    assert out.row(0) == pytest.approx([-0.99999, 0.99999], abs=1e-5)


def test_layer_norm_zero_gain_yields_bias_exactly():
    out = layer_norm_rows(
        Matrix.from_rows([[2.0, -7.0, 0.5]]), [0.0] * 3, [1.5, -2.0, 0.25], 1e-5
    )
    assert out.row(0) == [1.5, -2.0, 0.25]


def test_layer_norm_matches_numpy():
    rng = random.Random(11)
    m = rand_matrix(rng, 3, 8)
    gain = [rng.uniform(0.5, 2.0) for _ in range(8)]
    bias = [rng.uniform(-1, 1) for _ in range(8)]
    np.testing.assert_allclose(
        as_np(layer_norm_rows(m, gain, bias, 1e-5)),
        np_layer_norm_rows(as_np(m), np.array(gain), np.array(bias), 1e-5),
        atol=1e-12,
    )


def test_layer_norm_normalizes_high_variance_rows():
    # With eps inside the sqrt the output variance is var/(var+eps), so the
    # "unit variance" property only holds to 1e-6 once var >= ~10. Rows are
    # scaled up accordingly; tiny-variance rows are covered by the collapse
    # test above.
    rng = random.Random(2)
    for _ in range(20):
        row = [rng.uniform(-40, 40) for _ in range(16)]
        m = Matrix.from_rows([row])
        var_in = np.var(np.array(row))
        if var_in < 10.0:
            continue
        out = np.array(layer_norm_rows(m, [1.0] * 16, [0.0] * 16, 1e-5).row(0))
        assert abs(out.mean()) <= 1e-9
        assert abs(out.var() - 1.0) <= 1e-6


def test_the_square_bound_is_the_largest_float_whose_square_is_finite():
    assert math.isfinite(_SQUARE_MAX**2)
    with pytest.raises(OverflowError):
        math.nextafter(_SQUARE_MAX, math.inf) ** 2


@pytest.mark.parametrize(
    "row",
    [
        [1e300, -1e300],  # a deviation too large to square
        [_SQUARE_MAX, -_SQUARE_MAX],  # squares that sum past the float range
        [1e154, -1e154, 1e154, -1e154],
        [1e308, 1e308, 0.0],  # a row sum past the float range: an infinite mean
    ],
    ids=["deviation", "at-the-bound", "sum-of-squares", "mean"],
)
def test_layer_norm_overflow_is_a_data_error(row):
    with pytest.raises(DataError, match=r"^non-finite layer norm: row 1's variance overflows$"):
        layer_norm_rows(Matrix.from_rows([[1.0] * len(row), row]), [1.0] * len(row),
                        [0.0] * len(row), 1e-5)


def test_layer_norm_keeps_a_variance_just_inside_the_float_range():
    x = math.sqrt(sys.float_info.max / 2) * (1 - 2**-40)
    out = layer_norm_rows(Matrix.from_rows([[x, -x]]), [1.0, 1.0], [0.0, 0.0], 1e-5)
    assert out.row(0) == [1.0, -1.0]


def test_layer_norm_validates_shapes_and_eps():
    m = Matrix.from_rows([[1.0, 2.0]])
    with pytest.raises(ConfigError, match="^gain/bias length 1/2 vs 2 columns$"):
        layer_norm_rows(m, [1.0], [0.0, 0.0], 1e-5)
    with pytest.raises(ValueError):
        layer_norm_rows(m, [1.0, 1.0], [0.0, 0.0], 0.0)


# --- cosine ---


def cosine(a, b):
    return cosine_similarity(a, b, norm(a), norm(b))


def test_norm_is_the_euclidean_length():
    assert norm([3.0, -4.0]) == 5.0
    assert norm([]) == 0.0
    assert math.isnan(norm([math.nan, 1.0]))


def test_cosine_self_similarity():
    assert cosine([3.0, -4.0], [3.0, -4.0]) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_hand_value():
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(
        0.974631846, abs=1e-8
    )


def test_cosine_zero_vector_convention():
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0


COSINE_ENTRIES = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


@st.composite
def cosine_pairs(draw):
    n = draw(st.integers(0, 12))
    a, b = (draw(st.lists(COSINE_ENTRIES, min_size=n, max_size=n)) for _ in range(2))
    as_array = draw(st.booleans())
    return (array("d", a), array("d", b)) if as_array else (a, b)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(cosine_pairs())
@example(([0.0, 0.0], [1.0, 2.0]))
@example(([-0.0, 0.0], [-0.0, -0.0]))
@example(([-0.0, 1e-300], [-2.5, -1e-300]))
@example(([1.0, -2.0, 3.0], [-1.0, 2.0, -3.0]))
@example((array("d", [-0.0, 3.0]), array("d", [4.0, -0.0])))
def test_cosine_is_bitwise_the_generator_sum_reference(pair):
    a, b = pair
    assert cosine(a, b).hex() == ref_cosine_similarity(a, b).hex()


def test_cosine_length_mismatch():
    with pytest.raises(ConfigError, match="^vector lengths 1 vs 2$"):
        cosine([1.0], [1.0, 2.0])


@pytest.mark.parametrize(
    "a, b",
    [
        ([math.nan, 1.0], [1.0, 0.0]),  # min(1.0, nan) would score 1.0
        ([1.0, 0.0], [0.0, math.nan]),
        ([math.inf, 0.0], [1.0, 0.0]),
        ([0.0, 0.0], [math.nan, 0.0]),  # not hidden by the zero-norm rule
    ],
)
def test_cosine_rejects_non_finite(a, b):
    with pytest.raises(DataError):
        cosine(a, b)


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=8),
    st.lists(st.floats(-100, 100), min_size=2, max_size=8),
    st.floats(0.001, 1000),
)
def test_cosine_symmetric_and_scale_invariant(a, b, c):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    s = cosine(a, b)
    assert s == cosine(b, a)
    if math.sqrt(sum(x * x for x in a)) >= 1e-6:
        assert cosine([c * x for x in a], b) == pytest.approx(
            s, abs=1e-12
        )


# --- means, relu, concat ---


# The mean of a matrix's rows is mean_vectors over Matrix.to_rows().


def test_mean_rows_single_row():
    assert mean_vectors(Matrix.from_rows([[1.0, 2.0]]).to_rows()) == [1.0, 2.0]


def test_mean_rows_two_point():
    assert mean_vectors(Matrix.from_rows([[0, 0], [2, 4]]).to_rows()) == [1.0, 2.0]


def test_mean_rows_idempotent_on_identical_rows():
    v = [0.5, -1.5, 3.0]
    assert mean_vectors(Matrix.from_rows([v] * 5).to_rows()) == pytest.approx(v)


def test_mean_rows_empty():
    with pytest.raises(DataError, match="^mean of no vectors$"):
        mean_vectors(Matrix.zeros(0, 3).to_rows())


def test_mean_vectors():
    assert mean_vectors([[1.0, 1.0], [3.0, 5.0]]) == [2.0, 3.0]
    with pytest.raises(DataError, match="^mean of no vectors$"):
        mean_vectors([])
    with pytest.raises(ConfigError, match="^vector lengths 2 vs 1$"):
        mean_vectors([[1.0], [1.0, 2.0]])


@st.composite
def same_length_vectors(draw):
    n = draw(st.integers(0, 6))
    entries = ENTRIES | st.floats(allow_nan=False, allow_infinity=False)
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=9))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(same_length_vectors())
@example([[-0.0, 1.5, -2.0]])
@example([[-0.0, -0.0], [-0.0, -0.0]])
@example([[1e308, -1.0], [1e308, 1.0], [-1e308, -0.0]])
def test_mean_vectors_is_bitwise_the_accumulate_loop(vectors):
    got = mean_vectors(vectors)
    want = loop_mean_vectors(vectors)
    # float.hex tells -0.0 from 0.0, and an overflowed column's inf from a
    # finite mean.
    assert [type(x) for x in got] == [float] * len(want)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(same_length_vectors(), st.data())
def test_mean_vectors_rejects_ragged_input(vectors, data):
    n = len(vectors[0])
    bad = data.draw(st.lists(ENTRIES, max_size=8).filter(lambda v: len(v) != n))
    at = data.draw(st.integers(1, len(vectors)))
    with pytest.raises(ConfigError, match=f"^vector lengths {len(bad)} vs {n}$"):
        mean_vectors([*vectors[:at], bad, *vectors[at:]])


def test_relu_cases():
    assert relu(Matrix.from_rows([[-1.0, -2.0]])).values == [0.0, 0.0]
    m = Matrix.from_rows([[1.0, 2.0]])
    assert relu(m) == m
    assert relu(Matrix.from_rows([[-1.0, 2.0]])).to_rows() == [[0.0, 2.0]]


def test_add_and_scale():
    a = Matrix.from_rows([[1.0, 2.0]])
    b = Matrix.from_rows([[10.0, 20.0]])
    assert add(a, b).to_rows() == [[11.0, 22.0]]
    assert scale(a, -2.0).to_rows() == [[-2.0, -4.0]]
    with pytest.raises(ConfigError, match="^cannot add 1x2 and 2x2$"):
        add(a, Matrix.zeros(2, 2))


def test_hconcat():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5], [6]])
    assert hconcat([a, b]).to_rows() == [[1, 2, 5], [3, 4, 6]]
    with pytest.raises(DataError, match="^hconcat of no blocks$"):
        hconcat([])
    with pytest.raises(ConfigError, match="^hconcat row counts differ$"):
        hconcat([a, Matrix.zeros(3, 1)])
