from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
import struct
import sys
import tempfile
import tracemalloc
from array import array
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from _oracles import np_transformer_block, random_transformer_weights
from hypothesis import given, settings, strategies as st

from protopipe import errors
from protopipe.adaptation import (
    TransformerWeights,
    adapt_prototypes,
    attention_matrices,
    centering_adapter_weights,
    load_transformer_weights,
    save_transformer_weights,
    self_attention,
)
from protopipe.errors import ConfigError
from protopipe.numerics import Matrix, layer_norm_rows, mean_vectors, scale

GOLDEN = Path(__file__).parent / "data" / "golden_adapter_seed5.json"
# sha256 of the adapter's output on the golden input, one float.hex per line.
GOLDEN_OUTPUT_SHA256 = "224bc9a8c60a43d90baa66f99c0b03b4142f610111d2aec9554022f5c3c28c5c"
# The same on 12 seeded prototypes of dim 16 with 4 heads: 576 softmax
# entries, where the golden input has 18, so a last-bit drift in the
# softmax that the golden input does not show, such as multiplying by
# 1 / total, shows here.
LARGER_OUTPUT_SHA256 = "1aec282c0308becad0cc4a5153b09cdb7047560ee7d6eb44a72ac9dec6d63cf0"
BITS_MAY_DIFFER = pytest.mark.xfail(
    sys.version_info >= (3, 12),
    reason="builtin sum compensates float rounding from CPython 3.12 on, "
    "so dot products can differ in the last bits (ROADMAP item 4)",
    strict=False,
)


def bits_digest(values) -> str:
    """sha256 of one float.hex per line."""
    return hashlib.sha256("".join(f"{x.hex()}\n" for x in values).encode()).hexdigest()


def random_matrix(rows, cols, seed):
    rng = random.Random(seed)
    return Matrix(rows, cols, [rng.gauss(0.0, 1.0) for _ in range(rows * cols)])


def rows_of(m):
    return m.to_rows()


class TestAttention:
    def test_single_prototype_attends_to_itself(self):
        w = random_transformer_weights(8, h=2, seed=1)
        p = random_matrix(1, 8, seed=2)
        for a in attention_matrices(p, w):
            assert a.values == [1.0]

    def test_rows_sum_to_one(self):
        w = random_transformer_weights(8, h=4, seed=3)
        p = random_matrix(5, 8, seed=4)
        for a in attention_matrices(p, w):
            for row in a.to_rows():
                assert sum(row) == pytest.approx(1.0, abs=1e-9)
                assert all(v >= 0 for v in row)

    def test_identical_prototypes_get_identical_treatment(self):
        w = random_transformer_weights(8, h=2, seed=5)
        row = random_matrix(1, 8, seed=6).values
        p = Matrix(3, 8, row * 3)
        out = adapt_prototypes(p, w)
        assert out.row(0) == pytest.approx(out.row(1), abs=1e-12)
        assert out.row(1) == pytest.approx(out.row(2), abs=1e-12)

    def test_logit_scaling_by_head_dim(self):
        # One head, d=4: attention logits are (P W_Q)(P W_K)^T / sqrt(4).
        # Scaling W_Q and W_K by c must scale logits by c^2; verify via a
        # hand computation on a 2-prototype set.
        d = 4
        w = random_transformer_weights(d, h=1, seed=7)
        p = random_matrix(2, d, seed=8)
        q = np.array(p.values).reshape(2, d) @ np.array(w.w_q[0].values).reshape(d, d)
        k = np.array(p.values).reshape(2, d) @ np.array(w.w_k[0].values).reshape(d, d)
        logits = (q @ k.T) / math.sqrt(d)
        expected = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        got = attention_matrices(p, w)[0]
        np.testing.assert_allclose(
            np.array(got.values).reshape(2, 2), expected, atol=1e-12
        )

        scaled = TransformerWeights(
            d=d, h=1, d_ff=w.d_ff,
            w_q=[scale(w.w_q[0], 3.0)], w_k=[scale(w.w_k[0], 3.0)], w_v=w.w_v,
            w_o=w.w_o, w1=w.w1, b1=w.b1, w2=w.w2, b2=w.b2,
            ln1_gain=w.ln1_gain, ln1_bias=w.ln1_bias,
            ln2_gain=w.ln2_gain, ln2_bias=w.ln2_bias,
        )
        logits9 = logits * 9.0
        expected9 = np.exp(logits9 - logits9.max(axis=1, keepdims=True))
        expected9 /= expected9.sum(axis=1, keepdims=True)
        got9 = attention_matrices(p, scaled)[0]
        np.testing.assert_allclose(
            np.array(got9.values).reshape(2, 2), expected9, atol=1e-12
        )

    def test_prototype_dim_must_match(self):
        w = random_transformer_weights(8, seed=1)
        message = "prototypes: expected shape (2, 8), got (2, 6)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            attention_matrices(random_matrix(2, 6, seed=0), w)


class TestAdaptBlock:
    def test_permutation_equivariance(self):
        # Reordering the prototype rows must reorder the outputs the same
        # way and change nothing else.
        w = random_transformer_weights(8, h=2, seed=11)
        p_rows = rows_of(random_matrix(3, 8, seed=12))
        base = adapt_prototypes(Matrix.from_rows(p_rows), w).to_rows()
        for perm in itertools.permutations(range(3)):
            permuted = adapt_prototypes(
                Matrix.from_rows([p_rows[i] for i in perm]), w
            ).to_rows()
            for out_row, src in zip(permuted, perm):
                assert out_row == pytest.approx(base[src], abs=1e-9)

    def test_self_attention_permutation_equivariance(self):
        w = random_transformer_weights(8, h=2, seed=13)
        p_rows = rows_of(random_matrix(4, 8, seed=14))
        base = self_attention(Matrix.from_rows(p_rows), w).to_rows()
        perm = [2, 0, 3, 1]
        permuted = self_attention(
            Matrix.from_rows([p_rows[i] for i in perm]), w
        ).to_rows()
        for out_row, src in zip(permuted, perm):
            assert out_row == pytest.approx(base[src], abs=1e-9)

    def test_zero_weights_reduce_to_double_layer_norm(self):
        d = 6
        zeros = Matrix.zeros(d, d)
        w = TransformerWeights(
            d=d, h=1, d_ff=d,
            w_q=[zeros], w_k=[zeros], w_v=[zeros], w_o=zeros,
            w1=zeros, b1=[0.0] * d, w2=zeros, b2=[0.0] * d,
            ln1_gain=[1.0] * d, ln1_bias=[0.0] * d,
            ln2_gain=[1.0] * d, ln2_bias=[0.0] * d,
        )
        p = random_matrix(3, d, seed=15)
        got = adapt_prototypes(p, w)
        ones, zs = [1.0] * d, [0.0] * d
        want = layer_norm_rows(
            layer_norm_rows(p, ones, zs, w.eps), ones, zs, w.eps
        )
        assert got.values == pytest.approx(want.values, abs=1e-12)

    def test_golden_output(self):
        doc = json.loads(GOLDEN.read_text())
        w = random_transformer_weights(doc["d"], h=doc["heads"], seed=doc["seed"])
        p = Matrix.from_rows(doc["input"])
        expected = np.array(doc["expected"])
        got = np.array(adapt_prototypes(p, w).values).reshape(expected.shape)
        np.testing.assert_allclose(got, expected, atol=1e-10)
        # and the committed file itself matches an independent re-derivation
        oracle = np_transformer_block(np.array(doc["input"]), w)
        np.testing.assert_allclose(oracle, expected, atol=1e-10)

    @BITS_MAY_DIFFER
    def test_golden_output_bits_are_pinned(self):
        # The golden file's `expected` is checked within atol only, so only
        # this pin and the next compare the adapter's output bit for bit.
        doc = json.loads(GOLDEN.read_text())
        w = random_transformer_weights(doc["d"], h=doc["heads"], seed=doc["seed"])
        got = adapt_prototypes(Matrix.from_rows(doc["input"]), w).values
        assert bits_digest(got) == GOLDEN_OUTPUT_SHA256

    @BITS_MAY_DIFFER
    def test_a_larger_input_output_bits_are_pinned(self):
        w = random_transformer_weights(16, h=4, seed=21)
        got = adapt_prototypes(random_matrix(12, 16, seed=21), w).values
        assert bits_digest(got) == LARGER_OUTPUT_SHA256

    def test_matches_numpy_oracle_on_random_inputs(self):
        for seed in range(5):
            w = random_transformer_weights(8, h=2, d_ff=12, seed=seed)
            p = random_matrix(4, 8, seed=100 + seed)
            got = np.array(adapt_prototypes(p, w).values).reshape(4, 8)
            want = np_transformer_block(np.array(p.values).reshape(4, 8), w)
            np.testing.assert_allclose(got, want, atol=1e-10)


class TestCenteringAdapter:
    def test_centers_then_normalizes(self):
        d, strength = 6, 0.25
        w = centering_adapter_weights(d, strength)
        p = random_matrix(4, d, seed=21)
        mean = mean_vectors(p.to_rows())
        centered = Matrix.from_rows(
            [[v - strength * m for v, m in zip(row, mean)] for row in p.to_rows()]
        )
        ones, zs = [1.0] * d, [0.0] * d
        want = layer_norm_rows(
            layer_norm_rows(centered, ones, zs, w.eps), ones, zs, w.eps
        )
        got = adapt_prototypes(p, w)
        assert got.values == pytest.approx(want.values, abs=1e-9)


class TestValidationAndSerialization:
    def test_wrong_output_projection_shape(self):
        w = random_transformer_weights(8, seed=0)
        message = "w_o: expected shape (8, 8), got (8, 4)"
        with pytest.raises(ConfigError, match=re.escape(message)) as info:
            TransformerWeights(
                d=8, h=1, d_ff=w.d_ff,
                w_q=w.w_q, w_k=w.w_k, w_v=w.w_v,
                w_o=Matrix.zeros(8, 4),
                w1=w.w1, b1=w.b1, w2=w.w2, b2=w.b2,
                ln1_gain=w.ln1_gain, ln1_bias=w.ln1_bias,
                ln2_gain=w.ln2_gain, ln2_bias=w.ln2_bias,
            )
        assert "w_o" in str(info.value)

    def test_head_count_must_divide_dim(self):
        with pytest.raises(ValueError):
            random_transformer_weights(8, h=3)

    def test_wrong_head_matrix_count(self):
        w = random_transformer_weights(8, h=2, seed=0)
        with pytest.raises(ConfigError, match=re.escape("w_q: expected shape (2,), got (1,)")):
            TransformerWeights(
                d=8, h=2, d_ff=w.d_ff,
                w_q=w.w_q[:1], w_k=w.w_k, w_v=w.w_v,
                w_o=w.w_o, w1=w.w1, b1=w.b1, w2=w.w2, b2=w.b2,
                ln1_gain=w.ln1_gain, ln1_bias=w.ln1_bias,
                ln2_gain=w.ln2_gain, ln2_bias=w.ln2_bias,
            )

    def test_save_load_round_trip(self, tmp_path):
        w = random_transformer_weights(8, h=2, d_ff=10, seed=17)
        path = tmp_path / "adapter.json"
        save_transformer_weights(w, path)
        again = load_transformer_weights(path)
        assert again == w

    def test_load_errors(self, tmp_path):
        path = tmp_path / "w.json"
        with pytest.raises(ConfigError):
            load_transformer_weights(path)
        path.write_text("[]")
        with pytest.raises(ConfigError):
            load_transformer_weights(path)
        w = random_transformer_weights(4, seed=0)
        save_transformer_weights(w, path)
        doc = json.loads(path.read_text())
        del doc["values"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape("missing key(s) ['values']")):
            load_transformer_weights(path)

    def test_a_shape_fault_at_load_names_the_file(self, tmp_path):
        path = tmp_path / "w.json"
        save_transformer_weights(random_transformer_weights(4, d_ff=4, seed=0), path)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), h=3)))
        message = f"bad adapter weights {path}: d=4 is not divisible by h=3"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_transformer_weights(path)

    def test_nan_eps_is_a_config_error(self, tmp_path):
        path = tmp_path / "w.json"
        save_transformer_weights(random_transformer_weights(4, seed=0), path)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), eps=math.nan)))
        with pytest.raises(ConfigError, match="eps"):
            load_transformer_weights(path)

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan, 0.0])
    def test_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ConfigError, match="eps"):
            replace(random_transformer_weights(4, seed=0), eps=eps)

    def test_random_weights_structure(self):
        w = random_transformer_weights(8, h=2, seed=1)
        assert w.d_ff == 16  # defaults to 2*d
        assert w.b1 == [0.0] * 16 and w.b2 == [0.0] * 8
        assert w.ln1_gain == [1.0] * 8 and w.ln2_bias == [0.0] * 8
        assert random_transformer_weights(8, h=2, seed=1) == w


def bit_weights(d, h, d_ff, rng):
    """Weights whose every value is a random finite bit pattern: signed zeros,
    subnormals and every exponent."""
    def floats(n):
        out = []
        while len(out) < n:
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(x):
                out.append(x)
        return out

    def mat(rows, cols):
        return Matrix(rows, cols, floats(rows * cols))

    return TransformerWeights(
        d=d, h=h, d_ff=d_ff,
        w_q=[mat(d, d // h) for _ in range(h)], w_k=[mat(d, d // h) for _ in range(h)],
        w_v=[mat(d, d // h) for _ in range(h)], w_o=mat(d, d), w1=mat(d, d_ff),
        b1=floats(d_ff), w2=mat(d_ff, d), b2=floats(d), ln1_gain=floats(d), ln1_bias=floats(d),
        ln2_gain=floats(d), ln2_bias=floats(d), eps=0.5,
    )


def float_hexes(doc):
    """Every float of a nested tuple, list or packed array, as float.hex, in order."""
    if isinstance(doc, (tuple, list, array)):
        return [x for item in doc for x in float_hexes(item)]
    return [doc.hex()] if isinstance(doc, float) else []


def matrices_and_vectors(w):
    heads = [m for name in ("w_q", "w_k", "w_v") for m in getattr(w, name)]
    vectors = [w.b1, w.b2, w.ln1_gain, w.ln1_bias, w.ln2_gain, w.ln2_bias]
    return heads + [w.w_o, w.w1, w.w2], vectors


class TestPackedMatrices:
    """Every weight matrix holds an array('d'), loaded or built in code; vectors are lists."""

    @pytest.mark.parametrize("source", ["random", "centering", "loaded"])
    def test_every_weight_matrix_is_packed_and_every_vector_a_list(self, tmp_path, source):
        w = (centering_adapter_weights(6) if source == "centering"
             else random_transformer_weights(8, h=2, d_ff=5, seed=3))
        if source == "loaded":
            save_transformer_weights(w, tmp_path / "w.json")
            w = load_transformer_weights(tmp_path / "w.json")
        matrices, vectors = matrices_and_vectors(w)
        assert all(type(m.values) is array and m.values.typecode == "d" for m in matrices)
        assert all(type(v) is list for v in vectors)

    def test_loaded_and_built_weights_are_equal(self, tmp_path):
        w = centering_adapter_weights(6, 0.25)
        save_transformer_weights(w, tmp_path / "w.json")
        assert load_transformer_weights(tmp_path / "w.json") == w

    def test_a_packed_matrix_is_not_copied_and_a_listed_one_is_left_as_it_was(self):
        w = random_transformer_weights(4, seed=1)
        listed = Matrix.identity(4)
        again = replace(w, w_o=listed, w_q=[w.w_q[0]])
        assert again.w_q[0] is w.w_q[0] and again.w1 is w.w1
        assert type(listed.values) is list
        assert again.w_o.values == array("d", listed.values)

    def test_the_rigged_adapter_loads_into_packed_memory(self, tmp_path):
        # 222,336 values: 1.78 MB packed, 7.12 MB as Python floats.
        path = tmp_path / "adapter.json"
        save_transformer_weights(centering_adapter_weights(192, 0.25), path)
        tracemalloc.start()
        try:
            w = load_transformer_weights(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.d == 192
        assert held < 2.5e6
        assert peak < 5e6


class TestValuesFile:
    """Adapter weights are a JSON header and a file of packed little-endian float64."""

    def test_the_files_hold_the_documented_header_and_tensor_order(self, tmp_path):
        w = random_transformer_weights(4, h=2, d_ff=3, seed=4)
        w = replace(w, b1=[0.5, -0.0, 2.0], ln2_bias=[1.0, 2.0, 3.0, 4.0])
        save_transformer_weights(w, tmp_path / "w.json")
        assert json.loads((tmp_path / "w.json").read_text()) == {
            "d": 4, "h": 2, "d_ff": 3, "eps": 1e-5, "values": "w.f64",
        }
        order = [w.w_q[0], w.w_k[0], w.w_v[0], w.w_q[1], w.w_k[1], w.w_v[1], w.w_o, w.w1,
                 w.b1, w.w2, w.b2, w.ln1_gain, w.ln1_bias, w.ln2_gain, w.ln2_bias]
        flat = [x for t in order for x in (t.values if isinstance(t, Matrix) else t)]
        assert len(flat) == 4 * 4 * 4 + 2 * 4 * 3 + 3 + 5 * 4
        assert (tmp_path / "w.f64").read_bytes() == struct.pack(f"<{len(flat)}d", *flat)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(1, 8).flatmap(
            lambda d: st.tuples(
                st.just(d), st.sampled_from([h for h in range(1, d + 1) if d % h == 0])
            )
        ),
        st.integers(1, 6),
        st.integers(0, 2**32),
    )
    def test_save_then_load_keeps_every_bit_on_either_byte_order(self, dims, d_ff, seed):
        d, h = dims
        w = bit_weights(d, h, d_ff, random.Random(seed))
        files = {}
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            for big_endian in (False, True):  # True takes the byteswap path on this host
                patch.setattr(errors, "BIG_ENDIAN", big_endian)
                path = Path(tmp) / f"{big_endian}.json"
                save_transformer_weights(w, path)
                again = load_transformer_weights(path)
                assert again == w
                assert float_hexes(astuple(again)) == float_hexes(astuple(w))
                files[big_endian] = path.with_suffix(".f64").read_bytes()
        # A host of the other byte order would write each value's bytes reversed.
        native = files[errors.BIG_ENDIAN]
        swapped = b"".join(native[i : i + 8][::-1] for i in range(0, len(native), 8))
        assert files[not errors.BIG_ENDIAN] == swapped

    @pytest.mark.parametrize("fault", ["truncated", "oversized", "missing"])
    def test_a_values_file_of_the_wrong_size_or_missing_is_a_config_error(self, tmp_path, fault):
        path, values = tmp_path / "w.json", tmp_path / "w.f64"
        save_transformer_weights(random_transformer_weights(4, h=2, d_ff=3, seed=0), path)
        data = values.read_bytes()  # 4·16 + 2·4·3 + 3 + 5·4 = 111 values
        if fault == "missing":
            values.unlink()
            expected = f"cannot read values file {values}: [Errno 2] No such file or directory"
        else:
            values.write_bytes(data[:-1] if fault == "truncated" else data + bytes(8))
            size = 887 if fault == "truncated" else 896
            expected = f"values file {values} has {size} bytes, expected 888 (111 float64s)"
        with pytest.raises(ConfigError, match=f"^{re.escape(f'bad adapter weights {path}: ')}"
                           f"{re.escape(expected)}"):
            load_transformer_weights(path)

    def test_weights_saved_under_a_values_name_are_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="their own values file"):
            save_transformer_weights(centering_adapter_weights(2), tmp_path / "w.f64")
        assert list(tmp_path.iterdir()) == []
