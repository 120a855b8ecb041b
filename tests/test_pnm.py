from __future__ import annotations

import random
import re

import pytest

from protopipe.errors import DataError
from protopipe.media_io.pnm import Frame, decode_pnm, encode_pnm


def make_corpus(count=100, seed=1234):
    """Random frames biased toward degenerate sizes; includes 1x1 and 3x3."""
    rng = random.Random(seed)
    frames = [
        Frame(1, 1, 1, b"\x07"),
        Frame(1, 1, 3, bytes([255, 0, 0])),
        Frame(3, 3, 1, bytes(range(9))),
        Frame(3, 3, 3, bytes(range(27))),
    ]
    while len(frames) < count:
        w = rng.choice([1, 2, 3, 5, 17, 32])
        h = rng.choice([1, 2, 3, 4, 19, 32])
        c = rng.choice([1, 3])
        payload = bytes(rng.randrange(256) for _ in range(w * h * c))
        frames.append(Frame(w, h, c, payload))
    return frames


def test_decode_basic_pgm():
    frame = decode_pnm(b"P5 2 2 255 " + bytes([0, 64, 128, 255]))
    assert (frame.width, frame.height, frame.channels) == (2, 2, 1)
    assert frame.pixels == bytes([0, 64, 128, 255])  # row-major


def test_decode_one_pixel_ppm():
    frame = decode_pnm(b"P6 1 1 255 " + bytes([255, 0, 0]))
    assert frame.channels == 3
    assert frame.pixels == bytes([255, 0, 0])  # interleaved r, g, b


def test_encode_canonical_form():
    assert encode_pnm(Frame(1, 1, 1, b"\x07")) == b"P5\n1 1\n255\n\x07"
    data = encode_pnm(Frame(2, 1, 3, bytes(6)))
    assert data.startswith(b"P6\n2 1\n255\n")
    assert len(data) == len(b"P6\n2 1\n255\n") + 6


def test_round_trip_corpus():
    for frame in make_corpus():
        data = encode_pnm(frame)
        again = decode_pnm(data)
        assert again == frame
        # canonical files survive a second pass byte-identically
        assert encode_pnm(again) == data


def test_decode_accepts_comments_and_odd_whitespace():
    data = b"P5 # a comment\n2\t1 # another\n255\n" + bytes([9, 10])
    frame = decode_pnm(data)
    assert (frame.width, frame.height) == (2, 1)
    assert frame.pixels == bytes([9, 10])


def test_payload_byte_looking_like_whitespace_survives():
    # 0x0a inside the payload must not be eaten by the header parser.
    frame = decode_pnm(b"P5\n1 2\n255\n" + bytes([0x0A, 0x20]))
    assert frame.pixels == bytes([0x0A, 0x20])


MALFORMED = {
    b"": "too short for a PNM header",
    b"P": "too short for a PNM header",
    b"P7 1 1 255 \x00": "unknown magic b'P7'",
    b"P5 1 255 ": "truncated header",  # missing a header field
    b"P5 x 1 255 \x00": "non-numeric width b'x'",
    b"P5 0 1 255 ": "non-positive width 0",
    b"P5 -1 1 255 ": "non-positive width -1",
    b"P5 1 1 255": "missing whitespace before payload",  # no separator before payload
}


@pytest.mark.parametrize("data", list(MALFORMED))
def test_malformed_headers(data):
    with pytest.raises(DataError, match=f"^{re.escape(MALFORMED[data])}$"):
        decode_pnm(data)


def test_unsupported_maxval():
    with pytest.raises(DataError, match="^maxval 65535, only 255 is supported$"):
        decode_pnm(b"P5 1 1 65535 \x00\x00")


def test_truncated_payload():
    with pytest.raises(DataError, match="^payload is 2 bytes, expected 4$"):
        decode_pnm(b"P5 2 2 255 \x00\x01")


def test_trailing_bytes_rejected():
    with pytest.raises(DataError, match="^trailing bytes after pixel payload$"):
        decode_pnm(b"P5 1 1 255 \x00\x01")


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(1, 1, 2, b"\x00\x00")
    with pytest.raises(ValueError):
        Frame(0, 1, 1, b"")
    with pytest.raises(ValueError):
        Frame(2, 2, 1, b"\x00")


def test_file_round_trip(tmp_path):
    frame = Frame(3, 2, 3, bytes(range(18)))
    path = tmp_path / "f.ppm"
    path.write_bytes(encode_pnm(frame))
    assert decode_pnm(path.read_bytes()) == frame
