"""Binary PGM/PPM (netpbm) codec and the Frame pixel container.

Only maxval-255 binary variants (P5, P6) are supported; the encoder always
emits the canonical header form ``P5\\n<w> <h>\\n255\\n`` so that
encode(decode(x)) is byte-identical on canonical files.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import DataError


@dataclass(frozen=True)
class Frame:
    """Decoded 8-bit raster, row-major with interleaved channels."""

    width: int
    height: int
    channels: int  # 1 = grayscale, 3 = RGB
    pixels: bytes

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise DataError(f"unsupported channel count {self.channels}")
        if self.width < 1 or self.height < 1:
            raise DataError(f"bad frame size {self.width}x{self.height}")
        expected = self.width * self.height * self.channels
        if len(self.pixels) != expected:
            raise DataError(
                f"pixel payload is {len(self.pixels)} bytes, expected {expected}"
            )


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comments (comments run to end of line).
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in b" \t\r\n\x0b\x0c":
            pos += 1
        elif b == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise DataError("truncated header")
    start = pos
    while pos < n and data[pos] not in b" \t\r\n\x0b\x0c":
        pos += 1
    return data[start:pos], pos


def decode_pnm(data: bytes) -> Frame:
    """Decode a binary PGM (P5) or PPM (P6) byte string."""
    if len(data) < 2:
        raise DataError("too short for a PNM header")
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise DataError(f"unknown magic {magic!r}")
    pos = 2
    fields: list[int] = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_token(data, pos)
        try:
            value = int(token)
        except ValueError:
            raise DataError(f"non-numeric {name} {token!r}") from None
        if value <= 0:
            raise DataError(f"non-positive {name} {value}")
        fields.append(value)
    width, height, maxval = fields
    if maxval != 255:
        raise DataError(f"maxval {maxval}, only 255 is supported")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or data[pos] not in b" \t\r\n\x0b\x0c":
        raise DataError("missing whitespace before payload")
    pos += 1
    expected = width * height * channels
    payload = data[pos:]
    if len(payload) < expected:
        raise DataError(
            f"payload is {len(payload)} bytes, expected {expected}"
        )
    if len(payload) > expected:
        raise DataError("trailing bytes after pixel payload")
    return Frame(width, height, channels, payload)


def encode_pnm(frame: Frame) -> bytes:
    """Encode a Frame in canonical binary PNM form."""
    magic = b"P5" if frame.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, frame.width, frame.height)
    return header + frame.pixels
