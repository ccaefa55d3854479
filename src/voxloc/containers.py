"""Framed little-endian binary container helpers.

All scene/weight/dataset files share the same primitive encoding: 4-byte
magic, u32 version, then fixed-layout sections. Reals are persisted as
little-endian float32 (finite, checked on read) or float64; integers as
little-endian u32/i32.
"""

from __future__ import annotations

import struct

import numpy as np


class FormatError(ValueError):
    """Structured load error; names the byte offset of the problem."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"at byte {offset}: {message}")
        self.offset = offset


class Writer:
    def __init__(self):
        self._buf = bytearray()

    def magic(self, tag: bytes) -> None:
        assert len(tag) == 4
        self._buf += tag

    def u32(self, v: int) -> None:
        self._buf += struct.pack("<I", v)

    def i32(self, v: int) -> None:
        self._buf += struct.pack("<i", v)

    def f32(self, v: float) -> None:
        self._buf += struct.pack("<f", v)

    def u8(self, v: int) -> None:
        self._buf += struct.pack("<B", v)

    def f32_array(self, a: np.ndarray) -> None:
        self._buf += np.asarray(a, dtype="<f4").tobytes()

    def f64(self, v: float) -> None:
        self._buf += struct.pack("<d", v)

    def f64_array(self, a: np.ndarray) -> None:
        self._buf += np.asarray(a, dtype="<f8").tobytes()

    def u32_array(self, a) -> None:
        self._buf += np.asarray(a, dtype="<u4").tobytes()

    def u8_array(self, a) -> None:
        self._buf += np.asarray(a, dtype="u1").tobytes()

    def bytes_(self, b: bytes) -> None:
        self._buf += b

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class Reader:
    def __init__(self, data: bytes):
        self._data = data
        self.offset = 0

    def _take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self._data):
            raise FormatError(self.offset, f"truncated file while reading {what}")
        chunk = self._data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def _finite(self, values, what: str):
        """float32 values just read, unless one is NaN or infinite."""
        if not np.isfinite(values).all():
            start = self.offset - 4 * np.size(values)
            raise FormatError(start, f"non-finite value in {what}")
        return values

    @property
    def remaining(self) -> int:
        return len(self._data) - self.offset

    def raw(self, n: int, what: str = "bytes") -> bytes:
        return self._take(n, what)

    def expect_magic(self, tag: bytes) -> None:
        got = self._take(4, "magic")
        if got != tag:
            raise FormatError(0, f"bad magic {got!r}, expected {tag!r}")

    def u32(self, what: str = "u32") -> int:
        return struct.unpack("<I", self._take(4, what))[0]

    def i32(self, what: str = "i32") -> int:
        return struct.unpack("<i", self._take(4, what))[0]

    def f32(self, what: str = "f32") -> float:
        return self._finite(struct.unpack("<f", self._take(4, what))[0], what)

    def u8(self, what: str = "u8") -> int:
        return self._take(1, what)[0]

    def f32_array(self, count: int, what: str = "f32 array") -> np.ndarray:
        raw = self._take(4 * count, what)
        # checked before the cast, which warns on a signalling NaN
        return self._finite(np.frombuffer(raw, dtype="<f4"),
                            what).astype(np.float64)

    def f64(self, what: str = "f64") -> float:
        return struct.unpack("<d", self._take(8, what))[0]

    def f64_array(self, count: int, what: str = "f64 array") -> np.ndarray:
        raw = self._take(8 * count, what)
        return np.frombuffer(raw, dtype="<f8").copy()

    def u32_array(self, count: int, what: str = "u32 array") -> np.ndarray:
        raw = self._take(4 * count, what)
        return np.frombuffer(raw, dtype="<u4").astype(np.int64)

    def u8_array(self, count: int, what: str = "u8 array") -> np.ndarray:
        raw = self._take(count, what)
        return np.frombuffer(raw, dtype="u1").copy()

    def expect_end(self) -> None:
        if self.offset != len(self._data):
            raise FormatError(self.offset, "trailing bytes after payload")
