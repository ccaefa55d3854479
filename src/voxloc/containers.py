"""Framed little-endian binary container helpers, and the type and range
checks shared by the config dataclasses.

All scene/weight/dataset files share the same primitive encoding: 4-byte
magic, u32 version, then fixed-layout sections. Reals are persisted as
little-endian float32 (finite, checked on read) or float64; integers as
little-endian u32/i32.
"""

from __future__ import annotations

import dataclasses
import io
import os
import struct
from typing import BinaryIO

import numpy as np


class FormatError(ValueError):
    """Structured load error; names the byte offset of the problem."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"at byte {offset}: {message}")
        self.offset = offset


def bound(default, lo=None, hi=None, *, strict=False):
    """A config field whose value check_bounds keeps at or above lo and at
    or below hi (strictly when strict). lo and hi are numbers or the name
    of another field of the same config."""
    return dataclasses.field(default=default,
                             metadata={"bound": (lo, hi, strict)})


_COMPARE = {">": np.greater, ">=": np.greater_equal,
            "<": np.less, "<=": np.less_equal}


# keyed by the annotation string, as the config modules postpone
# annotations; a bool is no int or float
_TYPES = {"bool": (bool, np.bool_), "int": (int, np.integer),
          "float": (int, float, np.integer, np.floating)}


def _has_type(value, typ: str) -> bool:
    if typ.startswith("tuple["):
        entries = typ[6:-1].split(", ")
        return (isinstance(value, tuple) and len(value) == len(entries)
                and all(map(_has_type, value, entries)))
    return isinstance(value, _TYPES[typ]) and (
        typ == "bool" or not isinstance(value, bool))


def check_bounds(config, section: str) -> None:
    """TypeError or ValueError naming section.key unless every field of a
    config dataclass has its annotated type, every float (and float-tuple
    entry) is finite and every bound() holds."""
    for f in dataclasses.fields(config):
        key, value = f"{section}.{f.name}", getattr(config, f.name)
        if not _has_type(value, f.type):
            raise TypeError(f"{key} must be {f.type}, got {value!r}")
        try:  # an int beyond the float range has no float value
            finite = "float" not in f.type or np.isfinite(
                np.asarray(value, np.float64)).all()
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{key} must be finite, got {value}")
        lo, hi, strict = f.metadata.get("bound", (None,) * 3)
        for end, op in ((lo, ">"), (hi, "<")):
            other = isinstance(end, str)
            limit = getattr(config, end) if other else end
            op += "" if strict else "="
            if end is not None and not np.all(_COMPARE[op](value, limit)):
                name = f"{section}.{end} = {limit}" if other else end
                raise ValueError(f"{key} must be {op} {name}, got {value}")


class Writer:
    def __init__(self, magic: bytes, version: int):
        self._buf = bytearray(magic)
        self.u32(version)

    def u32(self, v: int) -> None:
        self._buf += struct.pack("<I", v)

    def i32(self, v: int) -> None:
        self._buf += struct.pack("<i", v)

    def f32(self, v: float, what: str = "f32") -> None:
        self.f32_array([v], what)

    def u8(self, v: int) -> None:
        self._buf += struct.pack("<B", v)

    def f32_array(self, a: np.ndarray, what: str = "f32 array") -> None:
        """Refuses values the float32 cast leaves non-finite, which the
        reader would reject."""
        with np.errstate(over="ignore"):
            a = np.asarray(a, dtype="<f4")
        if not np.isfinite(a).all():
            raise ValueError(f"{what} does not fit a finite float32")
        self._buf += a.tobytes()

    def f64(self, v: float) -> None:
        self._buf += struct.pack("<d", v)

    def f64_array(self, a: np.ndarray) -> None:
        self._buf += np.asarray(a, dtype="<f8").tobytes()

    def u32_array(self, a) -> None:
        self._buf += np.asarray(a, dtype="<u4").tobytes()

    def bytes_(self, b: bytes) -> None:
        self._buf += b

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class Reader:
    """Reads a stream of known size: an open binary file, or bytes-like
    data wrapped in a BytesIO. Every read is bounds-checked against the
    size first, so a corrupt count never allocates beyond the file. The
    header must hold magic and version; kind names the format in errors."""

    def __init__(self, source: bytes | BinaryIO, magic: bytes, version: int,
                 kind: str):
        if isinstance(source, io.IOBase):
            self._size = os.fstat(source.fileno()).st_size
        else:
            self._size = memoryview(source).nbytes
            source = io.BytesIO(source)
        self._stream = source
        self.offset = 0
        got = self.raw(4, "magic")
        if got != magic:
            raise FormatError(0, f"bad magic {got!r}, expected {magic!r} "
                                 f"for a {kind} file")
        got = self.u32("format version")
        if got != version:
            raise FormatError(4, f"unsupported {kind} format version {got}")

    def _check(self, n: int, what: str) -> None:
        if self.offset + n > self._size:
            raise FormatError(self.offset, f"truncated file while reading {what}")

    def _advance(self, got: int, n: int, what: str) -> None:
        if got != n:  # the file shrank below its size since it was opened
            raise FormatError(self.offset, f"truncated file while reading {what}")
        self.offset += n

    def raw(self, n: int, what: str = "bytes") -> bytes:
        self._check(n, what)
        chunk = self._stream.read(n)
        self._advance(len(chunk), n, what)
        return chunk

    def _array(self, count: int, dtype: str, what: str) -> np.ndarray:
        """count values of dtype, read straight into one new array."""
        n = count * np.dtype(dtype).itemsize
        self._check(n, what)
        out = np.empty(count, dtype=dtype)
        self._advance(self._stream.readinto(out), n, what)
        return out

    def _finite(self, values, what: str):
        """float32 values just read, unless one is NaN or infinite."""
        if not np.isfinite(values).all():
            start = self.offset - 4 * np.size(values)
            raise FormatError(start, f"non-finite value in {what}")
        return values

    @property
    def remaining(self) -> int:
        return self._size - self.offset

    def u32(self, what: str = "u32") -> int:
        return struct.unpack("<I", self.raw(4, what))[0]

    def i32(self, what: str = "i32") -> int:
        return struct.unpack("<i", self.raw(4, what))[0]

    def f32(self, what: str = "f32") -> float:
        return self._finite(struct.unpack("<f", self.raw(4, what))[0], what)

    def u8(self, what: str = "u8") -> int:
        return self.raw(1, what)[0]

    def f32_array(self, count: int, what: str = "f32 array") -> np.ndarray:
        # checked before the cast, which warns on a signalling NaN
        return self._finite(self._array(count, "<f4", what),
                            what).astype(np.float64)

    def f64(self, what: str = "f64") -> float:
        return struct.unpack("<d", self.raw(8, what))[0]

    def f64_array(self, count: int, what: str = "f64 array") -> np.ndarray:
        return self._array(count, "<f8", what)

    def u32_array(self, count: int, what: str = "u32 array") -> np.ndarray:
        return self._array(count, "<u4", what).astype(np.int64)

    def expect_end(self) -> None:
        if self.offset != self._size:
            raise FormatError(self.offset, "trailing bytes after payload")
