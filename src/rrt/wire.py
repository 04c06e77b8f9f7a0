"""The one reader of the binary formats: ``.rrtd`` descriptors (``rrt.data``),
``.rrtm`` checkpoints (``rrt.model``) and ``.rrti`` indexes (``rrt.retrieval``).
Each is little-endian and starts with the header ``4-byte magic | u32 version``.

Error policy: bytes that cannot be read as the format raise DataFormatError
with the offset of the first failing byte.  That is 0 for a wrong magic, 4 for
a wrong version, the start of the field a cut file ends inside (one ``take``,
``unpack`` or ``array`` call reads one field), the first trailing byte, or,
raised by the format module, the field holding a value no file may hold.  A
file that parses but disagrees with its own config raises IntegrityError.

A NaN or infinite float where the format holds a real value (a local
position, a weight, an index vector entry) is such a value.  No format
carries a checksum, so corruption that keeps every field legal is not
detected: a flipped byte in a descriptor, weight or vector payload loads
without complaint as a different value.  When every byte of one small file
of each format (a 1,147-byte ``.rrtd`` of 4 records, the 3,792-byte
``.rrtm`` of a one-layer tiny model, a 289-byte raw ``.rrti`` of 4 vectors)
was flipped three ways (XOR with 0xFF, with 0x01, and with a random nonzero
byte), 3,314 of 3,441 ``.rrtd`` flips, 9,809 of 11,376 ``.rrtm`` flips and
813 of 867 ``.rrti`` flips loaded without complaint, and none ended in a
traceback.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataFormatError


def uint_limits(fmt: str) -> tuple[int, ...]:
    """The largest value each field of a struct format of unsigned integer
    codes holds, e.g. (2**32 - 1, 2**16 - 1) for "<IH"."""
    return tuple(2 ** (8 * struct.calcsize("<" + code)) - 1 for code in fmt.lstrip("<"))


class Reader:
    """Cursor over a whole file, past its checked magic and version."""

    def __init__(self, path, magic: bytes, version: int):
        with open(path, "rb") as fh:
            self.data = fh.read()
        self.off = 0
        if (got := self.take(4)) != magic:
            raise DataFormatError(f"bad magic {got!r}, expected {magic!r}", offset=0)
        if (got := self.unpack("<I")[0]) != version:
            raise DataFormatError(f"unsupported version {got}", offset=4)

    def take(self, n: int) -> bytes:
        left = len(self.data) - self.off
        if n > left:
            raise DataFormatError(f"truncated file: wanted {n} bytes, {left} left", offset=self.off)
        self.off += n
        return self.data[self.off - n : self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, n: int) -> np.ndarray:
        """n items of dtype, as a writable copy."""
        return np.frombuffer(self.take(n * np.dtype(dtype).itemsize), dtype=dtype).copy()

    def floats(self, n: int, what: str) -> np.ndarray:
        """n float32 values, as array() reads them; a NaN or infinite one is
        a value no file may hold, reported at its offset."""
        data = self.array("<f4", n)
        if not (finite := np.isfinite(data)).all():
            k = int(np.argmin(finite))
            raise DataFormatError(f"{what} holds a non-finite value ({data[k]}) at entry {k}",
                                  offset=self.off - 4 * (n - k))
        return data

    def items(self, dtype: np.dtype, n: int) -> np.ndarray:
        """Up to n packed items of a structured dtype, as one read-only view:
        fewer when the data ends first, the cursor then at the cut item."""
        n = min(n, (len(self.data) - self.off) // dtype.itemsize)
        out = np.frombuffer(self.data, dtype=dtype, count=n, offset=self.off)
        self.off += n * dtype.itemsize
        return out

    def end(self, after: str) -> None:
        """Raise on bytes after the last field, which is ``after``."""
        if left := len(self.data) - self.off:
            raise DataFormatError(f"{left} trailing bytes after {after}", offset=self.off)
