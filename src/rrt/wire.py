"""The one reader of the binary formats: ``.rrtd`` descriptors (``rrt.data``),
``.rrtm`` checkpoints (``rrt.model``) and ``.rrti`` indexes (``rrt.retrieval``).
Each is little-endian and starts with the header ``4-byte magic | u32 version``.

Error policy: bytes that cannot be read as the format raise DataFormatError
with the offset of the first failing byte.  That is 0 for a wrong magic, 4 for
a wrong version, the start of the field a cut file ends inside (one ``take``,
``unpack`` or ``array`` call reads one field), the first trailing byte, or,
raised by the format module, the field holding a value no file may hold.  A
file that parses but disagrees with its own config raises IntegrityError.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataFormatError


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
