import math
import struct
import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(1234)))


def _peak_bytes(fn, warm_up=False) -> int:
    """The most bytes tracemalloc holds while `fn()` runs.  With `warm_up`,
    one untraced call first keeps lazy set-up out of the figure."""
    if warm_up:
        fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """`peak_bytes(fn, warm_up=False)`: the tracemalloc peak of `fn()`."""
    return _peak_bytes


class _FullDisk:
    """A file whose writes after the first fail, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("No space left on device")
        return self.fh.write(data)

    def __getattr__(self, name):  # any other file method reaches the file
        return getattr(self.fh, name)


@pytest.fixture
def full_disk_open():
    """An `open` to set on `tscontrast.data`, where `whole_file` opens every
    file the package writes: files it opens fail on their second write."""
    return lambda *args, **kwargs: _FullDisk(open(*args, **kwargs))


# Malformed parts of a TSDM v2 file: byte offset, the bytes written there, and
# what `load_matrix` says.  The header is 18 bytes: the version is bytes 4-5,
# the metric tag bytes 6-13 and N bytes 14-17; the body starts at cell (0, 1).
_TSDM_DEFECTS = {
    "earlier-version": (4, b"\x01\x00", "unsupported cache version 1"),
    "undecodable-tag": (6, b"\xff\xfe\x00\x00\x00\x00\x00\x00", "unknown metric"),
    "unknown-tag": (6, b"xyz\x00\x00\x00\x00\x00", "unknown metric 'xyz'"),
    "non-finite-value": (18, struct.pack("<d", math.nan),
                         "normalized distance nan at (0, 1) not finite"),
    "out-of-range": (18, struct.pack("<d", 1.5),
                     "normalized distance 1.5 at (0, 1) outside [0, 1]"),
}


@pytest.fixture
def break_tsdm():
    """Rewrite one part of a saved matrix file; returns the expected error text."""
    def apply(path, defect):
        offset, patch, message = _TSDM_DEFECTS[defect]
        blob = bytearray(path.read_bytes())
        blob[offset:offset + len(patch)] = patch
        path.write_bytes(bytes(blob))
        return message
    return apply
