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


# Malformed parts of a TSDM v1 file: byte offset, the bytes written there, and
# what `load_matrix` says.  The header is 19 bytes; byte 6 is the normalized
# flag and the metric tag is bytes 7-14.
_TSDM_DEFECTS = {
    "unnormalized-flag": (6, b"\x00", "flag byte 0 is not 1: not a normalized distance matrix"),
    "undecodable-tag": (7, b"\xff\xfe\x00\x00\x00\x00\x00\x00", "unknown metric"),
    "unknown-tag": (7, b"xyz\x00\x00\x00\x00\x00", "unknown metric 'xyz'"),
    # cells (0, 0) and (0, 1)
    "non-finite-value": (19 + 8, struct.pack("<d", math.nan),
                         "normalized distance nan at (0, 1) not finite"),
    "out-of-range": (19 + 8, struct.pack("<d", 1.5),
                     "normalized distance 1.5 at (0, 1) outside [0, 1]"),
    "nonzero-diagonal": (19, struct.pack("<d", 0.25),
                         "normalized distance 0.25 at (0, 0) on a nonzero diagonal"),
    "asymmetric": (19 + 8, struct.pack("<d", 0.0078125),
                   "normalized distance 0.0078125 at (0, 1) unequal to its mirror"),
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
