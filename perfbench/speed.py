"""Scaling measured times to a reference speed of the host.

On a shared host the interpreter's speed swings by a third or more over
seconds to minutes, and a whole run can land in a slow spell. Medians
over batches cannot remove that, so every reported time is scaled by
how fast the host ran at the moment it was measured. A fixed
calibration chunk (no ptl code: a recursive walk over a small frozen
dataclass tree with Fraction arithmetic, the kind of work ptl's
evaluator does) is timed between queries. A time measured while the
chunk took ``c`` seconds is reported as ``time * REF_CHUNK_S / c``,
which reads as milliseconds on a host where the chunk takes
REF_CHUNK_S.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# A round figure for the chunk's time on the 2-vCPU Xeon host the
# benchmark was written on, with Python 3.11: its median was 1.0 ms in
# quiet spells and 1.6 ms in busy ones.
REF_CHUNK_S = 0.0012
SHARE = 0.2  # calibration time per unit of measured time, interleaved
PROBES = 9  # chunks timed around one fresh-process sample


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _build(depth: int, i: int):
    if depth == 0:
        return Fraction(i % 5 + 1, i % 3 + 2)
    return _Node("+" if i % 2 else "*", _build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1))


_TREE = _build(7, 1)


def _walk(node):
    match node:
        case _Node("+", left, right):
            return _walk(left) + _walk(right)
        case _Node(_, left, right):
            return _walk(left) * _walk(right) / (1 + _walk(right))
    return node


def chunk() -> float:
    """Seconds one calibration chunk takes now."""
    start = time.perf_counter()
    _walk(_TREE)
    return time.perf_counter() - start


class Window:
    """Calibration chunks interleaved with measured work: after each
    measured interval, chunks run until they add up to SHARE of the
    measured time. ``scale`` turns a time measured in the window into
    reference time."""

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.measured = 0.0
        self.spent = 0.0

    def after(self, measured: float) -> None:
        self.measured += measured
        while self.spent < SHARE * self.measured or not self.chunks:
            c = chunk()
            self.chunks.append(c)
            self.spent += c

    def scale(self) -> float:
        return REF_CHUNK_S / statistics.median(self.chunks)


def around(measure):
    """Run ``measure()`` (returning seconds) between two sets of probes
    and return its time scaled to reference speed."""
    before = [chunk() for _ in range(PROBES)]
    seconds = measure()
    after = [chunk() for _ in range(PROBES)]
    return seconds * REF_CHUNK_S / statistics.median(before + after)
