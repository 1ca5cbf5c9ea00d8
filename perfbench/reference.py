"""A fixed piece of work that measures how fast the CPU runs right now.

On a shared host a CPU's speed drifts by tens of percent over seconds
to minutes, as other tenants come and go, and a run's median follows
that drift.  The benchmark therefore runs this reference before the
first and after every timed command, on the same CPU as the command,
and scales each time by ``REFERENCE_S`` over the mean of the two
reference times around it.  The reference mixes the kinds of work the
workloads do: an interpreter loop, a numpy sort of an array larger than
the caches, and a small object pipeline (frozen dataclasses, a dict, a
sort, a JSON round trip).  It never touches the program, so a change to
the program moves only the command's side of the ratio.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

#: The reference's median time on a 2-core Xeon (Sapphire Rapids) VM.  It
#: only sets the scale: scaled times read as seconds on such a machine.
REFERENCE_S = 0.30

_ARRAY = np.random.default_rng(0).random(1_500_000)


@dataclass(frozen=True)
class _Item:
    key: tuple
    value: float


def reference_s() -> float:
    """Seconds the reference work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(700_000):
        total += i * i
    for _ in range(4):
        np.sort(_ARRAY)
    items = [_Item((i % 97, i), (i * 7919 % 10007) / 10007) for i in range(25_000)]
    index = {item.key: item for item in items}
    ranked = sorted(items, key=lambda item: (item.value, item.key))
    back = json.loads(json.dumps([{"k": list(item.key), "v": item.value} for item in ranked]))
    sum(index[tuple(d["k"])].value for d in back)
    return time.perf_counter() - start


def scaled(samples: list[float], references: list[float]) -> list[float]:
    """Each sample scaled by the reference times measured just before and after it."""
    if len(references) != len(samples) + 1:
        raise ValueError("need one reference time before and one after each sample")
    return [s * 2 * REFERENCE_S / (a + b) for s, a, b in zip(samples, references, references[1:])]
