"""Fixed reference work that measures the host's speed beside the program.

The host this benchmark runs on is a share of a busy machine: over a
minute the same code runs up to 1.4 times slower or faster, in wall and
in CPU time alike, so the median time of a 30 s run moves with the
neighbours rather than with the program. The benchmark therefore runs
this chunk of work, which never changes, right before and after every
program command, and scales each pass by how fast the chunk ran next to
it. The chunk does what the program does most — ``json`` text in and
out, small numpy arrays, Python floats — so that a slow spell slows both
alike. It imports nothing from kpcurve, so no change to the program
changes it.
"""

import gc
import json
import math
from time import perf_counter

import numpy as np

# Seconds one chunk takes at the nominal host speed (about its median on
# a 2-vCPU Xeon VM); scaled times are in these seconds.
NOMINAL_S = 0.0080
# A command is followed by chunks for at least this share of its own
# time, so that a long command's neighbourhood is sampled as well as a
# short one's.
SHARE = 0.25

_RNG = np.random.default_rng(20241112)
_LINES = [
    json.dumps({
        "case_id": f"ref{i:03d}",
        "frame_index": i,
        "keypoints": [[round(v, 6) for v in point] for point in _RNG.random((9, 3)).tolist()],
    })
    for i in range(120)
]


def _work() -> int:
    out = []
    for line in _LINES:
        row = json.loads(line)
        points = np.asarray(row["keypoints"])[:, :2]
        turn = math.radians(row["frame_index"])
        rotation = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
        moved = np.clip(points @ rotation.T, 0.0, 1.0)
        steps = np.diff(moved, axis=0)
        angles = np.degrees(np.arctan2(steps[:, 1], steps[:, 0]))
        out.append(json.dumps({
            "case_id": row["case_id"],
            "keypoints": [[round(v, 6) for v in point] for point in moved.tolist()],
            "max_deg": float(angles.max()),
        }))
    return sum(map(len, out))


def chunk_seconds() -> float:
    """Wall seconds of one reference chunk, with the collector held off
    so that the program's heap does not change what the chunk costs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(seconds: float) -> float:
    """Mean seconds of the chunks run one after another for at least
    ``seconds`` of wall time, and at least one chunk."""
    chunks = [chunk_seconds()]
    while sum(chunks) < seconds:
        chunks.append(chunk_seconds())
    return sum(chunks) / len(chunks)
