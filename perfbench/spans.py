"""Layer spans recorded from outside the program, for the traced run only.

The tracer replaces the names that ``kpcurve.cli`` and
``kpcurve.sequence`` call through (their module globals) with timing
wrappers, and puts the originals back on exit. Each call becomes a span
``(name, start, end, parent)``; spans stay in memory until the run ends.
A layer's self time is its spans' duration less the time their child
spans cover. A call site that no longer exists is reported as absent.
"""

import functools
import json
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, global name) -> span name; the parse generator's next() calls
# are timed as "report.parse"
CALL_SITES = {
    ("cli", "iter_frame_stream"): "report.parse",
    ("cli", "measure_stream"): "sequence.measure_stream",
    ("cli", "measurement_report"): "report.measurement_report",
    ("cli", "dumps_report"): "report.dumps_report",
    ("cli", "evaluate_dataset"): "evaluation.evaluate_dataset",
    ("cli", "read_labels_csv"): "evaluation.read_labels_csv",
    ("cli", "sweep"): "synth.sweep",
    ("cli", "dumps_frame"): "report.dumps_frame",
    ("cli", "sweep_sidecar"): "report.sweep_sidecar",
    ("sequence", "polyline_angles"): "_kernels.polyline_angles",
    ("sequence", "middle_line"): "geometry.middle_line",
    ("sequence", "angle_set_from_row"): "geometry.angle_set_from_row",
}
ROOT = "cli.main"
MARK = "__perfbench_span__"


def wrapped_call_sites(modules: dict) -> list[str]:
    """Call sites that currently carry a tracing wrapper."""
    return [
        f"{mod}.{name}"
        for mod, name in CALL_SITES
        if hasattr(getattr(modules[mod], name, None), MARK)
    ]


class Tracer:
    """Spans and counts of one traced run, single-threaded.

    Span i is ``(names[i], starts[i], ends[i], parents[i])``, with parent
    -1 for a root; typed arrays keep a few hundred thousand spans small.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()
        self.counts[self.names[index]] += 1

    def wrap(self, name: str, func):
        """Return ``func`` recording one span per call."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)

        setattr(traced, MARK, name)
        return traced

    def wrap_stream(self, name: str, func):
        """Return ``func`` whose generator has each next() call recorded."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            items = func(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.counts["report.lines_parsed"] += 1
                yield item

        setattr(traced, MARK, name)
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every call site present in ``modules`` for the block."""
        originals = []
        self.absent = []
        try:
            for (mod, attr), name in CALL_SITES.items():
                module = modules[mod]
                func = getattr(module, attr, None)
                if func is None:
                    self.absent.append(f"{mod}.{attr}")
                    continue
                originals.append((module, attr, func))
                wrap = self.wrap_stream if name == "report.parse" else self.wrap
                setattr(module, attr, wrap(name, func))
            yield self
        finally:
            for module, attr, func in originals:
                setattr(module, attr, func)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less its children's time."""
        spent = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(spent)
        for duration, parent in zip(spent, self.parents):
            if parent >= 0:
                child_time[parent] += duration
        totals = defaultdict(float)
        for name, duration, covered in zip(self.names, spent, child_time):
            totals[name] += duration - covered
        return dict(totals)

    def dump(self, path) -> None:
        """Write names, counts and every span (µs from the first start) as JSON.

        Spans are written one row at a time, so the dump holds no second
        copy of them in memory.
        """
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        origin = self.starts[0] if self.starts else 0.0
        header = {
            "names": names,
            "counts": dict(self.counts),
            "absent": self.absent,
            "columns": ["name", "start_us", "end_us", "parent"],
        }
        with open(path, "w") as out:
            out.write(json.dumps(header)[:-1] + ', "spans": [')
            rows = zip(self.names, self.starts, self.ends, self.parents)
            for i, (n, s, e, p) in enumerate(rows):
                sep = "," if i else ""
                out.write(f"{sep}\n[{code[n]},{(s - origin) * 1e6:.2f},{(e - origin) * 1e6:.2f},{p}]")
            out.write("\n]}\n")
