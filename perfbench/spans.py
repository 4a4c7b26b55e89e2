"""In-memory spans around the benchmark's calls into each ering layer.

A span is recorded only from the benchmark's own code, around a call into
a layer's public function: the span's name is ``<layer>.<function>``.
Calls the program makes internally (``chsh_optimize`` validating its
input, say) are attributed to the layer that was called.  Every layer span
has the item span of its work item as parent, so all spans of one item
share that item's id.

With tracing off, ``Tracer.call`` is a plain call and nothing is stored.
"""

from __future__ import annotations

import json
import time

LAYERS = ("states", "entanglement", "bell", "source", "tomography", "cli")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # (span_id, parent_id, name, tag, t0, t1); item spans have parent 0
        self.spans: list[tuple[int, int, str, str | None, float, float]] = []
        self._item = 0
        self._next_id = 1

    def call(self, name: str, fn, *args, tag: str | None = None, **kwargs):
        """Call ``fn(*args, **kwargs)``, recording a span named ``name`` if tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.spans.append((self._next_id, self._item, name, tag, t0, t1))
            self._next_id += 1

    def begin_item(self) -> float:
        if self.enabled:
            self._item = self._next_id
            self._next_id += 1
        return time.perf_counter()

    def end_item(self, kind: str, t0: float) -> float:
        t1 = time.perf_counter()
        if self.enabled:
            self.spans.append((self._item, 0, f"item.{kind}", None, t0, t1))
            self._item = 0
        return t1 - t0

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        """Durations in seconds of every span called ``name`` (and ``tag``, if given)."""
        return [
            t1 - t0
            for _, _, n, g, t0, t1 in self.spans
            if n == name and (tag is None or g == tag)
        ]

    def layer_time(self, prefixes: tuple[str, ...]) -> float:
        """Summed duration of the layer spans whose name starts with a prefix.

        Layer spans never nest (they are recorded only around benchmark
        calls), so the sum is the time spent inside those layers.
        """
        return sum(
            t1 - t0
            for _, parent, n, _, t0, t1 in self.spans
            if parent != 0 and n.startswith(prefixes)
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, tag, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "tag": tag,
                         "start_s": t0, "end_s": t1}
                    )
                    + "\n"
                )
