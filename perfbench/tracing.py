"""In-memory spans around calls into opridge's public functions.

The program itself is not instrumented. ``patch_calls`` swaps a module
attribute (say ``opridge.harness.make_dataset``) for a wrapper and puts the
original back when its block ends; the Tracer's wrapper opens a span,
calls the original and closes the span. A span records its name, start,
end, the span open around it, and the cell it belongs to. Spans stay in
memory until ``write`` is called.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Union

SpanName = Union[str, Callable[..., str]]
# (owner, attribute, span name): calls made through owner.attribute are wrapped.
Target = tuple[Any, str, SpanName]
Wrap = Callable[[Callable[..., Any], SpanName], Callable[..., Any]]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    cell: tuple[int, int, int] | None  # (pass, n, trial); None outside cells

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@contextmanager
def patch_calls(targets: Iterable[Target], wrap: Wrap, missing: list[str]) -> Iterator[None]:
    """Replace each ``owner.attr`` by ``wrap(original, name)`` inside the block.

    A target the program no longer has is skipped and named in ``missing``;
    its cost then shows in whatever calls it instead.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            if not hasattr(owner, attr):
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                if label not in missing:
                    missing.append(label)
                continue
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original, name))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Collects nested spans; ``cell`` tags every span opened while set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cell: tuple[int, int, int] | None = None
        self.unpatched: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.cell))

    def wrap(self, fn: Callable[..., Any], name: SpanName) -> Callable[..., Any]:
        """``fn`` inside a span; a callable ``name`` sees the call's arguments."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    def traced_calls(self, targets: Iterable[Target]) -> Any:
        """Block inside which every call through a target gets a span."""
        return patch_calls(targets, self.wrap, self.unpatched)

    def totals(self, pass_index: int | None) -> dict[str, tuple[int, int]]:
        """Name -> (total ns, self ns) over one pass's spans (None: spans outside cells).

        Self time is a span's duration minus that of its children; calls
        are serial, so children never overlap.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.duration_ns
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for s in self.spans:
            if (s.cell[0] if s.cell else None) == pass_index:
                out[s.name][0] += s.duration_ns
                out[s.name][1] += s.duration_ns - child_ns[s.id]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: Path) -> None:
        doc = {"unpatched": self.unpatched, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n")
