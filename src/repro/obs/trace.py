"""Context-propagated span tracing for the whole engine.

A *span* is one timed unit of work — a physical operator's ``execute``,
a parallel morsel, an IVM delta apply, a served request — carrying a
name, free-form attributes (rows in/out, annotation-array bytes, tier,
fallback cause), wall-clock and CPU time, and child spans.  Spans from
one logical request share a ``trace_id`` so client logs, the slow-query
log and error responses correlate.

Tracing is **off by default** and costs one module-global integer check
per instrumentation site while off (the benchmark's
``obs.collect_overhead_x`` is what turning it on costs).  It activates
only inside a :func:`collect` block, which installs a root span on the
*current context* (:mod:`contextvars`, so concurrent threads and tasks
each see their own trace, never each other's):

    with trace.collect("my request") as root:
        plan.execute()            # operator spans attach under ``root``
    print(render(root))

Worker processes have no access to the parent's context; the parallel
tier ships each morsel's span tree back inside the result payload as
plain dicts (:meth:`Span.to_dict` / :meth:`Span.from_dict`) and the
parent grafts them under its own span, keyed by morsel id.

:func:`enable` flips a process-wide default that long-running embedders
(the serving layer) consult to trace every request without per-request
opt-in; the engine itself only ever checks for an installed collector.
"""

from __future__ import annotations

import contextvars
import time
import uuid
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "add_attrs",
    "collect",
    "current",
    "disable",
    "enable",
    "enabled",
    "new_trace_id",
    "span",
    "tracing_active",
]

#: Count of live :func:`collect` blocks in this process — the one-word
#: fast gate every instrumentation site checks before doing anything.
_ACTIVE = 0

#: The innermost open span on *this* context (task / thread), or None.
_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Process-wide default for embedders ("trace every request?").
_ENABLED = False


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed unit of work: name, attrs, children, wall/CPU seconds."""

    __slots__ = ("name", "trace_id", "attrs", "children", "wall_s", "cpu_s",
                 "_t0", "_c0")

    def __init__(self, name: str, trace_id: Optional[str] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.trace_id = trace_id
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.children: List[Span] = []
        self.wall_s: float = 0.0
        self.cpu_s: float = 0.0
        self._t0 = 0.0
        self._c0 = 0.0

    def _start(self) -> None:
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()

    def _finish(self) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._c0

    # -- cross-process shipping ---------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict image (picklable / JSON-able for worker payloads)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  trace_id: Optional[str] = None) -> "Span":
        span = cls(data["name"], trace_id=trace_id, attrs=dict(data["attrs"]))
        span.wall_s = data["wall_s"]
        span.cpu_s = data["cpu_s"]
        span.children = [cls.from_dict(c, trace_id) for c in data["children"]]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span {self.name!r} {self.wall_s * 1e3:.3f}ms "
            f"children={len(self.children)}>"
        )


class _NullSpanContext:
    """The shared disabled-path context manager: no span, no cost."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_name", "_attrs", "_parent", "_span", "_token")

    def __init__(self, name: str, parent: Span, attrs: Dict[str, Any]):
        self._name = name
        self._parent = parent
        self._attrs = attrs

    def __enter__(self) -> Span:
        span = Span(self._name, trace_id=self._parent.trace_id,
                    attrs=self._attrs)
        self._parent.children.append(span)
        self._token = _CURRENT.set(span)
        self._span = span
        span._start()
        return span

    def __exit__(self, exc_type, exc, tb):
        self._span._finish()
        if exc_type is not None:
            self._span.attrs["error"] = f"{exc_type.__name__}: {exc}"
        _CURRENT.reset(self._token)
        return False


def span(name: str, **attrs: Any):
    """A child span under the current trace, or a no-op when none is open.

    Cheap while tracing is off (one global check, one shared null context
    manager); sites on true hot paths should additionally guard the call
    itself with :func:`tracing_active` so attribute construction is free.
    """
    if not _ACTIVE:
        return _NULL
    parent = _CURRENT.get()
    if parent is None:
        # a collector is open somewhere, but not on this context
        return _NULL
    return _SpanContext(name, parent, attrs)


class _Collector:
    __slots__ = ("_name", "_trace_id", "_attrs", "_root", "_token")

    def __init__(self, name: str, trace_id: Optional[str],
                 attrs: Dict[str, Any]):
        self._name = name
        self._trace_id = trace_id
        self._attrs = attrs

    def __enter__(self) -> Span:
        global _ACTIVE
        root = Span(self._name, trace_id=self._trace_id or new_trace_id(),
                    attrs=self._attrs)
        self._root = root
        self._token = _CURRENT.set(root)
        _ACTIVE += 1
        root._start()
        return root

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        self._root._finish()
        if exc_type is not None:
            self._root.attrs["error"] = f"{exc_type.__name__}: {exc}"
        _ACTIVE -= 1
        _CURRENT.reset(self._token)
        return False


def collect(name: str = "trace", trace_id: Optional[str] = None,
            **attrs: Any):
    """Open a trace: installs a root :class:`Span` on the current context
    and activates every instrumentation site reached from it until the
    block exits.  Yields the root span."""
    return _Collector(name, trace_id, attrs)


def tracing_active() -> bool:
    """Is any :func:`collect` block currently open in this process?"""
    return _ACTIVE > 0


def current() -> Optional[Span]:
    """The innermost open span on this context, or None."""
    if not _ACTIVE:
        return None
    return _CURRENT.get()


def add_attrs(**attrs: Any) -> None:
    """Merge attributes into the current span (no-op when untraced)."""
    if not _ACTIVE:
        return
    span = _CURRENT.get()
    if span is not None:
        span.attrs.update(attrs)


def graft(data: Dict[str, Any], **extra_attrs: Any) -> None:
    """Attach a shipped span tree (:meth:`Span.to_dict` image) under the
    current span — the parent-side half of the worker span channel."""
    if not _ACTIVE:
        return
    parent = _CURRENT.get()
    if parent is None:
        return
    child = Span.from_dict(data, trace_id=parent.trace_id)
    if extra_attrs:
        child.attrs.update(extra_attrs)
    parent.children.append(child)


def enable() -> None:
    """Set the process-wide "trace every request" default (consulted by
    the serving layer; the engine itself is driven by :func:`collect`)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Clear the process-wide tracing default."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """The process-wide tracing default (off unless :func:`enable` ran)."""
    return _ENABLED


def render(span: Span, *, indent: str = "") -> str:
    """Render a span tree as aligned text (one node per line).

    Each line shows the span name, wall and CPU milliseconds, and the
    recorded attributes — the body of ``explain_analyze`` output.
    """
    lines: List[str] = []
    _render_into(span, "", "", lines)
    return "\n".join(indent + line for line in lines)


def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        text = str(value)
        if len(text) > 80:
            text = text[:77] + "..."
        parts.append(f"{key}={text}")
    return "  " + " ".join(parts)


def _render_into(span: Span, prefix: str, child_prefix: str,
                 lines: List[str]) -> None:
    lines.append(
        f"{prefix}{span.name}  [{span.wall_s * 1e3:.3f}ms wall, "
        f"{span.cpu_s * 1e3:.3f}ms cpu]{_format_attrs(span.attrs)}"
    )
    children = span.children
    for i, child in enumerate(children):
        last = i == len(children) - 1
        connector = "└─ " if last else "├─ "
        extension = "   " if last else "│  "
        _render_into(child, child_prefix + connector,
                     child_prefix + extension, lines)
