"""Unit tests for the span tracer: the off switch, context propagation
(across threads too), the plain-dict image, and the rendered tree."""

import contextvars
import threading

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _no_leaked_collectors():
    yield
    assert not trace.tracing_active(), "a test leaked an open collector"


# ---------------------------------------------------------------------------
# the off switch
# ---------------------------------------------------------------------------


def test_span_is_null_when_no_collector_is_open():
    assert trace.span("anything") is trace._NULL
    with trace.span("anything") as s:
        assert s is None
    assert trace.current() is None
    assert not trace.tracing_active()


def test_add_attrs_is_a_noop_when_untraced():
    trace.add_attrs(rows=5)  # must not raise


def test_active_count_restored_even_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with trace.collect("boom") as root:
            raise RuntimeError("kaput")
    assert not trace.tracing_active()
    assert root.attrs["error"] == "RuntimeError: kaput"


# ---------------------------------------------------------------------------
# span trees
# ---------------------------------------------------------------------------


def test_nested_spans_build_the_tree_with_timings():
    with trace.collect("root", job="t") as root:
        with trace.span("outer", k=1) as outer:
            with trace.span("inner") as inner:
                pass
        with trace.span("sibling"):
            pass
    assert root.attrs == {"job": "t"}
    assert [c.name for c in root.children] == ["outer", "sibling"]
    assert outer.children == [inner]
    assert outer.attrs == {"k": 1}
    assert root.wall_s >= outer.wall_s >= inner.wall_s >= 0.0
    # one trace id threads through the whole tree
    assert len(root.trace_id) == 16
    assert outer.trace_id == inner.trace_id == root.trace_id


def test_explicit_trace_id_is_honoured():
    with trace.collect("root", trace_id="deadbeefdeadbeef") as root:
        with trace.span("child") as child:
            pass
    assert root.trace_id == "deadbeefdeadbeef"
    assert child.trace_id == "deadbeefdeadbeef"


def test_failing_span_records_the_error_and_unwinds():
    with trace.collect("root") as root:
        with pytest.raises(ValueError):
            with trace.span("bad"):
                raise ValueError("nope")
        assert trace.current() is root  # unwound back to the root
    (bad,) = root.children
    assert bad.attrs["error"] == "ValueError: nope"


def test_current_and_add_attrs_target_the_innermost_span():
    with trace.collect("root") as root:
        trace.add_attrs(at="root")
        with trace.span("child") as child:
            assert trace.current() is child
            trace.add_attrs(at="child")
        assert trace.current() is root
    assert root.attrs["at"] == "root"
    assert child.attrs["at"] == "child"


# ---------------------------------------------------------------------------
# context isolation (threads never see each other's traces)
# ---------------------------------------------------------------------------


def test_collector_does_not_leak_into_other_threads():
    seen = {}

    def worker():
        # _ACTIVE is global, but this thread's context has no parent span
        seen["span"] = trace.span("from-thread")
        seen["current"] = trace.current()

    with trace.collect("root") as root:
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["span"] is trace._NULL
    assert seen["current"] is None
    assert root.children == []


def test_threads_each_collect_their_own_trace():
    roots = {}
    barrier = threading.Barrier(2)

    def worker(name):
        barrier.wait()
        with trace.collect(name) as root:
            with trace.span(f"{name}-child"):
                pass
        roots[name] = root

    threads = [threading.Thread(target=worker, args=(n,))
               for n in ("left", "right")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert [c.name for c in roots["left"].children] == ["left-child"]
    assert [c.name for c in roots["right"].children] == ["right-child"]
    assert roots["left"].trace_id != roots["right"].trace_id


# ---------------------------------------------------------------------------
# the plain-dict image; spans from a copied context on another thread
# ---------------------------------------------------------------------------


def test_to_dict_is_a_plain_image_of_the_tree():
    with trace.collect("root") as root:
        with trace.span("a", rows=3):
            with trace.span("b"):
                pass
    image = root.to_dict()
    assert image["name"] == "root"
    (a,) = image["children"]
    assert a["name"] == "a" and a["attrs"] == {"rows": 3}
    assert [b["name"] for b in a["children"]] == ["b"]
    assert a["wall_s"] == root.children[0].wall_s


def test_a_copied_context_nests_another_threads_span_under_the_caller():
    # how the parallel tier's morsel spans reach the caller's trace
    def morsel():
        with trace.span("morsel 0", morsel=0):
            pass

    with trace.collect("root") as root:
        with trace.span("plan.execute") as execute:
            worker = threading.Thread(
                target=contextvars.copy_context().run, args=(morsel,)
            )
            worker.start()
            worker.join()
    (child,) = execute.children
    assert (child.name, child.attrs) == ("morsel 0", {"morsel": 0})
    assert child.trace_id == root.trace_id


# ---------------------------------------------------------------------------
# the process-wide default + rendering
# ---------------------------------------------------------------------------


def test_enable_disable_toggle_the_embedder_default_only():
    assert not trace.enabled()
    trace.enable()
    try:
        assert trace.enabled()
        # the default does NOT activate engine instrumentation by itself
        assert not trace.tracing_active()
        assert trace.span("x") is trace._NULL
    finally:
        trace.disable()
    assert not trace.enabled()


def test_render_shows_names_timings_and_sorted_attrs():
    with trace.collect("root") as root:
        with trace.span("first", zeta=1, alpha="x" * 100):
            pass
        with trace.span("second"):
            pass
    text = trace.render(root)
    lines = text.splitlines()
    assert lines[0].startswith("root  [")
    assert "ms wall" in lines[0] and "ms cpu" in lines[0]
    assert lines[1].startswith("├─ first")
    assert lines[2].startswith("└─ second")
    # attrs are sorted by key and long values truncated to 80 chars
    assert lines[1].index("alpha=") < lines[1].index("zeta=")
    assert "x" * 77 + "..." in lines[1]
