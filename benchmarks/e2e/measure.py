"""Measurement primitives: percentiles, process-tree CPU and memory, the
environment stamp, and the closed-loop op driver."""

from __future__ import annotations

import os
import platform
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Set

from e2e import refclock

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- process tree ------------------------------------------------------------


def _stat_fields(pid: int) -> List[str]:
    # the command name (field 2) may contain spaces and parentheses;
    # everything after the last ')' is well-formed
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def process_tree(roots: Iterable[int]) -> Set[int]:
    """``roots`` and every live descendant of them."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parent_of[int(entry)] = int(_stat_fields(int(entry))[1])
            except (OSError, IndexError, ValueError):
                pass  # exited between listdir and open
    tree = set(roots)
    grew = True
    while grew:
        grew = False
        for pid, parent in parent_of.items():
            if parent in tree and pid not in tree:
                tree.add(pid)
                grew = True
    return tree


def tree_cpu_s(roots: Iterable[int]) -> float:
    """User + system CPU seconds of the tree, reaped children included.

    Other processes are read from ``/proc/<pid>/stat`` (10 ms ticks, fine
    over a multi-second region); this process uses ``process_time``.
    """
    total = 0.0
    me = os.getpid()
    for pid in process_tree(roots):
        try:
            f = _stat_fields(pid)
        except OSError:
            continue
        utime, stime, cutime, cstime = (int(x) for x in f[11:15])
        total += (cutime + cstime) * _TICK_S
        total += time.process_time() if pid == me else (utime + stime) * _TICK_S
    return total


def tree_peak_rss_mb(roots: Iterable[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the tree, in MB."""
    total_kb = 0
    for pid in process_tree(roots):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def host_ticks() -> List[int]:
    """``[all, stolen]`` CPU ticks of the machine since boot (``/proc/stat``).

    Stolen ticks are time the hypervisor gave a runnable virtual CPU to
    another guest: the one disturbance the host itself reports.
    """
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return [sum(fields), fields[7]]


# -- environment stamp -------------------------------------------------------


def _git_commit(root: str) -> str:
    """HEAD's commit read from ``.git`` directly ("unknown" outside a clone)."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(root, ".git", ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(root, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(root: str) -> Dict[str, Any]:
    import numpy

    from repro.plan import active_backend

    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel_backend": active_backend(),
        "platform": sys.platform,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- the closed loop ---------------------------------------------------------


class OpFailed(Exception):
    """An op produced a wrong answer or an unexpected HTTP status."""


#: An op is *disturbed*, and left out of the figures, when the hypervisor
#: took more than this share of the machine's CPU time over the ops around
#: it (the window the reference clock is smoothed over).  Measured on
#: ``serve_read``, 4 100 ops: under 1 % stolen, p50 59 ms and p90 69 ms; 3-5 %,
#: 67 and 81 ms; over 10 %, 85 and 141 ms; 87 % of the ops were under 2 %.
STOLEN_LIMIT = 0.02

#: ... unless fewer than this share of the ops would be left.
MIN_KEPT_SHARE = 0.2


def drive(
    op: Callable[[int], None],
    *,
    ops: int,
    roots: Iterable[int],
    on_op: Callable[[int], None] = lambda i: None,
) -> Dict[str, Any]:
    """Run ``op(0) .. op(ops - 1)`` back to back (one client, closed loop).

    The count is fixed beforehand, never a deadline: every run reports
    percentiles over the same number of ops however fast the host is.  The
    reference kernels run before the first op and after every op; their
    own wall and CPU time are excluded from every figure.  An op that
    raises is a failed op: counted, reported on stderr, and left out of
    the latency samples.  Returns per-op samples plus what normalisation
    needs; :func:`summarise` turns them into metrics.
    """
    roots = list(roots)
    raw: List[float] = []
    ok: List[bool] = []
    cpu: List[float] = []
    refs = [refclock.now()]
    ticks = [host_ticks()]
    cpu_before = tree_cpu_s(roots)
    for i in range(ops):
        on_op(i)
        t0 = time.perf_counter()
        try:
            op(i)
            good = True
        except Exception as exc:  # the benchmark must keep running and report it
            good = False
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        raw.append(time.perf_counter() - t0)
        ok.append(good)
        c0 = time.process_time()
        refs.append(refclock.now())
        ref_cpu = time.process_time() - c0
        ticks.append(host_ticks())
        cpu_after = tree_cpu_s(roots)
        cpu.append(cpu_after - cpu_before - ref_cpu)
        cpu_before = cpu_after
    return {"raw": raw, "ok": ok, "cpu": cpu, "refs": refs, "ticks": ticks,
            "peak_rss_mb": tree_peak_rss_mb(roots)}


def stolen_shares(ticks: Sequence[Sequence[int]],
                  half_window: int = refclock.HALF_WINDOW) -> List[float]:
    """Per op, the share of CPU ticks stolen over the ops around it.

    ``ticks[i]`` and ``ticks[i + 1]`` are the ``[all, stolen]`` readings
    that bracket op ``i``.  A tick is 10 ms, so one op is too short to
    judge alone; the window is the one :func:`refclock.smooth` uses.
    """
    n = len(ticks) - 1
    out = []
    for i in range(n):
        lo, hi = ticks[max(0, i - half_window)], ticks[min(n, i + 1 + half_window)]
        out.append((hi[1] - lo[1]) / max(hi[0] - lo[0], 1))
    return out


def summarise(run: Dict[str, Any]) -> Dict[str, Any]:
    """End-to-end figures of one :func:`drive` result, normalised and raw.

    Failed ops are left out, and so are disturbed ones (``STOLEN_LIMIT``)
    as long as ``MIN_KEPT_SHARE`` of the ops remain; a run disturbed from
    end to end is reported whole.
    """
    slow = refclock.smooth(run["refs"])
    stolen = stolen_shares(run["ticks"])
    good = [i for i, fine in enumerate(run["ok"]) if fine]
    if not good:
        raise OpFailed("every op failed; there is nothing to report")
    calm = [i for i in good if stolen[i] <= STOLEN_LIMIT]
    kept = calm if len(calm) >= MIN_KEPT_SHARE * len(run["ok"]) else good
    raw = [run["raw"][i] for i in kept]
    norm = [run["raw"][i] / slow[i] for i in kept]
    whole = [run["raw"][i] / slow[i] for i in good]  # what leaving nothing out would report
    n = len(kept)
    all_ticks, stolen_ticks = (b - a for a, b in zip(run["ticks"][0], run["ticks"][-1]))
    return {
        "ops": n,
        "failed": len(run["ok"]) - len(good),
        "disturbed": len(good) - n,
        "op_p50_ms": percentile(norm, 0.50) * 1e3,
        "op_p90_ms": percentile(norm, 0.90) * 1e3,
        "op_p95_ms": percentile(norm, 0.95) * 1e3,
        "op_p99_ms": percentile(norm, 0.99) * 1e3,
        "op_max_ms": max(norm) * 1e3,
        "ops_per_s": n / sum(norm),
        "cpu_ms_per_op": sum(run["cpu"][i] / slow[i] for i in kept) / n * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
        "raw_op_p50_ms": percentile(raw, 0.50) * 1e3,
        "raw_op_p90_ms": percentile(raw, 0.90) * 1e3,
        "raw_ops_per_s": n / sum(raw),
        "raw_cpu_ms_per_op": sum(run["cpu"][i] for i in kept) / n * 1e3,
        "whole_op_p50_ms": percentile(whole, 0.50) * 1e3,
        "whole_op_p90_ms": percentile(whole, 0.90) * 1e3,
        "whole_ops_per_s": len(whole) / sum(whole),
        "ref_slowdown_p50": percentile(run["refs"], 0.50),
        "ref_slowdown_max": max(run["refs"]),
        "stolen_share": stolen_ticks / max(all_ticks, 1),
        # kept in out/runs.jsonl so a latency histogram can be drawn later
        "samples_ms": [round(x * 1e3, 3) for x in norm],
    }
