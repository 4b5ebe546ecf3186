"""repro.obs — the zero-dependency telemetry subsystem.

Three small modules, one concern each:

- :mod:`repro.obs.trace`    — context-propagated spans (off by default,
  one integer check per site while off)
- :mod:`repro.obs.metrics`  — thread-safe counters / gauges / histograms
  with Prometheus text exposition; the single ledger behind the tier and
  resilience counters
- :mod:`repro.obs.analyze`  — ``explain_analyze``: run a query traced,
  render the span tree next to the plan text

This package must stay importable without :mod:`repro.plan` (the plan
compiler and :mod:`repro.faults` import :mod:`repro.obs.metrics` at
module load); :mod:`~repro.obs.analyze` therefore imports the compiler
lazily and is *not* imported here.
"""

from repro.obs import metrics, trace
from repro.obs.metrics import REGISTRY, render_prometheus
from repro.obs.trace import Span, collect, render, span

__all__ = [
    "REGISTRY",
    "Span",
    "collect",
    "explain_analyze",
    "analyze_query",
    "metrics",
    "render",
    "render_prometheus",
    "span",
    "trace",
]


def explain_analyze(*args, **kwargs):
    """See :func:`repro.obs.analyze.explain_analyze` (lazy import)."""
    from repro.obs.analyze import explain_analyze as _impl

    return _impl(*args, **kwargs)


def analyze_query(*args, **kwargs):
    """See :func:`repro.obs.analyze.analyze_query` (lazy import)."""
    from repro.obs.analyze import analyze_query as _impl

    return _impl(*args, **kwargs)
