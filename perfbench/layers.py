"""Per-layer attribution, measured from outside the program.

:class:`LayerTrace` installs timing wrappers on the public entry points of
each layer (the table :data:`LAYERS`), records one span per call into a
benchmark-owned :class:`repro.obs.Tracer`, and folds the spans into
per-layer self time with :func:`repro.obs.profile_spans`.  Nothing inside
``src/`` is instrumented: the wrappers replace class attributes for the
duration of a ``with LayerTrace(...)`` block and the originals are put
back on exit.

A layer whose module, class or method no longer exists is recorded in
:attr:`LayerTrace.missing` and reports zero, so a refactor that renames an
entry point shows up as a missing layer instead of a crash.
"""

from __future__ import annotations

import importlib
import resource
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["Layer", "LAYERS", "LayerTrace", "RSS_LAYERS"]


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: span ``name`` around ``module.qualname``."""

    name: str
    module: str
    qualname: str

    @property
    def target(self) -> str:
        return f"{self.module}.{self.qualname}"


#: The wrapped entry points.  Two rows may share a span name when the same
#: layer has a dense and a sparse entry point (the detector calls whichever
#: the configured coefficient core provides).
LAYERS: tuple[Layer, ...] = (
    Layer("engine.query_cycle", "repro.p2p.engine", "BatchedQueryEngine.run_query_cycle"),
    Layer("engine.begin_interval", "repro.p2p.engine", "BatchedQueryEngine.begin_interval"),
    Layer("collusion.bursts", "repro.collusion.models", "CollusionSchedule.bursts"),
    Layer("coeff.closeness", "repro.core.closeness", "ClosenessComputer.closeness_matrix"),
    Layer("coeff.closeness", "repro.core.sparse", "SparseClosenessComputer.pair_values"),
    Layer("coeff.similarity", "repro.core.similarity", "SimilarityComputer.similarity_matrix"),
    Layer("coeff.similarity", "repro.core.sparse", "SparseSimilarityComputer.pair_values"),
    Layer("detector.analyze", "repro.core.detector", "CollusionDetector.analyze"),
    Layer("socialtrust.update", "repro.core.socialtrust", "SocialTrust.update"),
    Layer("backend.update", "repro.reputation.eigentrust", "EigenTrust.update"),
    Layer("ledger.drain", "repro.reputation.ledger", "RatingLedger.drain"),
    Layer("metrics.snapshot", "repro.p2p.metrics", "MetricsCollector.snapshot"),
    Layer("serve.apply", "repro.serve.service", "ReputationService.apply"),
    Layer("serve.query", "repro.serve.service", "ReputationService.query"),
    Layer("serve.watermark", "repro.serve.service", "ReputationService.run_watermark"),
)

#: Layers whose calls also record the rise in peak RSS (``ru_maxrss``).
RSS_LAYERS = frozenset({"coeff.closeness", "coeff.similarity", "detector.analyze"})

#: Span name of the benchmark's own set-up calls (build through the facade).
SETUP_SPAN = "setup"


def _max_rss_kib() -> int:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _TimedBursts:
    """Iterator proxy timing each resume of a burst generator as one span.

    Nested schedules (a composite yielding from its parts) produce nested
    spans; only the outermost resume counts a burst, so a burst yielded
    through two generators is counted once.
    """

    def __init__(self, trace: "LayerTrace", inner: Iterator[Any]) -> None:
        self._trace = trace
        self._inner = inner

    def __iter__(self) -> "_TimedBursts":
        return self

    def __next__(self) -> Any:
        trace = self._trace
        trace._burst_depth += 1
        try:
            with trace.tracer.span("collusion.bursts"):
                item = next(self._inner)
        finally:
            trace._burst_depth -= 1
        if trace._burst_depth == 0:
            trace.counts["collusion.bursts.count"] += 1
        return item


class LayerTrace:
    """Wrap the layer entry points for one traced run.

    ``colluders`` is the set of colluder ids; it turns detector findings
    into a precision count.  Use as a context manager; call :meth:`fold`
    between operations (when no wrapped call is open) to keep the span
    buffer small, and :meth:`metrics` at the end.
    """

    def __init__(self, colluders: frozenset[int] = frozenset()) -> None:
        from repro.obs import Tracer

        self.tracer = Tracer()
        self.colluders = colluders
        self.missing: list[str] = []
        self.counts: dict[str, float] = {
            "collusion.bursts.count": 0,
            "detector.findings": 0,
            "detector.colluder_findings": 0,
            "backend.updates": 0,
            "backend.iterations": 0,
        }
        self.rss_growth_kib: dict[str, int] = {name: 0 for name in RSS_LAYERS}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._burst_depth = 0
        self._installed: list[tuple[type, str, Any]] = []

    # -- wrapper installation ------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        try:
            for layer in LAYERS:
                self._install(layer)
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()

    def _resolve(self, layer: Layer) -> tuple[type, str] | None:
        try:
            module = importlib.import_module(layer.module)
        except ImportError:
            return None
        class_name, _, attr = layer.qualname.rpartition(".")
        cls = getattr(module, class_name, None)
        if not isinstance(cls, type) or not callable(getattr(cls, attr, None)):
            return None
        return cls, attr

    def _install(self, layer: Layer) -> None:
        resolved = self._resolve(layer)
        if resolved is None:
            self.missing.append(layer.target)
            return
        cls, attr = resolved
        if layer.name == "collusion.bursts":
            # The abstract method is overridden by every schedule; wrap each
            # concrete override (including schedules defined in other
            # modules, e.g. compromised pre-trusted collusion).
            for sub in _subclasses(cls):
                if attr in sub.__dict__:
                    self._patch(sub, attr, self._bursts_wrapper(sub.__dict__[attr]))
            return
        self._patch(cls, attr, self._call_wrapper(layer.name, getattr(cls, attr)))

    def _patch(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._installed.append((cls, attr, cls.__dict__.get(attr, _ABSENT)))
        setattr(cls, attr, wrapper)

    def remove(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._installed:
            cls, attr, original = self._installed.pop()
            if original is _ABSENT:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _call_wrapper(self, name: str, original: Callable) -> Callable:
        tracer = self.tracer
        after = _AFTER.get(name)
        track_rss = name in RSS_LAYERS
        trace = self

        def wrapper(instance, *args, **kwargs):
            if track_rss:
                before = _max_rss_kib()
            with tracer.span(name):
                result = original(instance, *args, **kwargs)
            if track_rss:
                trace.rss_growth_kib[name] += _max_rss_kib() - before
            if after is not None:
                after(trace, instance)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def _bursts_wrapper(self, original: Callable) -> Callable:
        trace = self

        def wrapper(instance, *args, **kwargs):
            return _TimedBursts(trace, iter(original(instance, *args, **kwargs)))

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    # -- folding and reporting -----------------------------------------------

    def fold(self) -> None:
        """Fold the finished spans into the running per-layer totals and
        clear the tracer.  Call only when no wrapped call is open."""
        from repro.obs import profile_spans

        for stat in profile_spans(self.tracer.events()):
            self.calls[stat.name] = self.calls.get(stat.name, 0) + stat.calls
            self.self_s[stat.name] = self.self_s.get(stat.name, 0.0) + stat.self_s
        self.tracer.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything folded so far."""
        self.fold()
        counts = self.counts
        out: dict[str, float] = {
            f"{name}.self_s": self.self_s.get(name, 0.0)
            for name in sorted({layer.name for layer in LAYERS} | {SETUP_SPAN})
        }
        out["engine.query_cycle.calls"] = self.calls.get("engine.query_cycle", 0)
        out["collusion.bursts.count"] = counts["collusion.bursts.count"]
        for name in sorted(RSS_LAYERS):
            out[f"{name}.rss_growth_mib"] = self.rss_growth_kib[name] / 1024.0
        out["detector.findings"] = counts["detector.findings"]
        out["detector.precision"] = (
            counts["detector.colluder_findings"] / counts["detector.findings"]
            if counts["detector.findings"]
            else 0.0
        )
        out["backend.iterations"] = (
            counts["backend.iterations"] / counts["backend.updates"]
            if counts["backend.updates"]
            else 0.0
        )
        out["trace.missing_layers"] = len(self.missing)
        return out


_ABSENT = object()


def _subclasses(cls: type) -> list[type]:
    out: list[type] = []
    stack = [cls]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(current.__subclasses__())
    return out


def _after_socialtrust(trace: LayerTrace, system: Any) -> None:
    detection = system.last_detection
    if detection is None:
        return
    colluders = trace.colluders
    trace.counts["detector.findings"] += len(detection.findings)
    trace.counts["detector.colluder_findings"] += sum(
        1 for f in detection.findings if f.rater in colluders and f.ratee in colluders
    )


def _after_backend(trace: LayerTrace, backend: Any) -> None:
    trace.counts["backend.updates"] += 1
    trace.counts["backend.iterations"] += backend.last_iterations


#: Count readers run after a wrapped call returns; each reads only public
#: accessors of the instance the call was made on.
_AFTER: dict[str, Callable[[LayerTrace, Any], None]] = {
    "socialtrust.update": _after_socialtrust,
    "backend.update": _after_backend,
}
