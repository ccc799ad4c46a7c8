"""Per-layer spans and counters for the traced run.

:func:`install` wraps the public entry point of each layer, as the
pipeline and the verifier call it, with a recorder that keeps one span
per call (name, start, end, parent span, request id) in memory and adds
the call's seconds and outcome counts to per-layer totals.  Nothing in
the program changes: the wrappers replace module attributes at run time
and :func:`uninstall` puts the originals back.  :func:`write_spans`
dumps the spans as JSON when the run ends.

:func:`reconcile` compares the wrapper totals with the program's own
phase accounting (``repro.profile`` phases summed from
``WindowResult.phases``), which catches both a wrapper that misses
calls and a phase block that times the wrong thing.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

#: layer span name -> the repro.profile phase that times the same work.
PHASE_OF = {
    "opt": "opt",
    "analysis": "analysis",
    "interesting": "interestingness",
    "verify": "verify",
    "verify.static": "verify.static",
    "verify.testing": "verify.testing",
    "verify.exhaustive": "verify.exhaustive",
    "verify.sat": "verify.sat",
    "llm": "llm",
}

#: Reconciliation tolerance: wrapper seconds may differ from the phase
#: seconds by this share plus this many seconds per call (the phase
#: block and the wrapper bracket the same call a few microseconds apart).
TOLERANCE_SHARE = 0.05
TOLERANCE_PER_CALL = 50e-6


class Recorder:
    """Spans and per-layer totals of one traced run."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: List[dict] = []
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.request = ""
        self._open = threading.local()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, call: Callable, args, kwargs,
             outcome: Optional[Callable] = None):
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        index = len(self.spans)
        self.spans.append({"name": name, "request": self.request,
                           "parent": stack[-1] if stack else -1})
        stack.append(index)
        start = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = self.spans[index]
            span["start"] = start - self.origin
            span["end"] = end - self.origin
            self.seconds[name] = self.seconds.get(name, 0.0) + end - start
            self.count(name + ".calls")
        if outcome is not None:
            outcome(self, result, args)
        return result


RECORDER: Optional[Recorder] = None
_PATCHES: List[tuple] = []


def _patch(owner, attribute: str, name: str,
           outcome: Optional[Callable] = None) -> None:
    original = getattr(owner, attribute)

    def wrapper(*args, **kwargs):
        recorder = RECORDER
        if recorder is None:
            return original(*args, **kwargs)
        return recorder.span(name, original, args, kwargs, outcome)

    wrapper.__wrapped__ = original
    setattr(owner, attribute, wrapper)
    _PATCHES.append((owner, attribute, original))


# -- outcome counters --------------------------------------------------------
def _analysis_outcome(recorder, diagnostics, args) -> None:
    if diagnostics:
        recorder.count("analysis.rejects")


def _interesting_outcome(recorder, report, args) -> None:
    if not report.interesting:
        recorder.count("interesting.rejects")


def _verify_outcome(recorder, result, args) -> None:
    status = result.status
    if status not in ("proved", "validated", "refuted"):
        status = "unverified"
    recorder.count("verify." + status)


def _refuted_if_not_none(name):
    def outcome(recorder, result, args) -> None:
        if result is not None:
            recorder.count(name + ".refuted")
    return outcome


def _sat_outcome(recorder, result, args) -> None:
    recorder.count("verify.sat.conflicts", getattr(result, "conflicts", 0))


def _llm_outcome(recorder, responses, args) -> None:
    recorder.count("llm.requests", len(responses))
    for response in responses:
        recorder.count("llm.tokens", response.usage.prompt_tokens
                       + response.usage.completion_tokens)


def install() -> Recorder:
    """Wrap every layer boundary; returns the active recorder."""
    global RECORDER
    from repro.core import pipeline
    from repro.llm import backends
    from repro.verify import refinement

    if not _PATCHES:
        _patch(pipeline, "run_opt", "opt")
        _patch(pipeline, "verify_function", "analysis", _analysis_outcome)
        _patch(pipeline, "check_interestingness", "interesting",
               _interesting_outcome)
        _patch(pipeline, "check_refinement", "verify", _verify_outcome)
        _patch(refinement, "static_refutation", "verify.static",
               _refuted_if_not_none("verify.static"))
        _patch(refinement, "run_refinement_tests", "verify.testing",
               _refuted_if_not_none("verify.testing"))
        _patch(refinement, "check_exhaustive", "verify.exhaustive")
        # The SAT tier's entry point: encoding (encoder, circuit) plus
        # the CDCL solve (sat), as refinement's verify.sat phase times it.
        _patch(refinement, "_check_sat", "verify.sat", _sat_outcome)
        _patch(backends.CompletionBackend, "complete_many", "llm",
               _llm_outcome)
    RECORDER = Recorder()
    return RECORDER


def uninstall() -> None:
    global RECORDER
    RECORDER = None
    while _PATCHES:
        owner, attribute, original = _PATCHES.pop()
        setattr(owner, attribute, original)


def reconcile(recorder: Recorder, phases: Dict[str, float],
              untimed: Iterable[str] = ()) -> List[str]:
    """Problems where wrapper seconds and phase seconds disagree.

    A layer whose wrapper saw calls must have its phase; ``untimed``
    names the layers the program is known not to time on this path.
    """
    problems = []
    for name, phase in PHASE_OF.items():
        wrapped = recorder.seconds.get(name, 0.0)
        calls = recorder.counts.get(name + ".calls", 0)
        if phase not in phases:
            if calls and name not in untimed:
                problems.append(f"{name}: wrappers saw {calls:.0f} calls "
                                f"({wrapped:.4f}s) but no {phase} phase "
                                f"was recorded")
            continue
        timed = phases[phase]
        allowed = TOLERANCE_SHARE * timed + TOLERANCE_PER_CALL * calls
        if abs(wrapped - timed) > allowed:
            problems.append(f"{name}: wrappers {wrapped:.4f}s vs phase "
                            f"{phase} {timed:.4f}s over {calls:.0f} "
                            f"calls (allowed {allowed:.4f}s)")
    return problems


def write_spans(recorder: Recorder, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"spans": recorder.spans}, handle)
