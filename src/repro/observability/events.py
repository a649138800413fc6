"""The JSONL trace event schema: one JSON object per line, replayable.

Five event kinds, all sharing ``{"v": 1, "event": <kind>, "ts": <s>}``:

=============  ====================================================
``span_start``  ``span`` id, ``parent`` id or null, ``name``,
                ``attrs`` object, ``thread`` id
``span_end``    ``span`` id, ``name``, ``dur`` seconds
``point``       ``span`` id or null, ``name``, ``attrs`` object
``gauge``       ``name``, ``value``
``metrics``     final summary: ``counters``, ``gauges``,
                ``histograms`` objects
=============  ====================================================

:func:`validate_event` is the single source of truth for the schema —
the test suite, the CI trace-validation step and ``repro trace
--validate`` all call it.  A trace file is *replayable*: feeding its
lines to :func:`repro.observability.render.spans_from_events` rebuilds
the span tree, and to :func:`repro.observability.explain.explain_events`
rebuilds the derivation narrative, without re-running inference.
"""

from __future__ import annotations

import json
import threading
from typing import IO

SCHEMA_VERSION = 1

_NUMBER = (int, float)
_COMMON_FIELDS: dict[str, tuple] = {"v": (int,), "event": (str,), "ts": _NUMBER}
_EVENT_FIELDS: dict[str, dict[str, tuple]] = {
    "span_start": {
        "span": (int,),
        "parent": (int, type(None)),
        "name": (str,),
        "attrs": (dict,),
        "thread": (int,),
    },
    "span_end": {"span": (int,), "name": (str,), "dur": _NUMBER},
    "point": {"span": (int, type(None)), "name": (str,), "attrs": (dict,)},
    "gauge": {"name": (str,), "value": _NUMBER},
    "metrics": {"counters": (dict,), "gauges": (dict,), "histograms": (dict,)},
}


def validate_event(obj) -> list[str]:
    """Schema errors for one parsed event; an empty list means valid."""
    if not isinstance(obj, dict):
        return [f"event must be a JSON object, got {type(obj).__name__}"]
    errors: list[str] = []
    for name, types in _COMMON_FIELDS.items():
        if name not in obj:
            errors.append(f"missing required field `{name}`")
        elif not isinstance(obj[name], types) or isinstance(obj[name], bool):
            errors.append(f"field `{name}` has wrong type {type(obj[name]).__name__}")
    if errors:
        return errors
    if obj["v"] != SCHEMA_VERSION:
        errors.append(f"unsupported schema version {obj['v']!r}")
    kind = obj["event"]
    fields = _EVENT_FIELDS.get(kind)
    if fields is None:
        errors.append(f"unknown event kind `{kind}`")
        return errors
    for name, types in fields.items():
        if name not in obj:
            errors.append(f"{kind}: missing required field `{name}`")
        elif not isinstance(obj[name], types) or (
            isinstance(obj[name], bool) and bool not in types
        ):
            errors.append(
                f"{kind}: field `{name}` has wrong type {type(obj[name]).__name__}"
            )
    allowed = set(_COMMON_FIELDS) | set(fields)
    for name in obj:
        if name not in allowed:
            errors.append(f"{kind}: unexpected field `{name}`")
    if "attrs" in obj and isinstance(obj.get("attrs"), dict):
        for key in obj["attrs"]:
            if not isinstance(key, str):  # pragma: no cover — JSON keys are str
                errors.append(f"{kind}: non-string attrs key {key!r}")
    return errors


def validate_line(line: str) -> list[str]:
    """Schema errors for one raw JSONL line (parse errors included)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as error:
        return [f"not valid JSON: {error}"]
    return validate_event(obj)


class JsonlWriter:
    """A tracer sink writing one JSON object per line to a file handle."""

    def __init__(self, handle: IO[str]) -> None:
        self._handle = handle
        self._lock = threading.Lock()
        self.lines = 0

    def __call__(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=False, separators=(",", ":"))
        with self._lock:
            self._handle.write(line + "\n")
            self.lines += 1

    def close(self) -> None:
        with self._lock:
            self._handle.close()


def read_trace(path: str) -> list[dict]:
    """Parse a JSONL trace file back into a list of event dicts."""
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
