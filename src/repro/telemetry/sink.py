"""JSONL trace export and the end-of-run summary table.

A trace file is newline-delimited JSON: one header line (schema version,
content-addressed run id, creation time), one line per span event, and
one line per counter/gauge.  The run id is derived from the executed
job keys (see :func:`run_id_for_keys` and :mod:`repro.engine.jobs`), so
the same experiment always traces under the same id.

:func:`summarize` renders the per-phase accounting table the CLI's
``repro trace summarize <file>`` subcommand prints and traced runs show
on stderr: per span name the call count, total and self time (total
minus time spent in nested spans), and the mean, p50 and p99 duration,
plus the learner-phase coverage — the fraction of traced job wall time
accounted for by the select/evaluate/refit/record phases — and all
counters.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "LEARNER_PHASES",
    "run_id_for_keys",
    "write_trace",
    "read_trace",
    "phase_totals",
    "phase_coverage",
    "summarize",
]

#: Bumped when the trace file layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: The learner phases whose totals partition a trial's wall time.
LEARNER_PHASES = (
    "learner.select",
    "learner.evaluate",
    "learner.refit",
    "learner.record",
)


def run_id_for_keys(keys: "list[str]") -> str:
    """Content-addressed run id: SHA-256 over the sorted job keys (16 hex)."""
    payload = "trace-run:" + ",".join(sorted(keys))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def write_trace(
    path: str,
    events: "list[dict]",
    counters: "dict[str, float] | None" = None,
    gauges: "dict[str, float] | None" = None,
    run_id: "str | None" = None,
    dropped: int = 0,
    forest_kernel: "str | None" = None,
) -> str:
    """Write one trace file (header + span events + counters); returns ``path``.

    ``run_id`` defaults to the id recorded by the last ``engine.run`` span
    in ``events`` (or ``"untagged"`` if none ran).  ``forest_kernel`` names
    the tree grower the run used (``"c"`` or ``"reference"``).
    """
    if run_id is None:
        run_id = "untagged"
        for event in events:
            if event.get("name") == "engine.run":
                run_id = event.get("attrs", {}).get("run_id", run_id)
    header = {
        "kind": "header",
        "schema": TRACE_SCHEMA_VERSION,
        "run_id": run_id,
        "created": time.time(),
        "n_events": len(events),
        "dropped_events": int(dropped),
        "forest_kernel": forest_kernel,
    }
    # repro: allow[IO001] observability output, never a result artifact; a torn trace is detectable via the header's n_events
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
        for name, value in sorted((counters or {}).items()):
            fh.write(
                json.dumps({"kind": "counter", "name": name, "value": value})
                + "\n"
            )
        for name, value in sorted((gauges or {}).items()):
            fh.write(
                json.dumps({"kind": "gauge", "name": name, "value": value})
                + "\n"
            )
    return path


def read_trace(path: str) -> dict:
    """Parse a trace file back into its parts.

    Returns ``{"header": dict, "events": [span dicts], "counters": {...},
    "gauges": {...}}``.  Unknown line kinds are ignored so newer traces
    stay readable.
    """
    header: dict = {}
    events: "list[dict]" = []
    counters: "dict[str, float]" = {}
    gauges: "dict[str, float]" = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "header":
                header = record
            elif kind == "span":
                events.append(record)
            elif kind == "counter":
                counters[record["name"]] = record["value"]
            elif kind == "gauge":
                gauges[record["name"]] = record["value"]
    return {
        "header": header,
        "events": events,
        "counters": counters,
        "gauges": gauges,
    }


def phase_totals(events: "list[dict]") -> "dict[str, dict]":
    """Per span name: ``{"count", "total", "self", "mean", "p50", "p99"}`` (seconds).

    Self time subtracts the duration of directly nested spans, recovered
    from the recorded per-thread nesting depths: within one ``(pid, tid)``
    stream, spans are well nested, so ordering by start time and popping
    a stack on non-increasing depth reconstructs the parent chain.
    """
    spans = [e for e in events if e.get("kind") == "span"]
    by_thread: "dict[tuple, list[dict]]" = {}
    for event in spans:
        by_thread.setdefault((event.get("pid"), event.get("tid")), []).append(event)
    child_time: "dict[int, float]" = {}
    for stream in by_thread.values():
        stream.sort(key=lambda e: (e["ts"], -e.get("depth", 0)))
        stack: "list[dict]" = []
        for event in stream:
            depth = event.get("depth", 0)
            while stack and stack[-1].get("depth", 0) >= depth:
                stack.pop()
            if stack:
                parent = stack[-1]
                child_time[id(parent)] = (
                    child_time.get(id(parent), 0.0) + event["dur"]
                )
            stack.append(event)
    totals: "dict[str, dict]" = {}
    durations: "dict[str, list[float]]" = {}
    for event in spans:
        entry = totals.setdefault(
            event["name"], {"count": 0, "total": 0.0, "self": 0.0}
        )
        entry["count"] += 1
        entry["total"] += event["dur"]
        entry["self"] += max(0.0, event["dur"] - child_time.get(id(event), 0.0))
        durations.setdefault(event["name"], []).append(event["dur"])
    for name, entry in totals.items():
        entry["mean"] = entry["total"] / entry["count"]
        ordered = sorted(durations[name])
        entry["p50"] = _percentile(ordered, 50)
        entry["p99"] = _percentile(ordered, 99)
    return totals


def _percentile(ordered: "list[float]", q: float) -> float:
    """The ``q``-th percentile of sorted values, interpolating linearly
    between closest ranks (numpy's default method)."""
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def phase_coverage(events: "list[dict]") -> "tuple[float, float, float]":
    """``(phase_total, job_wall, fraction)`` of learner-phase accounting.

    ``phase_total`` sums the :data:`LEARNER_PHASES` totals; ``job_wall``
    sums the ``engine.job`` span durations (falling back to the overall
    event extent when no job spans were recorded).  The fraction is the
    acceptance signal: the per-phase totals must explain (nearly) all of
    the traced wall time.
    """
    totals = phase_totals(events)
    # engine.prepare (the once-per-process benchmark split, incl. measuring
    # the test labels) is a direct child of the first engine.job and can
    # dominate it on tiny runs, so it counts toward the accounted time.
    phases = LEARNER_PHASES + ("engine.prepare",)
    phase_total = sum(totals[p]["total"] for p in phases if p in totals)
    if "engine.job" in totals:
        job_wall = totals["engine.job"]["total"]
    else:
        spans = [e for e in events if e.get("kind") == "span"]
        if spans:
            t0 = min(e["ts"] for e in spans)
            t1 = max(e["ts"] + e["dur"] for e in spans)
            job_wall = t1 - t0
        else:
            job_wall = 0.0
    fraction = phase_total / job_wall if job_wall > 0 else math.nan
    return phase_total, job_wall, fraction


def _format_row(cells: "list[str]", widths: "list[int]") -> str:
    return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()


def summarize(trace: "dict | list[dict]") -> str:
    """Render the summary table for a parsed trace (or a raw event list)."""
    if isinstance(trace, list):
        trace = {"header": {}, "events": trace, "counters": {}, "gauges": {}}
    events = trace.get("events", [])
    totals = phase_totals(events)
    header = trace.get("header", {})
    run_id = header.get("run_id", "untagged")
    lines = [
        f"[trace] run {run_id}: {len(events)} span events"
        + (
            f" ({header['dropped_events']} dropped)"
            if header.get("dropped_events")
            else ""
        )
    ]
    if header.get("forest_kernel"):
        lines.append(f"forest kernel: {header['forest_kernel']}")
    rows = [["phase", "count", "total(s)", "self(s)", "mean(ms)", "p50(ms)", "p99(ms)"]]
    for name in sorted(totals, key=lambda n: -totals[n]["total"]):
        entry = totals[name]
        rows.append(
            [
                name,
                str(entry["count"]),
                f"{entry['total']:.3f}",
                f"{entry['self']:.3f}",
                f"{entry['mean'] * 1e3:.2f}",
                f"{entry['p50'] * 1e3:.2f}",
                f"{entry['p99'] * 1e3:.2f}",
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines.extend(_format_row(r, widths) for r in rows)
    phase_total, job_wall, fraction = phase_coverage(events)
    if job_wall > 0:
        lines.append(
            f"accounted phases (select+evaluate+refit+record+prepare): "
            f"{phase_total:.3f}s of {job_wall:.3f}s traced job time "
            f"({fraction * 100:.1f}%)"
        )
    counters = trace.get("counters", {})
    gauges = trace.get("gauges", {})
    if counters or gauges:
        lines.append("counters:")
        for name, value in sorted({**counters, **gauges}.items()):
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name} = {shown}")
    return "\n".join(lines)
