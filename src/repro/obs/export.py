"""Exporters: JSON-lines dumps and aligned text tables.

Two formats, both deterministic:

* **JSON lines** — one JSON object per line; metrics first in
  sorted-name order, then spans in start order.  Machine-readable
  (the CI job parses every line), diff-able, and byte-identical
  across identical seeded runs.
* **Text table** — the aligned style the CLI already uses for the
  paper tables, for humans reading a terminal.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = [
    "jsonl_lines",
    "dump_jsonl",
    "parse_jsonl",
    "render_table",
    "render_spans",
]


def _encode(record: Dict[str, Any]) -> str:
    # sort_keys + explicit separators: byte-stable across runs.
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def jsonl_lines(
    registry: MetricsRegistry, tracer: Optional[Tracer] = None
) -> List[str]:
    """Every metric (sorted by name) then every span (start order)."""
    lines = [_encode(snap) for snap in registry.snapshot()]
    if tracer is not None:
        lines.extend(_encode(span.snapshot()) for span in tracer.spans)
    return lines


def dump_jsonl(
    target, registry: MetricsRegistry, tracer: Optional[Tracer] = None
) -> int:
    """Write the JSON-lines dump to a path or file object; returns the
    number of lines written."""
    lines = jsonl_lines(registry, tracer)
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    return len(lines)


def parse_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse a dump back into records; raises ValueError on any
    malformed line (the CI artifact check)."""
    records = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError("line %d is not JSON: %s" % (number, exc))
        if not isinstance(record, dict) or "kind" not in record:
            raise ValueError("line %d is not a metrics record" % number)
        records.append(record)
    return records


def _format_rows(headers: Sequence[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def render_table(registry: MetricsRegistry) -> str:
    """Aligned name/kind/value table; histograms show count, mean and
    the p50/p99 bucket edges."""
    rows: List[List[str]] = []
    for instrument in registry.instruments():
        if isinstance(instrument, Histogram):
            value = (
                "count=%d mean=%.1f p50<=%d p99<=%d"
                % (
                    instrument.count,
                    instrument.mean,
                    instrument.percentile(50),
                    instrument.percentile(99),
                )
                if instrument.count
                else "count=0"
            )
        else:
            value = (
                "%g" % instrument.value
                if isinstance(instrument.value, float)
                else str(instrument.value)
            )
        rows.append([instrument.name, instrument.kind, value])
    return _format_rows(["metric", "kind", "value"], rows)


def render_spans(tracer: Tracer) -> str:
    """Aligned span table in start order, with tree-style indentation."""
    depth: Dict[int, int] = {}
    rows: List[List[str]] = []
    for span in tracer.spans:
        level = depth.get(span.parent_id, -1) + 1 \
            if span.parent_id is not None else 0
        depth[span.span_id] = level
        duration = (
            "%.3f" % span.duration_ms if span.finished else "(open)"
        )
        attrs = " ".join(
            "%s=%s" % (k, span.attributes[k])
            for k in sorted(span.attributes)
        )
        rows.append([
            "  " * level + span.name,
            "%.3f" % span.start_ms,
            "%.3f" % span.end_ms if span.finished else "-",
            duration,
            attrs,
        ])
    return _format_rows(
        ["span", "start ms", "end ms", "duration ms", "attributes"], rows
    )
