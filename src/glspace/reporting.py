"""CSV and console formatting helpers.

Reals are rendered with '%.17g' so a float round-trips exactly and the
same inputs always produce the same bytes.  Line terminator is pinned to
"\\n" regardless of platform for the same reason.
"""

from __future__ import annotations

import csv
import io
import math

__all__ = ["fmt", "format_row", "render_csv"]


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return "%.17g" % value
    return str(value)


def format_row(row) -> list:
    return [fmt(v) for v in row]


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(format_row(row))
    return buf.getvalue()
