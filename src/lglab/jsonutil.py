"""Deterministic JSON emission for reports.

Reports must be byte-identical across runs, so floats are rendered with a
fixed 17-significant-digit format (lossless for IEEE doubles) and dict fields
keep their insertion order. Non-finite floats render as Infinity/-Infinity/NaN,
which json.loads accepts back.
"""
from __future__ import annotations

import io
import json
import math
from typing import Any, Callable, TextIO

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


# every level of nesting is indented by this many spaces
_INDENT = 2
# dump_stable writes its pending pieces once a list holds this many
_FLUSH_PIECES = 4096


def dumps_stable(obj: Any) -> str:
    """Serialize to JSON with pinned float formatting and field order."""
    buf = io.StringIO()
    dump_stable(obj, buf)
    return buf.getvalue()


def dump_stable(obj: Any, file: TextIO) -> None:
    """Write the JSON text of obj to a text file, a bounded run of pieces at a
    time, so that a report with many checkpoints is never held whole as text."""
    out: list[str] = []

    def flush() -> None:
        file.write("".join(out))
        out.clear()

    _emit(obj, out, 0, flush)
    out.append("\n")
    flush()


def _emit(obj: Any, out: list[str], level: int, flush: Callable[[], None]) -> None:
    pad = " " * (_INDENT * (level + 1))
    close_pad = " " * (_INDENT * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{pad}{json.dumps(key, ensure_ascii=False)}: ")
            _emit(value, out, level + 1, flush)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(f"{close_pad}}}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        last = len(obj) - 1
        for k, value in enumerate(obj):
            out.append(pad)
            _emit(value, out, level + 1, flush)
            out.append(",\n" if k < last else "\n")
            if len(out) >= _FLUSH_PIECES:
                flush()
        out.append(f"{close_pad}]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
