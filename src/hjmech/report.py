"""Deterministic report assembly.

A report is human-readable text followed by a machine block bounded by
``#--BEGIN-MACHINE--#`` / ``#--END-MACHINE--#`` lines.  Each machine line
has five tab-separated columns::

    TAG <tab> equation-id <tab> canonical-residual <tab> numeric-max <tab> verdict

Absent numeric data and verdicts render as "-".  Floats use 17
significant digits in the machine block and 3 in the human text.  Given
equal inputs, flags, and seed the whole report is byte-stable: all
iteration orders are fixed and all numeric sampling is seeded.
"""

from __future__ import annotations

from typing import Optional

from .hj import ResidualReport

MACHINE_BEGIN = "#--BEGIN-MACHINE--#"
MACHINE_END = "#--END-MACHINE--#"
INDENT = "  "  # of residual lines and of assumption and note items


def format_float(v: float) -> str:
    return "%.17g" % v


def format_brief(v: float) -> str:
    return "%.3g" % v


def format_setting(v) -> str:
    if isinstance(v, float):
        return "%g" % v
    return str(v)


class Report:
    """Collects human lines and machine rows; renders both at once."""

    def __init__(self):
        self._lines = []
        self._rows = []

    def text(self, line: str = ""):
        self._lines.append(line)

    def row(self, tag: str, eq_id: str, canonical: str,
            numeric_max: Optional[float] = None, verdict: Optional[str] = None):
        for piece in (tag, eq_id, canonical):
            if "\t" in piece or "\n" in piece:
                raise ValueError("machine columns must not contain tabs or newlines")
        self._rows.append((
            tag,
            eq_id,
            canonical,
            "-" if numeric_max is None else format_float(numeric_max),
            verdict or "-",
        ))

    def object_line(self, name: str, canonical: str):
        """A derived object: one human line and one machine row."""
        self.text("%s = %s" % (name, canonical))
        self.row("object", name, canonical)

    def add_residuals(self, rr: ResidualReport, id_prefix: str = ""):
        """Render every entry of a residual report, in order."""
        for e in rr.entries:
            line = "%s%s[%s]: %s" % (INDENT, e.tag, e.eq_id, e.verdict)
            if e.numeric_max is not None and e.verdict != "exact-zero":
                line += "  (max |r| = %s over %d samples)" % (
                    format_brief(e.numeric_max), rr.samples)
            self.text(line)
            residual = str(e.residual)  # printed once, for both lines
            if e.verdict != "exact-zero":
                self.text("%s  residual = %s" % (INDENT, residual))
            self.row(e.tag, id_prefix + e.eq_id, residual, e.numeric_max, e.verdict)

    def add_context(self, rr: ResidualReport):
        """Assumptions and notes carried by a residual report."""
        if rr.assumptions:
            self.text("assumptions:")
            for a in rr.assumptions:
                self.text("%s- %s" % (INDENT, a))
        if rr.notes:
            self.text("notes:")
            for m in rr.notes:
                self.text("%s- %s" % (INDENT, m))

    def render(self) -> str:
        out = list(self._lines)
        out.append(MACHINE_BEGIN)
        for row in self._rows:
            out.append("\t".join(row))
        out.append(MACHINE_END)
        return "\n".join(out) + "\n"
