"""Correctness checks for one op's outcome.

Each oracle takes the op's exit code, stdout and CSV text and returns
None when the outcome is right, or a one-line reason.  The closed forms
below are derived by hand from the shipped models, independently of
hjmech:

* beam (mu = 1, rho = 24): q0'''' = -24 from rest, so q0(t) = -t^4;
* javelin, per axis: q'''' = -q'', so with initial jets (a, b, c, d)
  q(t) = (a + c) + (b + d) t - c cos t - d sin t; on phase space the
  Legendre map gives p0 = q' + q''' and p1 = -q''.
"""

from __future__ import annotations

import math
from typing import List, Optional

JAVELIN_TOL = 1e-9
BEAM_TOL = 1e-9
MACHINE_BEGIN = "#--BEGIN-MACHINE--#"
MACHINE_END = "#--END-MACHINE--#"


def machine_rows(stdout: str) -> List[List[str]]:
    lines = stdout.split("\n")
    try:
        start = lines.index(MACHINE_BEGIN)
        end = lines.index(MACHINE_END)
    except ValueError:
        return []
    return [line.split("\t") for line in lines[start + 1:end]]


def _classifications(stdout: str) -> List[str]:
    prefix = "  classification: "
    return [line[len(prefix):] for line in stdout.split("\n")
            if line.startswith(prefix)]


def _final_row(csv: Optional[str]) -> List[float]:
    last = csv.rstrip("\n").rsplit("\n", 1)[-1]
    return [float(v) for v in last.split(",")]


def regular(code, stdout, csv, params):
    for marker in ("regular: no", "hyperregular: no", "inverse: unavailable"):
        if marker in stdout:
            return "derived a singular system (%s)" % marker
    if not any(row[0] == "object" for row in machine_rows(stdout)):
        return "no derived object in the machine block"
    return None


def symbolic(code, stdout, csv, params):
    verdicts = {row[4] for row in machine_rows(stdout) if len(row) == 5}
    if not verdicts or not verdicts <= {"symbolic", "exact-zero"}:
        return "placeholder residuals were decided numerically: %s" % sorted(verdicts)
    if set(_classifications(stdout)) != {"skipped (placeholder components)"}:
        return "a placeholder candidate was classified"
    return None


def sides_agree(code, stdout, csv, params):
    found = _classifications(stdout)
    if len(found) != 2 or found[0] != found[1]:
        return "the two sides classify differently: %s" % found
    want = 1 if found[0] == "not-a-solution" else 0
    if code != want:
        return "exit %s for classification %s" % (code, found[0])
    return None


def strict(code, stdout, csv, params):
    found = _classifications(stdout)
    if found != ["strict-solution", "strict-solution"]:
        return "walpha member classified %s" % found
    return None


def brackets_zero(code, stdout, csv, params):
    rows = [row for row in machine_rows(stdout) if row[0] == "bracket"]
    if not rows or any(row[4] not in ("exact-zero", "numeric-zero")
                       for row in rows):
        return "family brackets do not vanish: %s" % rows
    return None


def beam_quartic(code, stdout, csv, params):
    t, q0 = _final_row(csv)[:2]
    if t != 1.0 or abs(q0 + 1.0) > BEAM_TOL:
        return "beam q0(%r) = %r, want -1" % (t, q0)
    return None


def _javelin_jets(a, b, c, d, t):
    """(q, q', q'', q''') of one axis at time t."""
    return ((a + c) + (b + d) * t - c * math.cos(t) - d * math.sin(t),
            (b + d) + c * math.sin(t) - d * math.cos(t),
            c * math.cos(t) + d * math.sin(t),
            -c * math.sin(t) + d * math.cos(t))


def javelin_closed_form(code, stdout, csv, params):
    rows = csv.rstrip("\n").split("\n")
    first = [float(v) for v in rows[0].split(",")][1:]
    final = _final_row(csv)
    t, state = final[0], final[1:]
    n = 3
    want = [0.0] * 12
    for A in range(n):
        if params[0] == "lagrangian":
            a, b, c, d = (first[o * n + A] for o in range(4))
            jets = _javelin_jets(a, b, c, d, t)
            for o in range(4):
                want[o * n + A] = jets[o]
        else:
            a, b, p0, p1 = (first[o * n + A] for o in range(4))
            c, d = -p1, p0 - b
            q, dq, ddq, _ = _javelin_jets(a, b, c, d, t)
            want[A], want[n + A] = q, dq
            want[2 * n + A], want[3 * n + A] = p0, -ddq
    err = max(abs(x - y) for x, y in zip(state, want))
    if t != 1.0 or err > JAVELIN_TOL:
        return "javelin %s flow is off its closed form by %g" % (params[0], err)
    return None


def lift_passes(code, stdout, csv, params):
    rows = [row for row in machine_rows(stdout) if row[0] == "lifting"]
    if len(rows) != 1 or rows[0][4] != "pass" or float(rows[0][3]) > 1e-6:
        return "lifting check failed: %s" % rows
    return None


ORACLES = {f.__name__: f for f in (
    regular, symbolic, sides_agree, strict, brackets_zero, beam_quartic,
    javelin_closed_form, lift_passes)}


def check(op, code, stdout, csv, stderr) -> Optional[str]:
    """The reason the op's outcome is wrong, or None."""
    if code not in op.codes:
        return "exit code %s, expected one of %s" % (code, op.codes)
    if code in (2, 3):
        if "hjmech: error:" not in stderr:
            return "exit %d without an error message" % code
        return None
    if op.golden is not None:
        with open(op.golden, encoding="utf-8") as f:
            if stdout != f.read():
                return "stdout differs from %s" % op.golden
    if op.csv is not None and not csv:
        return "no CSV written"
    if op.oracle is not None:
        return ORACLES[op.oracle](code, stdout, csv, op.params)
    return None
