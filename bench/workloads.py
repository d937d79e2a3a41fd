"""Seeded inputs for the three benchmark workloads.

``build(workload, seed, workdir)`` writes the workload's model files into
``workdir`` and returns the ops of one pass.  An op is one
``hjmech.cli.main(argv)`` call together with what its outcome must be.
The same seed gives byte-identical files and argv lists; no two ops of a
pass share an argv.

Paths in argv are relative to the repository root, which is the working
directory while the benchmark runs, so reports that echo a path (the
``wrote FILE`` line of ``simulate``) are byte-stable across checkouts.

Why each workload exists:

* ``ladder`` is all symbolic derivation: canonicalization, diff and
  substitute, the Cartan and Euler-Lagrange solves, the Legendre map,
  pullbacks and printing.  Op cost grows with k*n along the (k, n)
  ladder, which is where a smaller structural layer should show.  Every
  residual is exact-zero or symbolic, so sampling and RK4 do no work.
* ``verdicts`` is decisions made by sampling: every residual that is not
  an exact zero is decided by 40 seeded points through
  ``expr.evaluate``, and radicands add domain rejections.  Many
  expressions are each evaluated 40 times.  It also carries the golden
  gate: the shipped ``derive`` transcripts and ``check javelin
  unknown``, which ``ladder`` runs too.
* ``flows`` is numeric integration: RK4 on lambdified fields at fine
  steps, and lifting every point through ``expr.evaluate``.  A few
  expressions are each evaluated thousands of times, the opposite use
  of the evaluator from ``verdicts``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

WORKLOADS = ("ladder", "verdicts", "flows")
DEFAULT_SEED = 1

LADDER = ((2, 2), (3, 2), (4, 2), (2, 4), (3, 3), (4, 3), (2, 6))
DERIVE_TOPICS = ("cartan", "energy", "field", "legendre", "hamiltonian",
                 "hamfield")
JAVELIN_L = "1/2*(q1_1^2 - q2_1^2 + q1_2^2 - q2_2^2 + q1_3^2 - q2_3^2)"
JAVELIN1D_L = "1/2*(q1_1^2 - q2_1^2)"
BEAM_HEAD = ("constant = mu 1 nonzero", "constant = rho 24")
BEAM_L = "1/2*mu*q2_1^2 + rho*q0_1"
WALPHA_A0 = "c2"
WALPHA_A1 = "(2*c2*q1_1 - q1_1^2 - 2*c1)^(1/2)"


@dataclass(frozen=True)
class Op:
    """One CLI call and the checks its outcome must pass.

    ``codes`` holds the exit codes that may occur; the oracle named by
    ``oracle`` decides which of them is right for the output at hand.
    ``seeded`` ops change with the seed, so their recorded digests are
    only compared when the run uses the recorded seed.
    """

    key: str
    argv: Tuple[str, ...]
    codes: Tuple[int, ...] = (0,)
    golden: Optional[str] = None
    csv: Optional[str] = None
    oracle: Optional[str] = None
    params: Tuple = ()
    seeded: bool = True


def _write(path: str, lines: List[str]):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _model_head(name: str, k: int, n: int, extra=()) -> List[str]:
    return ["[model]", "name = %s" % name, "k = %d" % k, "n = %d" % n,
            *extra, "", "[lagrangian]"]


def _number(x: float) -> str:
    return repr(float(x))


def _grid(rng: random.Random, lo: int, hi: int, den: int) -> float:
    """A seeded value on a binary grid, so it prints exactly."""
    return rng.randint(lo, hi) / den


# -- ladder -----------------------------------------------------------------


def random_regular_lagrangian(rng: random.Random, k: int, n: int) -> str:
    """A regular order-k Lagrangian in the shape of the acceptance corpus:
    a nondegenerate diagonal top-order kinetic term plus three couplings,
    a linear q0 term, a q0*q0 term across two axes and a q(k-1)*q(k-2)
    term.  The seed draws the coefficients and a relabelling of the axes,
    not the couplings' orders, and the kinetic coefficients are always
    odd halves (an integer one halves the cost of some derivations), so
    that op cost follows (k, n) and not the draw."""
    axis = [0] + rng.sample(range(1, n + 1), n)
    terms = ["%d/2*q%d_%d^2" % (rng.choice([1, 3, -1, -3]), k, A)
             for A in range(1, n + 1)]
    second = axis[2] if n > 1 else axis[1]
    for monomial in ("q0_%d" % axis[1],
                     "q0_%d*q0_%d" % (axis[1], second),
                     "q%d_%d*q%d_%d" % (k - 1, axis[1], k - 2, second)):
        terms.append("%d*%s" % (rng.choice([-2, -1, 1, 2, 3]), monomial))
    return " + ".join(terms)


def _ladder_model(name: str, k: int, n: int, L: str, states=()) -> List[str]:
    lines = _model_head(name, k, n) + ['L = "%s"' % L, "", "[section unknown]"]
    lines += ["s%d_%d = ?" % (j, A)
              for j in range(k, 2 * k) for A in range(1, n + 1)]
    for sname, values in states:
        lines += ["", "[state %s]" % sname,
                  "values = %s" % ", ".join(_number(v) for v in values)]
    return lines


def _ladder(rng: random.Random, workdir: str) -> List[Op]:
    ops = []
    for idx, (k, n) in enumerate(LADDER):
        name = "ladder_k%d_n%d" % (k, n)
        path = os.path.join(workdir, name + ".hjm")
        _write(path, _ladder_model(name, k, n,
                                   random_regular_lagrangian(rng, k, n)))
        # two derives per rung, rotating so the rungs cover all six
        # objects at least twice
        for topic in (DERIVE_TOPICS[2 * idx % 6], DERIVE_TOPICS[(2 * idx + 1) % 6]):
            ops.append(Op("%s/derive-%s" % (name, topic),
                          ("derive", path, topic), oracle="regular"))
        ops.append(Op("%s/check-unknown" % name, ("check", path, "unknown"),
                      oracle="symbolic"))
    return ops + _golden_ops()


def _golden_ops() -> List[Op]:
    """The 12 shipped ``derive`` transcripts and ``check javelin
    unknown``, compared byte for byte with tests/goldens/."""
    goldens = os.path.join("tests", "goldens")
    ops = [Op("%s/derive-%s" % (model, topic),
              ("derive", "models/%s.hjm" % model, topic),
              golden=os.path.join(goldens, "%s_derive_%s.txt" % (model, topic)),
              seeded=False)
           for model in ("javelin", "beam") for topic in DERIVE_TOPICS]
    ops.append(Op("javelin/check-unknown",
                  ("check", "models/javelin.hjm", "unknown"),
                  golden=os.path.join(goldens, "javelin_check_unknown.txt"),
                  seeded=False))
    return ops


# -- verdicts -----------------------------------------------------------------


def _random_base_polynomial(rng: random.Random, names: List[str]) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        factors = [rng.choice(names) for _ in range(rng.randint(0, 2))]
        terms.append("*".join([str(coeff)] + factors))
    return " + ".join(terms)


def _walpha_constants(rng: random.Random) -> Tuple[float, float]:
    """(c1, c2) with radius sqrt(c2^2 - 2*c1) >= 1, so the radicand
    2*c2*q1 - q1^2 - 2*c1 is positive on an interval of q1 that overlaps
    the sampling box [-2, 2] and sampling meets domain rejections."""
    return _grid(rng, -16, -4, 8), _grid(rng, -8, 8, 8)


def _walpha_model(name: str, c1: float, c2: float, scale: str,
                  base=None) -> List[str]:
    lines = _model_head(name, 2, 1, ("constant = c1 %s" % _number(c1),
                                     "constant = c2 %s" % _number(c2)))
    lines += ['L = "%s"' % JAVELIN1D_L, "",
              "[oneform walpha]",
              'a0_1 = "%s"' % WALPHA_A0, 'a1_1 = "%s"' % WALPHA_A1, "",
              # a scaled member: closed, but h(q, dW) is no longer constant
              "[oneform wscaled]",
              'a0_1 = "%s"' % WALPHA_A0,
              'a1_1 = "%s*%s"' % (scale, WALPHA_A1), "",
              "[family wfam]", "params = c1, c2",
              'a0_1 = "%s"' % WALPHA_A0, 'a1_1 = "%s"' % WALPHA_A1,
              'inverse.c1 = "p0_1*q1_1 - 1/2*q1_1^2 - 1/2*p1_1^2"',
              'inverse.c2 = "p0_1"']
    if base is not None:
        lines += ["", "[state base]",
                  "values = %s" % ", ".join(_number(v) for v in base)]
    return lines


def _verdicts(rng: random.Random, workdir: str) -> List[Op]:
    ops = []
    systems = (("javelin", 2, 3, (), JAVELIN_L, 10),
               ("beam", 2, 1, BEAM_HEAD, BEAM_L, 10))
    for model, k, n, head, L, count in systems:
        names = ["q%d_%d" % (i, A) for i in range(k) for A in range(1, n + 1)]
        for idx in range(count):
            name = "%s_r%02d" % (model, idx)
            path = os.path.join(workdir, name + ".hjm")
            lines = _model_head(name, k, n, head) + ['L = "%s"' % L, "",
                                                     "[section cand]"]
            lines += ['s%d_%d = "%s"' % (j, A,
                                         _random_base_polynomial(rng, names))
                      for j in range(k, 2 * k) for A in range(1, n + 1)]
            _write(path, lines)
            ops.append(Op("%s/check-cand" % name, ("check", path, "cand"),
                          codes=(0, 1), oracle="sides_agree"))
    for idx in range(6):
        c1, c2 = _walpha_constants(rng)
        scale = "%d/%d" % (rng.randint(5, 9), 4)
        name = "walpha_m%02d" % idx
        path = os.path.join(workdir, name + ".hjm")
        _write(path, _walpha_model(name, c1, c2, scale))
        ops.append(Op("%s/check-walpha" % name, ("check", path, "walpha"),
                      oracle="strict"))
        ops.append(Op("%s/check-wscaled" % name, ("check", path, "wscaled"),
                      codes=(1,), oracle="sides_agree"))
        ops.append(Op("%s/involution-wfam" % name,
                      ("involution", path, "wfam"), oracle="brackets_zero"))
    ops.append(Op("degenerate/involution-stuck",
                  ("involution", "tests/models/degenerate.hjm", "stuck"),
                  codes=(3,), seeded=False))
    return ops + _golden_ops()


# -- flows --------------------------------------------------------------------


def _walpha_base(rng: random.Random, c1: float, c2: float) -> Tuple[float, float]:
    """A base state whose associated flow stays inside the radicand's
    domain on [0, 1]: along it q1 = c2 + r*cos(phi0 + t), which reaches
    the branch point only at phi0 + t = pi."""
    r = math.sqrt(c2 * c2 - 2 * c1)
    phi0 = _grid(rng, 3, 12, 10)
    return _grid(rng, -8, 8, 8), c2 + r * math.cos(phi0)


def _flows(rng: random.Random, workdir: str) -> List[Op]:
    ops = []

    def simulate(key, path, fld, initial, t1, dt, oracle=None, params=(),
                 seeded=True, lift=None):
        out = os.path.join(workdir, key.replace("/", "_") + ".csv")
        argv = ["simulate", path, fld, initial, "0", t1, dt, "--out", out]
        if lift is not None:
            argv += ["--lift", lift]
        ops.append(Op(key, tuple(argv), csv=out, oracle=oracle,
                      params=params, seeded=seeded))

    simulate("beam/released", "models/beam.hjm", "lagrangian", "released",
             "1", "0.0001", oracle="beam_quartic", seeded=False)
    for fld in ("lagrangian", "hamiltonian"):
        simulate("javelin/launch-%s" % fld, "models/javelin.hjm", fld,
                 "launch", "1", "0.00025", oracle="javelin_closed_form",
                 params=(fld,), seeded=False)
    for k, n in LADDER[:4]:
        name = "flow_k%d_n%d" % (k, n)
        path = os.path.join(workdir, name + ".hjm")
        states = [("s%d" % i, [_grid(rng, -8, 8, 8) for _ in range(2 * k * n)])
                  for i in range(4)]
        _write(path, _ladder_model(name, k, n,
                                   random_regular_lagrangian(rng, k, n),
                                   states))
        for sname, _ in states:
            simulate("%s/%s" % (name, sname), path, "lagrangian", sname,
                     "1", "0.001")
    for idx in range(16):
        c1, c2 = _walpha_constants(rng)
        name = "lift_m%02d" % idx
        path = os.path.join(workdir, name + ".hjm")
        _write(path, _walpha_model(name, c1, c2, "1",
                                   _walpha_base(rng, c1, c2)))
        simulate("%s/walpha" % name, path, "associated:walpha", "base", "1",
                 "0.001", oracle="lift_passes", lift="walpha")
    return ops


_BUILDERS = {"ladder": _ladder, "verdicts": _verdicts, "flows": _flows}


def build(workload: str, seed: int, workdir: str) -> List[Op]:
    """Write the workload's inputs for ``seed`` into ``workdir``; return
    the ops of one pass."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random("%s:%d" % (workload, seed))
    ops = _BUILDERS[workload](rng, workdir)
    if len({op.argv for op in ops}) != len(ops):
        raise AssertionError("a pass repeats an input")
    return ops


def warmup(workload: str, workdir: str) -> List[Op]:
    """Untimed ops that finish sympy's lazy imports on the code paths the
    workload uses.  Their models share no expression with a timed op (the
    walpha family is written with other constant names, the placeholder
    check is on a system of its own), so nothing they leave behind in the
    process can make a timed op cheaper."""
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "warmup.hjm")
    if workload == "ladder":
        _write(path, _ladder_model("warmup", 2, 1, "3/2*q2_1^2 + q0_1"))
        return [Op("warmup/derive-%s" % topic,
                   ("derive", "models/free_particle.hjm", topic))
                for topic in DERIVE_TOPICS] + [
            Op("warmup/check", ("check", path, "unknown"))]
    lines = _walpha_model("warmup", -1.0, 0.0, "1", (0.0, 1.0))
    _write(path, [line.replace("c1", "e1").replace("c2", "e2")
                  for line in lines])
    if workload == "flows":
        return [Op("warmup/lift", (
            "simulate", path, "associated:walpha", "base", "0", "0.05",
            "0.01", "--out", os.path.join(workdir, "warmup.csv"),
            "--lift", "walpha"), csv=os.path.join(workdir, "warmup.csv"))]
    return [Op("warmup/derive-%s" % topic,
               ("derive", "models/free_particle.hjm", topic))
            for topic in DERIVE_TOPICS] + [
        Op("warmup/check", ("check", path, "walpha")),
        Op("warmup/involution", ("involution", path, "wfam"))]
