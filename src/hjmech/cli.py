"""Command-line interface.

Four subcommands operate on model files::

    hjmech derive MODEL {cartan|energy|field|legendre|hamiltonian|hamfield}
    hjmech check MODEL CANDIDATE [--tol T] [--samples N] [--seed S]
    hjmech simulate MODEL FIELD INITIAL T0 T1 DT [--out F] [--lift NAME] [--tol T]
    hjmech involution MODEL FAMILY [--tol T] [--samples N] [--seed S]

Reports go to standard output: human-readable text plus a tab-separated
machine block (see hjmech.report).  Exit codes: 0 when every requested
verdict passes, 1 when a verdict fails (a candidate classified
not-a-solution, a nonzero bracket, a failed lifting check), 2 for usage
and parse errors, 3 when a mathematical precondition is violated (a
singular Hessian, a missing Legendre inverse, a degenerate family, or a
trajectory leaving a domain of definition).

``check`` runs the full residual battery on both formalisms whenever the
Legendre map is invertible, transporting the candidate across it
automatically; machine-block equation ids carry a ``lag:``/``ham:``
prefix naming the side they were computed on.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional, Tuple

from . import model as model_io
from .hamiltonian import (
    HamiltonianError,
    HamiltonianSystem,
    LegendreMap,
    hamiltonian,
    hamiltonian_field,
    legendre,
)
from .hj import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TOL,
    DegenerateFamilyError,
    GeneratingFunction,
    NOT_A_SOLUTION,
    OneForm,
    Section,
    associated_field,
    classify,
    combine,
    gen_ham_residuals,
    gen_lag_residuals,
    ham_closedness,
    ham_energy_residuals,
    hj_equation,
    involution_check,
    lag_closedness,
    lag_energy_residuals,
    lag_genfunc_residuals,
    transport,
)
from .lagrangian import LagrangianError
from .numeric import NumericError, integrate, verify_lifting
from .report import Report, format_float, format_setting

DEFAULT_LIFT_TOL = 1e-6


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hjmech",
        description="Derive, check, and integrate higher-order mechanical "
                    "systems described by model files.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="print derived geometric objects")
    d.add_argument("model")
    d.add_argument("what", choices=["cartan", "energy", "field", "legendre",
                                    "hamiltonian", "hamfield"])
    d.set_defaults(func=cmd_derive)

    c = sub.add_parser("check", help="run the residual battery on a candidate")
    c.add_argument("model")
    c.add_argument("candidate")
    c.add_argument("--tol", type=float, default=DEFAULT_TOL)
    c.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    c.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("simulate", help="integrate a field and export CSV")
    s.add_argument("model")
    s.add_argument("field",
                   help="lagrangian | hamiltonian | associated:CANDIDATE")
    s.add_argument("initial",
                   help="a [state NAME] from the model, or comma-separated numbers")
    s.add_argument("t0", type=float)
    s.add_argument("t1", type=float)
    s.add_argument("dt", type=float)
    s.add_argument("--out", default="trajectory.csv")
    s.add_argument("--lift", metavar="NAME", default=None,
                   help="also verify that the candidate NAME lifts the flow")
    s.add_argument("--tol", type=float, default=DEFAULT_LIFT_TOL,
                   help="lifting tolerance")
    s.set_defaults(func=cmd_simulate)

    i = sub.add_parser("involution", help="pairwise brackets of a family")
    i.add_argument("model")
    i.add_argument("family")
    i.add_argument("--tol", type=float, default=DEFAULT_TOL)
    i.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    i.add_argument("--seed", type=int, default=DEFAULT_SEED)
    i.set_defaults(func=cmd_involution)
    return p


class _Context:
    """A loaded model and its system, with the Legendre map and h built on
    first use, so a command pays only for what it reads."""

    def __init__(self, path: str):
        self.model = model_io.load(path)
        self.system = self.model.system()

    @functools.cached_property
    def legendre(self) -> LegendreMap:
        return legendre(self.system)

    @functools.cached_property
    def hamiltonian(self) -> HamiltonianSystem:
        """Raises HamiltonianError when the Legendre map has no inverse."""
        return hamiltonian(self.system, self.legendre)


def _header(rep: Report, m: model_io.ModelFile, subtitle: str, settings: str):
    rep.text("model '%s' (k = %d, n = %d)" % (m.name, m.k, m.n))
    rep.text(subtitle)
    rep.text("settings: " + settings)
    rep.text()


def _standard_settings(tol, samples, seed) -> str:
    return "tol = %s, samples = %s, seed = %s" % (
        format_setting(tol), format_setting(samples), format_setting(seed))


def _matrix_text(matrix) -> str:
    rows = ("[%s]" % ", ".join(str(e) for e in row) for row in matrix)
    return "[%s]" % ", ".join(rows)


# -- derive -----------------------------------------------------------------


def cmd_derive(args) -> Tuple[Report, bool]:
    ctx = _Context(args.model)
    m, sys_ = ctx.model, ctx.system
    rep = Report()
    _header(rep, m, "derive %s" % args.what,
            _standard_settings(DEFAULT_TOL, DEFAULT_SAMPLES, DEFAULT_SEED))

    if args.what == "cartan":
        hess = sys_.hessian()
        rep.object_line("hessian", _matrix_text(hess.matrix))
        rep.object_line("hessian determinant", str(hess.determinant))
        rep.text("regular: %s" % ("yes" if hess.invertible else "no"))
        cart = sys_.cartan()
        rep.object_line("theta_L", str(cart.theta))
        rep.object_line("omega_L", str(cart.omega))
    elif args.what == "energy":
        rep.object_line("E_L", str(sys_.cartan().energy))
    elif args.what == "field":
        rep.object_line("X_L", str(sys_.euler_lagrange_field()))
    elif args.what == "legendre":
        fl = ctx.legendre
        for i in range(m.k):
            for A in range(1, m.n + 1):
                rep.object_line("FL:p%d_%d" % (i, A),
                                str(fl.momentum_rule(i, A)))
        rep.text("hyperregular: %s" % ("yes" if fl.hyperregular else "no"))
        if fl.inverse is None:
            rep.text("inverse: unavailable (%s)" % fl.diagnostic)
        else:
            for j in range(m.k, 2 * m.k):
                for A in range(1, m.n + 1):
                    rep.object_line("FLinv:q%d_%d" % (j, A),
                                    str(fl.inverse_rule(j, A)))
    elif args.what == "hamiltonian":
        rep.object_line("h", str(ctx.hamiltonian.h))
    else:  # hamfield
        rep.object_line("X_h", str(hamiltonian_field(ctx.hamiltonian)))
    return rep, False


# -- check ------------------------------------------------------------------


def cmd_check(args) -> Tuple[Report, bool]:
    if args.tol <= 0:
        raise ValueError("--tol must be positive")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    knobs = dict(tol=args.tol, samples=args.samples, seed=args.seed)

    ctx = _Context(args.model)
    m, sys_ = ctx.model, ctx.system
    kind, obj = m.candidate(args.candidate)
    if kind == "family":
        raise ValueError(
            "'%s' is a complete-solution family; use the involution command"
            % args.candidate)
    fl = ctx.legendre

    rep = Report()
    _header(rep, m, "check candidate '%s' (%s)" % (args.candidate, kind),
            _standard_settings(args.tol, args.samples, args.seed))

    verdicts: List[str] = []
    contexts = []

    def side(name: str, parts, symbolic: bool):
        combined = combine(parts)
        rep.text("%s side:" % name)
        rep.add_residuals(combined, id_prefix=name[:3] + ":")
        if symbolic:
            rep.text("  classification: skipped (placeholder components)")
        else:
            verdicts.append(classify(combined))
            rep.text("  classification: %s" % verdicts[-1])
        rep.text()
        contexts.append(combined)

    def lag_side(section: Section, gf: Optional[GeneratingFunction]):
        parts = [
            gen_lag_residuals(sys_, section, **knobs),
            lag_closedness(sys_, section, **knobs),
            lag_energy_residuals(sys_, section, **knobs),
        ]
        if gf is not None:
            parts.append(lag_genfunc_residuals(sys_, section, gf, **knobs))
        side("lagrangian", parts, section.has_placeholders)

    def ham_side(alpha: OneForm, gf: Optional[GeneratingFunction]):
        hs = ctx.hamiltonian
        parts = [
            gen_ham_residuals(hs, alpha, **knobs),
            ham_closedness(alpha, constant_values=hs.constant_values(), **knobs),
            ham_energy_residuals(hs, alpha, **knobs),
        ]
        if not alpha.has_placeholders:
            closed = all(
                e.verdict in ("exact-zero", "numeric-zero")
                for e in parts[1].entries
            )
            if gf is not None:
                parts.append(hj_equation(hs, gf, **knobs))
            elif closed:
                parts.append(hj_equation(hs, alpha, **knobs))
        side("hamiltonian", parts, alpha.has_placeholders)

    if kind == "section":
        gf = (GeneratingFunction.generic(m.k, m.n)
              if obj.has_placeholders else None)
        lag_side(obj, gf)
        if fl.inverse is None:
            rep.text("hamiltonian side: skipped (%s)" % fl.diagnostic)
            rep.text()
        else:
            ham_side(transport(fl, obj), None)
    elif kind == "oneform":
        ham_side(obj, None)
        lag_side(transport(fl, obj), None)
    else:  # genfunc
        grad = obj.gradient()
        ham_side(grad, obj)
        lag_side(transport(fl, grad), obj)

    rep.add_context(combine(contexts))
    return rep, NOT_A_SOLUTION in verdicts


# -- simulate ---------------------------------------------------------------


def _parse_initial(m: model_io.ModelFile, text: str):
    if text in m.states:
        return m.states[text], "state '%s'" % text
    try:
        values = tuple(float(v.strip()) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(
            "initial must name a [state] from the model or be "
            "comma-separated numbers, got %r" % text)
    if not values:
        raise ValueError("empty initial state")
    return values, "state (%s)" % ", ".join(format_setting(v) for v in values)


def _resolve_candidate_pair(ctx: _Context, name):
    """(system-like, solution) pairing for associated fields and lifting."""
    kind, obj = ctx.model.candidate(name)
    if kind == "section":
        return ctx.system, obj
    hs = ctx.hamiltonian
    if kind == "oneform":
        return hs, obj
    if kind == "genfunc":
        return hs, obj.gradient()
    raise ValueError("'%s' is a family; simulate one of its members" % name)


def cmd_simulate(args) -> Tuple[Report, bool]:
    if args.tol <= 0:
        raise ValueError("--tol must be positive")
    ctx = _Context(args.model)
    m, sys_ = ctx.model, ctx.system
    constants = sys_.constant_values()

    z0, initial_label = _parse_initial(m, args.initial)

    if args.field == "lagrangian":
        X = sys_.euler_lagrange_field()
    elif args.field == "hamiltonian":
        X = hamiltonian_field(ctx.hamiltonian)
    elif args.field.startswith("associated:"):
        system_like, sol = _resolve_candidate_pair(
            ctx, args.field[len("associated:"):])
        X = associated_field(system_like, sol)
    else:
        raise ValueError(
            "field must be lagrangian, hamiltonian, or associated:CANDIDATE")

    if args.lift is not None and args.field != "associated:" + args.lift:
        raise ValueError(
            "--lift %s requires field associated:%s (the lifted flow is "
            "compared against the candidate's own base flow)"
            % (args.lift, args.lift))

    rep = Report()
    _header(rep, m, "simulate field '%s' from %s" % (args.field, initial_label),
            "dt = %s, lift-tol = %s" % (format_setting(args.dt),
                                        format_setting(args.tol)))

    traj = integrate(X, z0, args.t0, args.t1, args.dt,
                     constants=constants, provenance=args.field)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(traj.to_csv())
    rep.text("wrote %s (%d points, %d columns)"
             % (args.out, traj.times.size, 1 + traj.states.shape[1]))
    final = [traj.times[-1]] + list(traj.states[-1])
    rep.text("final: t = %s, state = (%s)"
             % (format_setting(traj.times[-1]),
                ", ".join(format_float(v) for v in traj.states[-1])))
    rep.row("trajectory", "final", ", ".join(format_float(v) for v in final))

    failed = False
    if args.lift is not None:
        system_like, sol = _resolve_candidate_pair(ctx, args.lift)
        result = verify_lifting(system_like, sol, z0, args.t0, args.t1,
                                args.dt, tol=args.tol, constants=constants)
        verdict = "pass" if result.passed else "fail"
        rep.text("lifting check '%s': max deviation = %s (tol = %s) -> %s"
                 % (args.lift, format_setting(result.max_deviation),
                    format_setting(args.tol), verdict))
        rep.row("lifting", args.lift, "-", result.max_deviation, verdict)
        failed = not result.passed
    return rep, failed


# -- involution ---------------------------------------------------------------


def cmd_involution(args) -> Tuple[Report, bool]:
    if args.tol <= 0:
        raise ValueError("--tol must be positive")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    ctx = _Context(args.model)
    m = ctx.model
    kind, fam = m.candidate(args.family)
    if kind != "family":
        raise ValueError("'%s' is a %s, not a family" % (args.family, kind))
    hs = ctx.hamiltonian

    rep = Report()
    _header(rep, m,
            "involution family '%s' (parameters: %s)"
            % (args.family, ", ".join(fam.parameters)),
            _standard_settings(args.tol, args.samples, args.seed))

    rr = involution_check(hs, fam, samples=args.samples, seed=args.seed,
                          tol=args.tol)
    rep.text("pairwise brackets:")
    rep.add_residuals(rr)
    rep.text()
    rep.add_context(rr)
    failed = any(e.verdict == "nonzero" for e in rr.entries)
    return rep, failed


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rep, failed = args.func(args)
    except (DegenerateFamilyError, LagrangianError, HamiltonianError) as err:
        print("hjmech: error: %s" % err, file=sys.stderr)
        return 3
    except NumericError as err:
        print("hjmech: error: %s" % err, file=sys.stderr)
        return 3 if err.time is not None else 2
    except (ValueError, OSError) as err:
        print("hjmech: error: %s" % err, file=sys.stderr)
        return 2
    sys.stdout.write(rep.render())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
