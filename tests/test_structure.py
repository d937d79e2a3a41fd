"""Package-wide structure: every immutable class refuses assignment and
deletion through one base, and only ``expr`` knows how an expression is
represented: it alone decides between the polynomial ring and sympy's
trees, imports sympy and builds Expressions from raw values.
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from sympy.core.cache import clear_cache

from hjmech import (
    CartanData,
    CompleteSolutionFamily,
    CoordMap,
    Curve,
    GeneratingFunction,
    JetSpace,
    OneForm,
    OneFormField,
    PhaseSpace,
    Section,
    TwoFormField,
    VectorField,
    hamiltonian,
    legendre,
    parse,
)
from hjmech import expr as E
from hjmech import hj
from hjmech.cli import main
from hjmech.expr import Immutable

from conftest import make_flight_1d, model_path
from test_acceptance import DERIVE_TOPICS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hjmech"


def _instances():
    T1 = JetSpace(1, 1)
    sys_ = make_flight_1d()
    q = parse("q0_1", T1)
    fam = OneForm(1, 1, {(0, 1): parse("c*q0_1", T1.table(("c",)))})
    return {
        "Expression": q,
        "OneFormField": OneFormField.zero(T1),
        "TwoFormField": TwoFormField.zero(T1),
        "CoordMap": CoordMap(T1, T1, {c: parse(c.name, T1) for c in T1.coordinates}),
        "VectorField": VectorField(T1, (q, q)),
        "Curve": Curve.symbolic([parse("t", T1.table(("t",)))]),
        "LegendreMap": legendre(sys_),
        "LagrangianSystem": sys_,
        "HamiltonianSystem": hamiltonian(sys_, legendre(sys_)),
        "OneForm": OneForm(1, 1, {(0, 1): q}),
        "GeneratingFunction": GeneratingFunction(1, 1, q),
        "CompleteSolutionFamily": CompleteSolutionFamily(("c",), fam),
        "SemisprayField": sys_.euler_lagrange_field(),
        "Section": Section(1, 1, {(1, 1): q}),
    }


@pytest.mark.parametrize("name", sorted(_instances()))
def test_instances_refuse_attribute_assignment(name):
    obj = _instances()[name]
    assert type(obj).__name__ == name and isinstance(obj, Immutable)
    with pytest.raises(AttributeError, match="^%s is immutable$" % name):
        obj.extra = 1
    first_slot = next(s for c in type(obj).__mro__ for s in getattr(c, "__slots__", ()))
    with pytest.raises(AttributeError, match="^%s is immutable$" % name):
        setattr(obj, first_slot, None)
    with pytest.raises(AttributeError, match="^%s is immutable$" % name):
        delattr(obj, first_slot)
    getattr(obj, first_slot)  # still there


def _lines_outside_expr(banned):
    return [
        "%s:%d: %s" % (path.name, number, line.strip())
        for path in sorted(SRC.glob("*.py")) if path.name != "expr.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]


def test_only_expr_knows_the_polynomial_ring():
    # the choice between ring elements and sympy trees (and the matrices
    # built from either) stays behind expr's API
    banned = re.compile(r"_poly|from_poly|ring_elements|PolyRing|sp\.Matrix")
    assert _lines_outside_expr(banned) == []


def test_only_expr_touches_the_representation():
    # no other module imports sympy, reads a tree, builds a matrix or
    # builds an Expression except through Expression.of (or parse)
    banned = re.compile(r"^\s*(import|from) sympy\b|\.sym\b|DomainMatrix"
                        r"|(?<![\w.])Expression\(")
    assert _lines_outside_expr(banned) == []


def test_canonical_form_has_one_door():
    # _canon is called by the Expression constructor and by its own
    # recursion into atoms, so every value, a parsed one too, is built
    # canonical and the parser never holds a raw tree
    tree = ast.parse((SRC / "expr.py").read_text())
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                        and child.func.id == "_canon"):
                    callers.add(".".join(scope))
                visit(child, scope)

    visit(tree, ())
    assert callers == {"Expression.__init__", "_normalize_atoms"}


LIFT_COUNT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from sympy.polys.rings import PolyElement
from hjmech import cli, expr, numeric
op = next(op for op in workloads.build("flows", 1, sys.argv[2]) if op.key == "lift_m00/walpha")
counts = {"components": 0, "ring_backed": 0, "as_expr": 0, "evaluate": 0}
inside = set()

def within(name, fn):
    def call(*args, **kwargs):
        inside.add(name)
        try:
            return fn(*args, **kwargs)
        finally:
            inside.discard(name)
    return call

def count(name, where, fn):
    def call(*args, **kwargs):
        counts[name] += where in inside
        return fn(*args, **kwargs)
    return call

step_texts = numeric.step_texts
def seen(exprs, names):
    counts["components"] += len(exprs)
    counts["ring_backed"] += sum(e._poly is not None for e in exprs)
    return step_texts(exprs, names)

PolyElement.as_expr = count("as_expr", "step_texts", PolyElement.as_expr)
expr.evaluate = count("evaluate", "lift", expr.evaluate)
numeric.step_texts = within("step_texts", seen)
cli.verify_lifting = within("lift", numeric.verify_lifting)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(list(op.argv))
print(json.dumps([code, counts]))
"""


def test_a_lift_writes_its_numeric_code_from_ring_terms(tmp_path):
    # one op of the flows benchmark in a fresh process: its fields' step
    # texts are written from their ring elements, building no tree, and
    # every base state is lifted by one generated function, not through
    # evaluate (2,004 evaluate calls in the lift, and a tree for each of
    # the 6 components, while each point was lifted through evaluate and
    # each text was printed from the tree)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", LIFT_COUNT, str(ROOT / "bench"), str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=300, check=True)
    code, counts = json.loads(out.stdout)
    assert code == 0
    assert counts == {"components": 6, "ring_backed": 6, "as_expr": 0, "evaluate": 0}, counts


LOAD_COUNT = """
import collections, contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import sympy
import workloads
from sympy.core.function import UndefinedFunction
from sympy.polys.monomials import MonomialOps
from hjmech.cli import main
counts = collections.Counter()

def counted(name, fn):
    def call(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return call

UndefinedFunction.__new__ = counted("function_classes", UndefinedFunction.__new__)
sympy.gcd_terms = counted("term_factorings", sympy.gcd_terms)
sympy.factor_terms = counted("term_factorings", sympy.factor_terms)
MonomialOps._build = counted("monomial_code", MonomialOps._build)
workload, key = sys.argv[3:]
op = next(op for op in workloads.build(workload, 1, sys.argv[2]) if op.key == key)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(list(op.argv))
print(json.dumps([code, counts]))
"""


@pytest.mark.parametrize("workload, key", [
    # a ladder system with an all-"?" section: 5 function classes (its
    # 4 placeholders and W) while the reader declared them on every load
    ("flows", "flow_k2_n2/s0"),
    # 2 term factorings (gcd_terms, factor_terms) each while the radicand
    # was checked on its tree
    ("verdicts", "walpha_m00/check-walpha"),
    ("flows", "lift_m00/walpha"),
])
def test_an_op_does_no_model_load_work_it_does_not_use(tmp_path, workload, key):
    # a fresh process running one benchmark op creates no sympy function
    # class, factors no radicand's terms in sympy and generates no
    # monomial code (14 builds each, seven functions for each of two
    # generator counts, while the rings were sympy's PolyRing)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", LOAD_COUNT, str(ROOT / "bench"), str(tmp_path),
                          workload, key], capture_output=True, text=True, env=env, timeout=300,
                         check=True)
    code, counts = json.loads(out.stdout)
    assert code == 0 and counts == {}, counts


IMPORTED = """
import contextlib, io, json, sys
from hjmech.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [name for name in ("sympy.tensor.tensor", "sympy.combinatorics", "numpy",
                                            "argparse") if name in sys.modules]]))
"""


@pytest.mark.parametrize("commands, imported", [
    ([["derive", model_path("javelin.hjm"), topic] for topic in DERIVE_TOPICS], []),
    ([["derive", model_path("beam.hjm"), topic] for topic in DERIVE_TOPICS], []),
    ([["check", model_path("javelin.hjm"), "unknown"]], []),
    ([["check", model_path("javelin1d.hjm"), "walpha"]], []),
    ([["involution", model_path("javelin1d.hjm"), "wfam"]], []),
    ([["simulate", model_path("javelin1d.hjm"), "associated:walpha", "base", "0", "0.5",
       "0.01", "--lift", "walpha", "--out", "lift.csv"]], ["numpy"]),
])
def test_a_command_imports_only_what_it_runs(tmp_path, commands, imported):
    # in a fresh process, no command on the ring path imports sympy's
    # tensor or combinatorics package, only simulate imports numpy, and no
    # command imports argparse (about 3 ms to import and build)
    # (while the package imported numpy, every command did, and while a
    # radicand's tree was an evaluated sum, every command with a square
    # root imported the two sympy packages)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORTED, json.dumps(commands)],
                         capture_output=True, text=True, env=env, timeout=300, check=True,
                         cwd=tmp_path)
    codes, modules = json.loads(out.stdout)
    assert codes == [0] * len(commands)
    assert modules == imported


BEAM_POLYNOMIAL = '''
[model]
name = beam
k = 2
n = 1
constant = mu 1 nonzero
constant = rho 24

[lagrangian]
L = "1/2*mu*q2_1^2 + rho*q0_1"

[section poly]
s2_1 = "q0_1^2 - 2*q1_1"
s3_1 = "mu*q1_1 + rho"
'''


@pytest.mark.parametrize("argv", [("check", "poly"), ("derive", "hamfield")])
def test_quotients_by_a_constant_stay_in_the_ring(monkeypatch, tmp_path, argv):
    # beam's Legendre inverse q2_1 = p1_1/mu and its Euler-Lagrange field
    # q4_1 = -rho/mu are Laurent ring elements, so neither side of a
    # polynomial check nor the Hamiltonian field canonicalizes a tree
    # (8 and 4 _canon calls while a quotient by a monomial was a tree)
    path = tmp_path / "beam.hjm"
    path.write_text(BEAM_POLYNOMIAL)
    calls = []
    canon = E._canon
    monkeypatch.setattr(E, "_canon", lambda sym: calls.append(sym) or canon(sym))
    clear_cache()
    command, name = argv
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, str(path), name]) in (0, 1)
    assert calls == []


@pytest.mark.parametrize("path", [model_path("javelin.hjm"), model_path("beam.hjm"),
                                  str(ROOT / "tests" / "models" / "beam_genfunc.hjm")])
def test_a_placeholder_check_stays_in_the_ring(monkeypatch, path):
    # placeholders and their partials are ring generators, so the
    # Hamilton-Jacobi systems of a "?" candidate are ring elements (345
    # _canon calls for javelin while placeholders were sympy trees)
    calls = []
    canon = E._canon
    monkeypatch.setattr(E, "_canon", lambda sym: calls.append(sym) or canon(sym))
    clear_cache()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", path, "unknown"]) == 0
    assert calls == []


RADICAL_OPS = [
    ("check", model_path("javelin1d.hjm"), "walpha"),
    ("check", str(ROOT / "tests" / "models" / "javelin1d_scaled.hjm"), "wscaled"),
    ("involution", model_path("javelin1d.hjm"), "wfam"),
    ("simulate", model_path("javelin1d.hjm"), "associated:walpha", "base", "0", "0.5", "0.01",
     "--lift", "walpha"),
]


@pytest.mark.parametrize("argv", RADICAL_OPS, ids=lambda argv: "%s-%s" % (argv[0], argv[2]))
def test_a_radical_family_stays_in_the_ring(monkeypatch, tmp_path, argv):
    # the square root of walpha's radicand is a ring generator, so its
    # residuals, its family Jacobian and its lift are ring elements (15,
    # 17, 9 and 5 _canon calls while a radical was a sympy tree)
    if argv[0] == "simulate":
        argv += ("--out", str(tmp_path / "lift.csv"))
    calls = []
    canon = E._canon
    monkeypatch.setattr(E, "_canon", lambda sym: calls.append(sym) or canon(sym))
    clear_cache()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) in (0, 1)
    assert calls == []


RING_BUILDS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from sympy.polys.rings import PolyElement
from hjmech import expr
from hjmech.cli import main
inside, outside, copies = {}, {}, []
init = PolyElement.__init__

def counted(P, ring, *args):
    # a ring is seen by the elements built over it, its generators first
    frame, names = sys._getframe(1), set()
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    seen = inside if names & {"determinant", "solve_linear"} else outside
    seen[id(ring)] = type(ring).__name__
    init(P, ring, *args)

PolyElement.__init__ = counted
set_ring = PolyElement.set_ring
PolyElement.set_ring = lambda P, R: copies.append(R) or set_ring(P, R)
argv = sys.argv[3:] or next(op.argv for op in workloads.build("verdicts", 1, sys.argv[2])
                            if op.key == "javelin_r03/check-cand")
with contextlib.redirect_stdout(io.StringIO()):
    code = main(list(argv))
print(json.dumps([code, len(inside), sorted(outside.values()), len(copies), len(expr._GEN)]))
"""


def _fresh_rings(tmp_path, *argv):
    """What a fresh process running the CLI on ``argv`` (by default one
    op of the verdicts benchmark) reports: its exit code, how many of
    sympy's polynomial rings it builds elements of inside and which
    outside the linear algebra, how many elements it moves from one ring
    into another, and how many generators it records."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", RING_BUILDS, str(ROOT / "bench"), str(tmp_path),
                          *argv], capture_output=True, text=True, env=env, timeout=300,
                         check=True)
    return json.loads(out.stdout)


def test_one_check_builds_rings_of_few_generator_counts(tmp_path):
    # a fresh process running one op of the verdicts benchmark builds no
    # ring at all: its determinant and solves eliminate over sparse
    # polynomials (rings of {0, 3, 6} generators while they ran on
    # sympy's DomainMatrix; {0, 21} while every polynomial was an element
    # of the model's ring; 18 counts while every operation built the ring
    # of its operands' union)
    code, inside, outside = _fresh_rings(tmp_path)[:3]
    assert code == 1 and inside == 0 and outside == [], (inside, outside)


def test_one_check_starts_every_name_in_the_models_ring(tmp_path):
    # the check records each of the model's 21 names (jets of orders
    # 0..4 and momenta of orders 0..1 on three axes) once as a generator
    # and nothing else, and moves no element from one ring into another
    # (21 one-name and 3 two-name rings, and 567 copies, while
    # Expression.coordinate built one-name rings)
    _, _, _, copies, generators = _fresh_rings(tmp_path)
    assert copies == 0 and generators == 21, (copies, generators)


@pytest.mark.parametrize("argv", [
    (),  # one op of the verdicts benchmark: javelin_r03/check-cand
    ("check", model_path("javelin.hjm"), "unknown"),
    ("check", model_path("beam.hjm"), "unknown"),
    *RADICAL_OPS,
], ids=lambda argv: "-".join(os.path.basename(a) for a in argv[:3]).replace(":", "-")
    or "check-cand")
def test_no_ring_is_built_outside_linear_algebra(tmp_path, argv):
    # polynomials are sparse, so a fresh process running a command builds
    # none of sympy's polynomial rings outside determinant and
    # solve_linear (rings of 21 and 70 generators and 257 copies between
    # rings for check javelin unknown while every polynomial was an
    # element of a ring), and none inside them either, where their
    # entries are polynomials (which sympy's DomainMatrix held over a
    # ring of their generators)
    if argv and argv[0] == "simulate":
        argv += ("--out", str(tmp_path / "lift.csv"))
    code, inside, outside = _fresh_rings(tmp_path, *argv)[:3]
    assert code in (0, 1) and inside == 0 and outside == [], (inside, outside)


def test_only_the_linear_algebra_builds_rings():
    # sympy's matrices, which build polynomial rings over their entries'
    # generators, are referenced only by _domain_matrix, the tree branch
    # of determinant and solve_linear, and expr names no ring of its own
    tree = ast.parse((SRC / "expr.py").read_text())
    users = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                name = getattr(child, "id", getattr(child, "attr", None))
                if name in ("DomainMatrix", "PolyRing", "PolyElement", "ring"):
                    users.add((".".join(scope), name))
                visit(child, scope)

    visit(tree, ())
    assert users == {("_domain_matrix", "DomainMatrix")}, users


SYMPY_FRAMES = """
import collections, contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import sympy
import workloads
from hjmech.cli import main
SYMPY = os.path.dirname(sympy.__file__) + os.sep
workload, *argv = sys.argv[3:]
if workload != "cli":
    argv = next(op.argv for op in workloads.build(workload, 1, sys.argv[2]) if op.key == argv[0])
frames = collections.Counter()

def profile(frame, event, arg):
    name = frame.f_code.co_filename
    if event == "call" and name.startswith(SYMPY):
        frames[name[len(SYMPY):] + ":" + frame.f_code.co_name] += 1

with contextlib.redirect_stdout(io.StringIO()):
    sys.setprofile(profile)
    try:
        code = main(list(argv))
    finally:
        sys.setprofile(None)
print(json.dumps([code, frames.most_common(5)]))
"""


@pytest.mark.parametrize("argv", [
    ("verdicts", "javelin_r03/check-cand"),
    ("verdicts", "beam_r00/check-cand"),
    ("verdicts", "walpha_m00/check-walpha"),
    ("verdicts", "walpha_m00/involution-wfam"),
    ("flows", "lift_m00/walpha"),
    ("flows", "flow_k2_n2/s0"),
    *(("cli", "derive", model_path("javelin.hjm"), topic)
      for topic in ("cartan", "legendre", "hamfield")),
], ids=lambda argv: argv[1] if argv[0] != "cli" else "derive-javelin-" + argv[-1])
def test_the_ring_path_enters_no_sympy_module(tmp_path, argv):
    # a fresh process running one benchmark op, or one derive, calls no
    # function of sympy's: names and radicals are generators without
    # trees, a radical's order comes from its radicand's terms,
    # coefficients are ints and Fractions, and determinant and
    # solve_linear eliminate over sparse polynomials (675 to 4,147 calls
    # into sympy modules other than QQ's per op while symbols, radical
    # trees and sympy's rings and matrices did this work, and QQ's own
    # arithmetic on every coefficient until the coefficients left it)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", SYMPY_FRAMES, str(ROOT / "bench"), str(tmp_path),
                          *argv], capture_output=True, text=True, env=env, timeout=300,
                         check=True, cwd=tmp_path)
    code, frames = json.loads(out.stdout)
    assert code in (0, 1) and frames == [], frames


COMPILES = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from hjmech import expr, hj
from hjmech.cli import main
compiles, sampled = [], []
sample_values = hj.sample_values

def sampling(exprs, samples, seed, fixed=None):
    sampled.append((tuple(exprs), samples, seed, tuple(sorted((fixed or {}).items()))))
    return sample_values(exprs, samples, seed, fixed)

def audit(event, args):  # compile(), or exec or eval of a string, called in expr
    if event == "compile" and sys._getframe(1).f_code.co_filename == expr.__file__:
        compiles.append(str(args[1]))

hj.sample_values = sampling
workload, key = sys.argv[3:]
argv = next(op.argv for op in workloads.build(workload, 1, sys.argv[2]) if op.key == key)
sys.addaudithook(audit)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(list(argv))
print(json.dumps([code, compiles, len(sampled), len(set(sampled))]))
"""


def test_one_check_compiles_and_samples_each_expression_once(tmp_path):
    # an expression is evaluated over columns from its terms or its tree,
    # so expr compiles nothing (javelin_r03/check-cand compiled 21
    # distinct functions, and the lift one, while each polynomial got its
    # own), and a repeated sampling is answered from hj's memo (13 of 38
    # samplings repeated an earlier one while every sampling ran)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # each op's exit code, and whether it samples (the lift evaluates its
    # rows without sampling)
    for workload, key, want_code, samples in (("verdicts", "javelin_r03/check-cand", 1, True),
                                              ("flows", "lift_m00/walpha", 0, False)):
        out = subprocess.run([sys.executable, "-c", COMPILES, str(ROOT / "bench"),
                              str(tmp_path), workload, key],
                             capture_output=True, text=True, env=env, timeout=300, check=True)
        code, compiles, runs, distinct_runs = json.loads(out.stdout)
        assert code == want_code and compiles == [] and runs == distinct_runs, (
            key, code, compiles, runs, distinct_runs)
        assert (runs > 0) == samples, (key, runs)


JAVELIN_POLYNOMIAL_SECTION = """
[section poly]
s2_1 = "q0_1*q1_2 - 2*q1_1"
s2_2 = "q1_3^2 + 1"
s2_3 = "-q0_2"
s3_1 = "3*q0_3*q1_1"
s3_2 = "q1_2 - q0_1^2"
s3_3 = "2"
"""


@pytest.mark.parametrize("section, code", [("poly", 1), ("unknown", 0)])
def test_a_check_pulls_back_no_two_form_and_builds_no_omega(monkeypatch, tmp_path, section,
                                                            code):
    # closedness is checked as s*ω_L = −d(s*θ_L), so a check pulls back
    # only θ_L and never builds ω_L; derive cartan, which prints ω_L,
    # shows that the counting is live
    path = tmp_path / "javelin.hjm"
    path.write_text(pathlib.Path(model_path("javelin.hjm")).read_text()
                    + JAVELIN_POLYNOMIAL_SECTION)
    calls = []
    pull_twoform, omega = CoordMap.pull_twoform, CartanData.omega.func
    monkeypatch.setattr(CoordMap, "pull_twoform",
                        lambda *args: calls.append("pull_twoform") or pull_twoform(*args))
    monkeypatch.setattr(CartanData.omega, "func", lambda cd: calls.append("omega") or omega(cd))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", str(path), section]) == code
        assert calls == []
        assert main(["derive", str(path), "cartan"]) == 0
    assert calls == ["omega"]


def test_coordinates_are_built_once():
    assert E.jet(2, 3) is E.jet(2, 3)
    assert E.momentum(1, 2) is E.momentum(1, 2)
    assert E.coordinate_of("q2_3") is E.jet(2, 3)
    assert E.coordinate_of("p1_2") is E.momentum(1, 2)
    space = JetSpace(3, 2)
    assert space.coordinates is space.coordinates
    assert JetSpace(3, 2).coordinates is space.coordinates
    phase = PhaseSpace(3, 2)
    assert phase.coordinates is phase.coordinates
