"""Model-file grammar (loads/dumps/load) and the command-line interface:
subcommands, report layout, machine block, and exit codes.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjmech import Expression, JetSpace, OneForm, Section, parse
from hjmech import model as M
from hjmech import cli, numeric
from hjmech.cli import main
from hjmech.hj import DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOL, MAX_SAMPLES
from hjmech.report import MACHINE_BEGIN, MACHINE_END

from conftest import fixture_path, model_path
from test_expr import grammar_texts

JAVELIN = '''
# second-order free flight in three axes
[model]
name = javelin
k = 2
n = 3

[lagrangian]
L = "1/2*(q1_1^2 - q2_1^2 + q1_2^2 - q2_2^2 + q1_3^2 - q2_3^2)"

[section unknown]
s2_1 = ?
s2_2 = ?
s2_3 = ?
s3_1 = ?
s3_2 = ?
s3_3 = ?

[section rest]
s2_1 = "0"
s2_2 = "0"
s2_3 = "0"
s3_1 = "0"
s3_2 = "0"
s3_3 = "0"

[state origin]
values = 0.25, 0, 0, 1, 0, 0
'''

FAMILY = '''
[model]
name = radical
k = 2
n = 1
constant = c1 -1
constant = c2 0

[lagrangian]
L = "1/2*(q1_1^2 - q2_1^2)"

[oneform walpha]
a0_1 = "c2"
a1_1 = "(2*c2*q1_1 - q1_1^2 - 2*c1)^(1/2)"

[family wfam]
params = c1, c2
a0_1 = "c2"
a1_1 = "(2*c2*q1_1 - q1_1^2 - 2*c1)^(1/2)"
inverse.c1 = "p0_1*q1_1 - 1/2*q1_1^2 - 1/2*p1_1^2"
inverse.c2 = "p0_1"

[genfunc wg]
w = "c2*q0_1"
energy = c1

[state start]
values = 0, 1
'''


# -- grammar ------------------------------------------------------------------


def test_loads_basic_model():
    m = M.loads(JAVELIN)
    assert m.name == "javelin"
    assert (m.k, m.n) == (2, 3)
    assert m.constants == {}
    assert m.sections["unknown"].has_placeholders
    assert not m.sections["rest"].has_placeholders
    assert m.state("origin") == (0.25, 0, 0, 1, 0, 0)
    kind, obj = m.candidate("rest")
    assert kind == "section" and isinstance(obj, Section)
    sys_ = m.system()
    assert (sys_.k, sys_.n) == (2, 3)


def test_dumps_round_trip_and_stability():
    m = M.loads(JAVELIN)
    text = M.dumps(m)
    m2 = M.loads(text)
    assert m2 == m
    assert M.dumps(m2) == text


def test_family_and_genfunc_blocks():
    m = M.loads(FAMILY)
    fam = m.families["wfam"]
    assert fam.parameters == ("c1", "c2")
    assert isinstance(fam.solution, OneForm)
    assert fam.inverse_rules is not None
    assert str(m.genfuncs["wg"].energy) == "c1"
    assert m.constants["c1"].value == -1.0
    assert M.loads(M.dumps(m)) == m
    kind, _ = m.candidate("wfam")
    assert kind == "family"


def test_constants_parse_values_and_flags():
    text = FAMILY.replace("constant = c1 -1", "constant = c1 -1 nonzero")
    m = M.loads(text)
    assert m.constants["c1"].nonzero
    assert m.constants["c2"].value == 0.0


def test_rational_energy():
    text = FAMILY.replace("energy = c1", "energy = -3/2")
    m = M.loads(text)
    assert m.genfuncs["wg"].energy == Expression.number(Fraction(-3, 2))
    assert M.loads(M.dumps(m)) == m


def test_trailing_comments_are_stripped_outside_quotes():
    m = M.loads(JAVELIN.replace('s2_1 = "0"', 's2_1 = "0"  # at rest'))
    assert m.sections["rest"] == M.loads(JAVELIN).sections["rest"]


def test_shipped_models_all_load():
    import glob

    paths = sorted(glob.glob(model_path("*.hjm")))
    assert len(paths) >= 4
    for path in paths:
        m = M.load(path)
        assert m.system() is not None
        assert M.loads(M.dumps(m)) == m


@pytest.mark.parametrize(
    "label, text, fragment",
    [
        ("out-of-universe coordinate",
         JAVELIN.replace('s2_1 = "0"', 's2_1 = "q2_1"'),
         "outside the declared universe"),
        ("duplicate candidate name",
         JAVELIN.replace("[section rest]", "[section unknown]"),
         "already used"),
        ("missing model header", '[lagrangian]\nL = "q0_1"\n', "[model]"),
        ("bad section key",
         JAVELIN + '\n[section bad]\nfoo = "0"\n', "keyed s<order>_<axis>"),
        ("unquoted expression", JAVELIN.replace('"0"', "0"), "double-quoted"),
        ("undeclared family parameter",
         FAMILY.replace("constant = c2 0", ""), "c2"),
        ("undeclared constant in L",
         JAVELIN.replace("q1_3^2", "g*q1_3^2"), "unknown"),
        ("k below one", JAVELIN.replace("k = 2", "k = 0"), "at least 1"),
        ("missing lagrangian",
         "[model]\nname = x\nk = 1\nn = 1\n", "no [lagrangian]"),
        ("incomplete section", JAVELIN.replace('s3_3 = "0"\n', ""), "missing"),
        ("non-numeric state",
         FAMILY.replace("values = 0, 1", "values = a, b"),
         "comma-separated numbers"),
        ("state that is not finite",
         FAMILY.replace("values = 0, 1", "values = nan, 1"),
         "a state's values must be finite"),
        ("state that overflows",
         FAMILY.replace("values = 0, 1", "values = 0, 1e999"),
         "a state's values must be finite"),
        ("energy must be declared or rational",
         FAMILY.replace("energy = c1", "energy = zz"), "declared constant"),
        # a repeated key kept its last value (k = 1 then k = 2 derived the
        # k = 2 system); only constant repeats, with distinct names
        ("repeated name", JAVELIN.replace("k = 2", "name = again\nk = 2"),
         "'name' repeats the key of line 4"),
        ("repeated k", JAVELIN.replace("k = 2", "k = 1\nk = 2"),
         "'k' repeats the key of line 5"),
        ("repeated L", JAVELIN.replace('L = "', 'L = "q0_1"\nL = "'), "'L' repeats"),
        ("repeated component", JAVELIN.replace('s3_3 = "0"', 's3_3 = "0"\ns3_3 = "0"'),
         "'s3_3' repeats"),
        ("repeated component, another spelling",
         JAVELIN.replace('s3_3 = "0"', 's3_3 = "0"\ns03_3 = "0"'), "'s03_3' repeats"),
        ("repeated hole", JAVELIN.replace("s3_3 = ?", "s3_3 = ?\ns3_3 = ?"), "'s3_3' repeats"),
        ("repeated w", FAMILY.replace('w = "c2*q0_1"', 'w = "c2*q0_1"\nw = ?'), "'w' repeats"),
        ("repeated energy", FAMILY.replace("energy = c1", "energy = c1\nenergy = 0"),
         "'energy' repeats"),
        ("repeated params", FAMILY.replace("params = c1, c2", "params = c1\nparams = c1, c2"),
         "'params' repeats"),
        ("repeated inverse rule",
         FAMILY.replace('inverse.c2 = "p0_1"', 'inverse.c2 = "p0_1"\ninverse.c2 = "0"'),
         "'inverse.c2' repeats"),
        ("repeated values", FAMILY.replace("values = 0, 1", "values = 0, 1\nvalues = 1, 0"),
         "'values' repeats"),
        # a placeholder prints as its bare name: with constant s1_1 and
        # s1_1 = ?, check printed -s1_1*d(s1_1)/d(q0_1) + s1_1
        ("constant named like a section component",
         JAVELIN.replace("n = 3", "n = 3\nconstant = s2_1 2"), "collides with a candidate component"),
        ("constant named like a one-form component",
         FAMILY.replace("constant = c2 0", "constant = c2 0\nconstant = a1_1"),
         "collides with a candidate component"),
    ],
)
def test_parse_errors(label, text, fragment):
    with pytest.raises(M.ModelError) as exc:
        M.loads(text)
    assert fragment in str(exc.value), label


def test_a_repeated_key_or_a_component_named_constant_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.hjm"
    for text, line in [(JAVELIN.replace("k = 2", "k = 1\nk = 2"), 6),
                       (JAVELIN.replace("n = 3", "n = 3\nconstant = s2_1 2"), 7)]:
        path.write_text(text)
        code, out, err = run_cli(capsys, "derive", str(path), "energy")
        assert (code, out) == (2, "") and err.startswith("hjmech: error: line %d: " % line)


def _sized(k, n):
    return ('[model]\nname = big\nk = %d\nn = %d\n\n[lagrangian]\nL = "%s"\n'
            % (k, n, " + ".join("1/2*q%d_%d^2" % (k, axis) for axis in range(1, n + 1))))


def test_a_model_over_the_size_budget_is_refused(capsys, tmp_path):
    # k*n is bounded before any coordinate is built: the reader built
    # (4k+1)*n names for any k, and derive energy took 15.7 s at k = 400
    over = M.MAX_KN + 1
    path = tmp_path / "big.hjm"
    for k, n in [(over, 1), (1, over)]:
        with pytest.raises(M.ModelError, match="over the size budget of %d" % M.MAX_KN) as exc:
            M.loads(_sized(k, n))
        assert exc.value.line == 1
        path.write_text(_sized(k, n))
        code, out, err = run_cli(capsys, "derive", str(path), "energy")
        assert (code, out) == (2, "") and err.startswith("hjmech: error: line 1: k*n = %d" % over)
    assert M.loads(_sized(M.MAX_KN, 1)).k == M.MAX_KN


def test_errors_carry_line_numbers():
    with pytest.raises(M.ModelError) as exc:
        M.loads(JAVELIN.replace('s2_2 = "0"', 's2_2 = "q3_1"'))
    assert exc.value.line is not None
    assert "line" in str(exc.value)


def test_candidate_and_state_lookup_errors():
    m = M.loads(JAVELIN)
    with pytest.raises(M.ModelError):
        m.candidate("nope")
    with pytest.raises(M.ModelError):
        m.state("nope")


# -- CLI helpers ----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_rows(stdout):
    assert MACHINE_BEGIN in stdout and MACHINE_END in stdout
    block = stdout.split(MACHINE_BEGIN, 1)[1].split(MACHINE_END, 1)[0]
    rows = [line.split("\t") for line in block.strip("\n").splitlines()]
    for row in rows:
        assert len(row) == 5
    return rows


# -- derive ----------------------------------------------------------------------


def test_derive_cartan_report(capsys):
    code, out, err = run_cli(capsys, "derive", model_path("javelin.hjm"), "cartan")
    assert code == 0 and err == ""
    assert out.startswith("model 'javelin' (k = 2, n = 3)\n")
    assert "hessian = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]" in out
    assert "hessian determinant = -1" in out
    assert "regular: yes" in out
    assert "theta_L = (q1_1 + q3_1) dq0_1" in out
    assert "omega_L = " in out
    rows = machine_rows(out)
    assert rows[0][0] == "object"


def test_derive_field_on_free_particle(capsys):
    code, out, _ = run_cli(
        capsys, "derive", model_path("free_particle.hjm"), "field"
    )
    assert code == 0
    assert "X_L = q1_1 ∂q0_1 + 0 ∂q1_1" in out


def test_derive_legendre_and_hamiltonian(capsys):
    code, out, _ = run_cli(capsys, "derive", model_path("javelin.hjm"), "legendre")
    assert code == 0
    assert "p0_1 = q1_1 + q3_1" in out
    assert "p1_1 = -q2_1" in out
    assert "hyperregular: yes" in out
    assert "q2_1 = -p1_1" in out
    assert "q3_1 = -q1_1 + p0_1" in out
    code, out, _ = run_cli(
        capsys, "derive", model_path("javelin.hjm"), "hamiltonian"
    )
    assert code == 0
    assert (
        "h = -1/2*q1_1^2 + q1_1*p0_1 - 1/2*q1_2^2 + q1_2*p0_2"
        " - 1/2*q1_3^2 + q1_3*p0_3"
        " - 1/2*p1_1^2 - 1/2*p1_2^2 - 1/2*p1_3^2" in out
    )


def test_derive_hamfield(capsys):
    code, out, _ = run_cli(capsys, "derive", model_path("javelin.hjm"), "hamfield")
    assert code == 0
    assert "X_h = " in out and "∂p1_1" in out


def test_derive_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "derive", model_path("javelin.hjm"), "cartan")
    _, second, _ = run_cli(capsys, "derive", model_path("javelin.hjm"), "cartan")
    assert first == second


# -- check -------------------------------------------------------------------------


def test_check_placeholder_section_emits_symbolic_systems(capsys):
    code, out, _ = run_cli(
        capsys, "check", model_path("javelin.hjm"), "unknown"
    )
    assert code == 0
    assert "classification: skipped (placeholder components)" in out
    assert "d(s2_1)/d(q0_1)" in out
    rows = machine_rows(out)
    tags = {r[0] for r in rows}
    assert "tangency" in tags and "closedness" in tags
    lag_ids = [r[1] for r in rows if r[0] == "tangency" and r[1].startswith("lag:")]
    assert lag_ids == ["lag:q2_1", "lag:q2_2", "lag:q2_3",
                       "lag:q3_1", "lag:q3_2", "lag:q3_3"]
    assert all(r[4] == "symbolic" for r in rows if r[0] == "tangency")


def test_check_rest_section_is_generalized_both_sides(capsys):
    code, out, _ = run_cli(capsys, "check", model_path("javelin.hjm"), "rest")
    assert code == 0
    assert out.count("classification: generalized-solution") == 2
    rows = machine_rows(out)
    ham_rows = [r for r in rows if r[1].startswith("ham:")]
    assert ham_rows, "expected transported hamiltonian-side rows"


def test_check_beam_rest_fails(capsys):
    code, out, _ = run_cli(capsys, "check", model_path("beam.hjm"), "rest")
    assert code == 1
    assert "not-a-solution" in out
    assert "-rho/mu" in out


@pytest.mark.parametrize("command, name, code", [
    ("check", "quotients", 1),
    *(("derive", topic, 0) for topic in ("cartan", "energy", "field", "legendre",
                                         "hamiltonian", "hamfield")),
])
def test_quotients_by_monomials_print_byte_for_byte(capsys, command, name, code):
    # the transcripts were recorded while every quotient by a coordinate or
    # a constant was a canonical sympy tree; as Laurent ring elements they
    # must print, and sample, the same bytes
    golden = os.path.join(os.path.dirname(__file__), "goldens",
                          "beam_quotients_%s_%s.txt" % (command, name))
    with open(golden) as fh:
        want = fh.read()
    assert run_cli(capsys, command, fixture_path("beam_quotients.hjm"), name) == (code, want, "")


@pytest.mark.parametrize("path, golden", [
    (model_path("beam.hjm"), "beam_check_unknown.txt"),
    (fixture_path("beam_genfunc.hjm"), "beam_genfunc_check_unknown.txt"),
])
def test_placeholder_systems_print_byte_for_byte(capsys, path, golden):
    # recorded while placeholders were canonical sympy trees: beam's "?"
    # section times -rho/mu, and a "?" generating function whose
    # Hamilton-Jacobi systems carry second partials and 1/mu^2
    with open(os.path.join(os.path.dirname(__file__), "goldens", golden)) as fh:
        want = fh.read()
    assert run_cli(capsys, "check", path, "unknown") == (0, want, "")


def _golden_text(name):
    with open(os.path.join(os.path.dirname(__file__), "goldens", name), newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("argv, golden, code", [
    (("check", model_path("javelin1d.hjm"), "walpha"), "javelin1d_check_walpha.txt", 0),
    (("involution", model_path("javelin1d.hjm"), "wfam"), "javelin1d_involution_wfam.txt", 0),
    (("check", fixture_path("javelin1d_scaled.hjm"), "wscaled"),
     "javelin1d_scaled_check_wscaled.txt", 1),
    *((("derive", fixture_path("relativistic.hjm"), topic),
       "relativistic_derive_%s.txt" % topic, 0) for topic in ("cartan", "energy", "legendre")),
])
def test_radical_systems_print_byte_for_byte(capsys, argv, golden, code):
    # recorded while every value holding a square root was a canonical
    # sympy tree: the walpha family's residuals, its family Jacobian note,
    # and a relativistic particle whose Hessian has a radical cubed in
    # its denominator
    assert run_cli(capsys, *argv) == (code, _golden_text(golden), "")


@pytest.mark.parametrize("argv, golden, code", [
    # a concrete generating function: the Hamiltonian side appends the
    # Hamilton-Jacobi equation h(q, dW) = E, which W does not solve
    (("check", fixture_path("beam_w.hjm"), "w"), "beam_w_check_w.txt", 1),
    # a Legendre map without an explicit inverse: the Hamiltonian side is
    # skipped
    (("check", fixture_path("relativistic_rest.hjm"), "rest"),
     "relativistic_rest_check_rest.txt", 0),
    # a generating function that solves the Hamilton-Jacobi equation: beam
    # without its load and W = 3*q1_1, so h(q, dW) = 9/(2*mu) and both sides
    # are strict solutions
    (("check", fixture_path("beam_free.hjm"), "w"), "beam_free_check_w.txt", 0),
])
def test_every_branch_of_check_prints_byte_for_byte(capsys, argv, golden, code):
    assert run_cli(capsys, *argv) == (code, _golden_text(golden), "")


def test_a_generating_functions_flow_is_bit_for_bit(capsys, tmp_path, monkeypatch):
    # simulate's genfunc branch: the associated field of dW through the
    # Legendre inverse, from a state off the origin
    monkeypatch.chdir(tmp_path)
    out_csv = "beam_w_simulate_w.csv"
    assert run_cli(capsys, "simulate", fixture_path("beam_w.hjm"), "associated:w", "1,0.5",
                   "0", "0.5", "0.01", "--out", out_csv) == (
        0, _golden_text("beam_w_simulate_w.txt"), "")
    with open(os.path.join(os.path.dirname(__file__), "goldens", out_csv), "rb") as fh:
        assert (tmp_path / out_csv).read_bytes() == fh.read()


def test_simulate_refuses_a_family(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "simulate", model_path("javelin1d.hjm"), "associated:wfam", "base",
                   "0", "0.5", "0.01") == (2, "", _golden_text("javelin1d_simulate_wfam.txt"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family, code", [
    ("wflat", 3),  # det ∂α/∂λ = z/sqrt(u) with z = 0: vanishes at sampled points
    ("wdark", 0),  # a radicand negative everywhere: det cannot be sampled
    ("wnull", 3),  # components that depend on c1 + c2 alone: det is identically zero
])
def test_every_branch_of_the_family_jacobian_prints_byte_for_byte(capsys, family, code):
    # the determinant of each family's Jacobian holds a square root
    want = _golden_text("javelin1d_families_involution_%s.txt" % family)
    assert run_cli(capsys, "involution", fixture_path("javelin1d_families.hjm"), family) == (
        code, want if code == 0 else "", "" if code == 0 else want)


def _javelin_with_s02_1(tmp_path):
    """javelin.hjm with its "?" component s2_1 keyed s02_1."""
    with open(model_path("javelin.hjm")) as fh:
        text = fh.read()
    assert text.count("s2_1 = ?") == 1
    path = tmp_path / "javelin.hjm"
    path.write_text(text.replace("s2_1 = ?", "s02_1 = ?"))
    return path


def test_a_placeholder_is_named_by_its_components_canonical_key(capsys, tmp_path):
    # s02_1 is the component s2_1, and its placeholder is s2_1 (it was
    # s02_1, which the check printed)
    path = _javelin_with_s02_1(tmp_path)
    assert run_cli(capsys, "check", str(path), "unknown") == (
        0, _golden_text("javelin_check_unknown.txt"), "")


def test_a_placeholder_keyed_in_another_spelling_round_trips(tmp_path):
    # dumps refused the component s2_1 holding the placeholder s02_1
    m = M.load(str(_javelin_with_s02_1(tmp_path)))
    assert M.loads(M.dumps(m)) == m
    assert m.sections["unknown"] == M.load(model_path("javelin.hjm")).sections["unknown"]


JAVELIN_DERIVES = ("cartan", "energy", "field", "legendre", "hamiltonian", "hamfield")


def test_transcripts_do_not_depend_on_the_ring_that_holds_a_value(capsys, monkeypatch):
    # a name starts in its home, the ring of the table that last built a
    # ring over it, which is process-global: one process checks
    # javelin's and beam's "?" sections and derives javelin, then derives
    # javelin again with beam read after it, so that the names the two
    # models share start in beam's ring; every transcript is the golden
    for model in ("javelin", "beam"):
        assert run_cli(capsys, "check", model_path("%s.hjm" % model), "unknown") == (
            0, _golden_text("%s_check_unknown.txt" % model), "")
    load = M.load
    for reader in (load, lambda path: (load(path), load(model_path("beam.hjm")))[0]):
        monkeypatch.setattr(M, "load", reader)
        for topic in JAVELIN_DERIVES:
            assert run_cli(capsys, "derive", model_path("javelin.hjm"), topic) == (
                0, _golden_text("javelin_derive_%s.txt" % topic), "")


def test_radical_lift_is_bit_for_bit(capsys, tmp_path, monkeypatch):
    # the walpha lift, recorded while the fiber was a canonical sympy tree
    monkeypatch.chdir(tmp_path)
    out_csv = "javelin1d_lift_walpha.csv"
    assert run_cli(capsys, "simulate", model_path("javelin1d.hjm"), "associated:walpha",
                   "base", "0", "0.5", "0.01", "--lift", "walpha", "--out", out_csv) == (
        0, _golden_text("javelin1d_lift_walpha.txt"), "")
    with open(os.path.join(os.path.dirname(__file__), "goldens", out_csv), "rb") as fh:
        assert (tmp_path / out_csv).read_bytes() == fh.read()


def test_check_radical_oneform_is_strict(capsys):
    code, out, _ = run_cli(capsys, "check", model_path("javelin1d.hjm"), "walpha")
    assert code == 0
    assert out.count("classification: strict-solution") == 2
    assert "h(q, dW) = c1" in out
    rows = machine_rows(out)
    hjeq = [r for r in rows if r[0] == "hjeq"]
    assert hjeq and all(r[4] == "exact-zero" for r in hjeq)


def test_check_settings_are_recorded(capsys):
    code, out, _ = run_cli(
        capsys, "check", model_path("javelin.hjm"), "rest",
        "--tol", "1e-7", "--samples", "11", "--seed", "7",
    )
    assert code == 0
    assert "settings: tol = 1e-07, samples = 11, seed = 7" in out


def test_check_rejects_families_and_unknowns(capsys):
    code, _, err = run_cli(capsys, "check", model_path("javelin1d.hjm"), "wfam")
    assert code == 2
    assert "involution" in err
    code, _, err = run_cli(capsys, "check", model_path("javelin.hjm"), "nope")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("check", model_path("javelin1d.hjm"), "walpha"),
    ("involution", model_path("javelin1d.hjm"), "wfam"),
])
def test_sample_counts_are_bounded(capsys, argv):
    # "check … wscaled --samples 100000000000" ran on, holding every
    # sampled value, until a timeout killed it; past MAX_SAMPLES the count
    # is bad input, refused before the model is read
    code, out, err = run_cli(capsys, *argv, "--samples", str(MAX_SAMPLES + 1))
    assert (code, out) == (2, "")
    assert err == "hjmech: error: --samples must be at most %d\n" % MAX_SAMPLES
    assert run_cli(capsys, *argv, "--samples", "3")[0] == 0


def test_check_validates_knobs(capsys):
    code, _, err = run_cli(
        capsys, "check", model_path("javelin.hjm"), "rest", "--tol", "-1"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "check", model_path("javelin.hjm"), "rest", "--samples", "0"
    )
    assert code == 2


# -- simulate ----------------------------------------------------------------------


def test_simulate_beam_quartic(capsys, tmp_path):
    out_file = str(tmp_path / "beam.csv")
    code, out, _ = run_cli(
        capsys, "simulate", model_path("beam.hjm"), "lagrangian",
        "released", "0", "1", "0.001", "--out", out_file,
    )
    assert code == 0
    assert "wrote %s (1001 points, 5 columns)" % out_file in out
    assert os.path.exists(out_file)
    with open(out_file) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1001
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[1] == pytest.approx(-1.0, abs=1e-12)
    assert last[4] == pytest.approx(-24.0, abs=1e-12)


def test_simulate_accepts_literal_initial_state(capsys, tmp_path):
    out_file = str(tmp_path / "t.csv")
    code, out, _ = run_cli(
        capsys, "simulate", model_path("beam.hjm"), "hamiltonian",
        "0,0,0,0", "0", "0.5", "0.001", "--out", out_file,
    )
    assert code == 0
    assert "final: t = 0.5, state = (" in out


def test_simulate_lift_check_passes(capsys, tmp_path):
    out_file = str(tmp_path / "lift.csv")
    code, out, _ = run_cli(
        capsys, "simulate", model_path("javelin1d.hjm"), "associated:walpha",
        "base", "0", "0.5", "0.001", "--out", out_file, "--lift", "walpha",
    )
    assert code == 0
    assert "lifting check 'walpha'" in out
    assert "-> pass" in out
    rows = machine_rows(out)
    lifting = [r for r in rows if r[0] == "lifting"]
    assert lifting and lifting[0][4] == "pass"


def test_simulate_lift_integrates_the_associated_field_once(
        capsys, tmp_path, monkeypatch):
    import hjmech.cli
    import hjmech.numeric

    integrate = hjmech.numeric.integrate
    fields = []

    def counting(X, *args, **kwargs):
        fields.append(X)
        return integrate(X, *args, **kwargs)

    monkeypatch.setattr(hjmech.cli, "integrate", counting)
    monkeypatch.setattr(hjmech.numeric, "integrate", counting)
    code, out, err = run_cli(
        capsys, "simulate", model_path("javelin1d.hjm"), "associated:walpha",
        "base", "0", "0.5", "0.001", "--out", str(tmp_path / "lift.csv"),
        "--lift", "walpha",
    )
    assert code == 0, err
    assert "-> pass" in out
    # the associated field, then the full field from the lifted state
    assert [len(X.components) for X in fields] == [2, 4]


SHADOWING_MODEL = """
[model]
name = shadow
k = 1
n = 1
constant = %s 2

[lagrangian]
L = "1/2*q1_1^2 - %s*q0_1^2 + q0_1*sqrt(q0_1^2 + 1) + sin(q0_1) + cos(q0_1) + exp(q0_1/4) + q0_1*ln(q0_1^2 + 2)"

[state s]
values = 0.5, 0.1
"""


# A constant once became an argument of the compiled field, where a name
# like sqrt shadowed the math function (TypeError, exit 1); the generated
# step's own locals are named here too.
@pytest.mark.parametrize("name", [
    "sqrt", "sin", "cos", "exp", "log", "math",
    "h", "t", "half", "sixth", "c1", "k1", "rows", "range", "lambda",
])
def test_simulate_with_a_constant_named_like_a_function_or_a_local(
        capsys, tmp_path, name):
    def trajectory(constant):
        path = tmp_path / (constant + ".hjm")
        path.write_text(SHADOWING_MODEL % (constant, constant))
        out = tmp_path / (constant + ".csv")
        code, _, err = run_cli(
            capsys, "simulate", str(path), "lagrangian", "s", "0", "1",
            "0.01", "--out", str(out),
        )
        assert code == 0, err
        return out.read_text()

    assert trajectory(name) == trajectory("a")


def test_simulate_lift_requires_matching_field(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", model_path("javelin1d.hjm"), "lagrangian",
        "base", "0", "0.5", "0.001", "--out", str(tmp_path / "x.csv"),
        "--lift", "walpha",
    )
    assert code == 2
    assert "associated:walpha" in err


def test_simulate_usage_errors(capsys, tmp_path):
    out_file = str(tmp_path / "x.csv")
    code, _, err = run_cli(
        capsys, "simulate", model_path("beam.hjm"), "lagrangian",
        "released", "0", "1", "0.3", "--out", out_file,
    )
    assert code == 2  # step does not divide the interval
    code, _, err = run_cli(
        capsys, "simulate", model_path("beam.hjm"), "lagrangian",
        "0,0", "0", "1", "0.001", "--out", out_file,
    )
    assert code == 2
    assert "4" in err  # dimension mismatch names the expected width


# An infinite or overflowing step count once ended in an OverflowError
# traceback with exit 1; a finite one too large for memory is refused
# before anything is allocated.
@pytest.mark.parametrize("t1, dt, message", [
    ("inf", "0.5", "t0, t1 and the step h must be finite"),
    ("1", "nan", "t0, t1 and the step h must be finite"),
    ("1e300", "1e-300", "the grid needs inf steps"),
    ("1", "1e-12", "the grid needs 1e+12 steps; a trajectory holds at most "
                   "2000000 values, 153845 steps of this 12-coordinate field"),
], ids=["infinite-interval", "nan-step", "overflowing-count", "over-budget"])
def test_simulate_refuses_grids_beyond_the_budget(capsys, tmp_path, t1, dt, message):
    code, out, err = run_cli(
        capsys, "simulate", model_path("javelin.hjm"), "lagrangian", "launch",
        "0", t1, dt, "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "")
    assert err.startswith("hjmech: error: ") and message in err
    assert not (tmp_path / "x.csv").exists()


# A NaN in the initial state once integrated to rows of NaN with exit 0,
# final state (nan, -4, -12, -24), from the command line and from a
# [state] block alike.
@pytest.mark.parametrize("initial", ["nan,0,0,0", "0,0,-inf,0"])
def test_simulate_refuses_an_initial_state_that_is_not_finite(capsys, tmp_path, initial):
    code, out, err = run_cli(
        capsys, "simulate", model_path("beam.hjm"), "lagrangian", initial,
        "0", "1", "0.5", "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out, err) == (2, "", "hjmech: error: the initial state must be finite\n")
    assert not (tmp_path / "x.csv").exists()


def test_a_state_block_that_is_not_finite_is_bad_input(capsys, tmp_path):
    path = tmp_path / "beam.hjm"
    with open(model_path("beam.hjm")) as fh:
        path.write_text(fh.read().replace("values = 0, 0, 0, 0", "values = nan, 0, 0, 0"))
    code, out, err = run_cli(
        capsys, "simulate", str(path), "lagrangian", "released",
        "0", "1", "0.5", "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "")
    assert "a state's values must be finite" in err and "line 28" in err
    assert not (tmp_path / "x.csv").exists()


def test_the_trajectory_budget_admits_the_benchmarks_widest_run():
    # 10,000 steps of the 16-coordinate (k, n) = (2, 4) ladder rung
    assert numeric.MAX_TRAJECTORY_VALUES >= 10_001 * 17


# A NaN tolerance made every sampled comparison false and an infinite one
# made every sampled radical residual "numeric-zero"; both were accepted.
@pytest.mark.parametrize("argv", [
    ("check", model_path("javelin.hjm"), "rest"),
    ("involution", model_path("javelin1d.hjm"), "wfam"),
    ("simulate", model_path("beam.hjm"), "lagrangian", "released", "0", "1", "0.5"),
], ids=["check", "involution", "simulate"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_must_be_positive_and_finite(capsys, tmp_path, argv, tol):
    extra = ("--out", str(tmp_path / "x.csv")) if argv[0] == "simulate" else ()
    code, out, err = run_cli(capsys, *argv, *extra, "--tol", tol)
    assert (code, out, err) == (2, "", "hjmech: error: --tol must be positive and finite\n")


BEYOND_FLOATS = '''
[model]
name = beyond
k = %d
n = 1
%s
[lagrangian]
L = "%s"

[section s]
%s

[state origin]
values = %s
'''


# Each of these once ended in a traceback with exit 1: a complex value
# given to sin (TypeError), and exact integers too large for a float
# (OverflowError from the finiteness check, from sampling and from the
# lift).
@pytest.mark.parametrize("model, field, lift, message", [
    (BEYOND_FLOATS % (1, "constant = mu -1\n",
                      "1/2*q1_1^2 + sin(sqrt(sqrt(mu)))*q0_1",
                      's1_1 = "0"', "0.5, 0.1"),
     "lagrangian", False, "field evaluation failed at t = 0, state = (0.5, 0.1)"),
    (BEYOND_FLOATS % (1, "", "1/2*q1_1^2 + 2^1100*q0_1", 's1_1 = "0"',
                      "0.5, 0.1"),
     "lagrangian", False, "int too large to convert to float"),
    (BEYOND_FLOATS % (2, "", "1/2*q2_1^2", 's2_1 = "0"\ns3_1 = "2^1100*q0_1"',
                      "0.5, 0.1"),
     "associated:s", True, "lifting the base state failed at t = 0"),
], ids=["complex-argument", "huge-field", "huge-lift"])
def test_simulate_beyond_the_floats_exits_3(capsys, tmp_path, model, field,
                                            lift, message):
    path = tmp_path / "beyond.hjm"
    path.write_text(model)
    lift_args = ("--lift", "s") if lift else ()
    code, out, err = run_cli(
        capsys, "simulate", str(path), field, "origin", "0", "0.1", "0.01",
        "--out", str(tmp_path / "x.csv"), *lift_args,
    )
    assert code == 3 and out == ""
    assert err.startswith("hjmech: error: ") and message in err


def test_simulate_overflow_names_the_failing_subterm(capsys, tmp_path):
    # the overflow once reached the user as Python's errno tuple,
    # "(34, 'Numerical result out of range')"
    path = tmp_path / "beyond.hjm"
    path.write_text(BEYOND_FLOATS % (1, "", "1/2*q1_1^2 - q0_1^4", 's1_1 = "0"',
                                     "-1e200, 0"))
    code, out, err = run_cli(
        capsys, "simulate", str(path), "lagrangian", "origin", "0", "0.01", "0.01",
        "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (3, "")
    assert err == ("hjmech: error: field evaluation failed at t = 0, "
                   "state = (-1e+200, 0.0): overflow in q0_1^3\n")


def test_check_with_an_integer_beyond_the_floats_decides_exactly(
        capsys, tmp_path):
    path = tmp_path / "beyond.hjm"
    path.write_text(BEYOND_FLOATS % (1, "", "1/2*q1_1^2",
                                     's1_1 = "2^1100*q0_1"', "0.5"))
    code, out, err = run_cli(capsys, "check", str(path), "s")
    assert code == 1 and err == ""
    rows = machine_rows(out)
    assert [(r[0], r[1]) for r in rows] == [
        ("tangency", "lag:q1_1"), ("energy", "lag:q0_1"),
        ("tangency", "ham:p0_1"), ("energy", "ham:q0_1"),
        ("hjeq", "ham:constancy:q0_1"),
    ]
    assert all(r[3:] == ["-", "nonzero"] for r in rows)
    assert out.count("classification: not-a-solution") == 2


def test_check_with_sin_of_an_infinity_reports_unsampled_entries(
        capsys, tmp_path):
    # c*d*q0_1 is inf at every sample, and math.sin(inf) raises a bare
    # ValueError; check once exited 2 with only "math domain error"
    path = tmp_path / "beyond.hjm"
    path.write_text(BEYOND_FLOATS % (1, "constant = c 1e300\nconstant = d 1e300\n",
                                     "1/2*q1_1^2", 's1_1 = "sin(c*d*q0_1)"', "0.5"))
    code, out, err = run_cli(capsys, "check", str(path), "s")
    assert code == 1 and err == ""
    rows = machine_rows(out)
    assert len(rows) == 5
    assert all(r[3:] == ["-", "nonzero"] for r in rows)
    assert "sampling failed on every attempt (domain errors)" in out
    assert out.count("classification: not-a-solution") == 2



def test_check_lists_every_unsampled_entry_of_both_sides(capsys, tmp_path):
    # energy[q0_1] is unsampled on both sides; its two equal assumption
    # lines were once merged into one, so five entries were listed as four
    path = tmp_path / "beyond.hjm"
    path.write_text(BEYOND_FLOATS % (1, "constant = c 1e300\nconstant = d 1e300\n",
                                     "1/2*q1_1^2", 's1_1 = "sin(c*d*q0_1)"', "0.5"))
    _, out, _ = run_cli(capsys, "check", str(path), "s")
    head = "  - sampling failed on every attempt (domain errors), treated as nonzero: "
    listed = [line[len(head):] for line in out.splitlines() if line.startswith(head)]
    assert listed == ["tangency[q1_1]", "energy[q0_1]",
                      "tangency[p0_1]", "energy[q0_1]", "hjeq[constancy:q0_1]"]


NON_AFFINE_LEGENDRE = '''
[model]
name = quartic
k = 1
n = 1

[lagrangian]
L = "1/4*q1_1^4 + 1/2*q1_1^2"
'''


def test_simulate_lagrangian_does_not_build_the_legendre_map(
        capsys, tmp_path, monkeypatch):
    import hjmech.cli

    def forbidden(sys_):
        raise AssertionError("simulate lagrangian built the Legendre map")

    monkeypatch.setattr(hjmech.cli, "legendre", forbidden)
    code, out, err = run_cli(
        capsys, "simulate", model_path("beam.hjm"), "lagrangian",
        "released", "0", "1", "0.001", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 0, err


def test_non_affine_legendre_model_simulates_only_its_lagrangian_field(
        capsys, tmp_path):
    path = tmp_path / "quartic.hjm"
    path.write_text(NON_AFFINE_LEGENDRE)
    out_file = str(tmp_path / "x.csv")
    code, out, err = run_cli(
        capsys, "simulate", str(path), "lagrangian", "0,1", "0", "1", "0.25",
        "--out", out_file,
    )
    assert code == 0, err
    assert "final: t = 1, state = (1, 1)" in out
    code, out, err = run_cli(
        capsys, "simulate", str(path), "hamiltonian", "0,1", "0", "1", "0.25",
        "--out", out_file,
    )
    assert code == 3 and out == ""
    assert err == (
        "hjmech: error: the Legendre map has no symbolic inverse: solving "
        "for order-1 jets is not affine; symbolic inversion unavailable\n"
    )


@pytest.mark.parametrize("lagrangian, message", [
    ("(" * 3000 + "q1_1" + ")" * 3000, "expression nested too deeply"),
    ("1/0", "division by zero (at position 2)"),
    ("q1_1^2/(q1_1 - q1_1)", "division by zero (at position 7)"),
    ("(1 - 1)^(-1)", "division by zero (at position 0)"),
    ("ln(0)", "ln of a non-positive number (at position 0)"),
    ("q1_1^2 - ln(-9)", "ln of a non-positive number (at position 9)"),
    ("q1_1^2 + sqrt(-1)*q0_1", "root of a negative number (at position 14)"),
    ("q1_1^2 + (-4)^(1/2)", "root of a negative number (at position 9)"),
    ("q1_1^2 - (-8)^(1/3)", "root of a negative number (at position 9)"),
    ("q1_1^2 + sqrt(1-2)", "root of a negative number (at position 14)"),
    ("q1_1^2 + (q0_1-q0_1-1)^(1/2)", "root of a negative number (at position 9)"),
    ("(q0_1+q1_1+c+1)^40", "expanding this gives 12341 terms, over the limit of "
     "1000 (at position 0)"),
], ids=["deep-nesting", "literal-zero", "cancelling-divisor", "zero-power",
        "ln-zero", "ln-negative", "sqrt-negative", "half-power-negative",
        "cube-root-negative", "sqrt-difference", "cancelling-radicand",
        "term-budget"])
def test_parser_boundaries_are_usage_errors(capsys, tmp_path, lagrangian, message):
    path = tmp_path / "bad.hjm"
    # the constant c takes the blank line, so L stays on line 8
    path.write_text(NON_AFFINE_LEGENDRE.replace("n = 1\n\n", "n = 1\nconstant = c\n").replace(
        "1/4*q1_1^4 + 1/2*q1_1^2", lagrangian))
    code, out, err = run_cli(capsys, "derive", str(path), "energy")
    assert code == 2 and out == ""
    assert err.startswith("hjmech: error: line 8: ") and message in err


def test_term_budget_counts_powers_and_products():
    table = JetSpace(1, 1).table(("c",))
    for text, position in (("(q0_1+q1_1+c+1)^(-40)", 0), ("((q0_1+q1_1+c+1)^10)^2", 0),
                           ("q1_1*" + "*".join("(c+%d)" % i for i in range(11)), 65)):
        with pytest.raises(ValueError) as exc:
            parse(text, table)
        assert "over the limit of 1000 (at position %d)" % position in str(exc.value)
    # C(4+8-1, 8) = 165 terms is within the limit
    assert len(parse("(q0_1+q1_1+c+1)^8", table).sym.args) == 165


TOPICS = ("cartan", "energy", "field", "legendre", "hamiltonian", "hamfield")
FUZZ_MODEL = '''[model]
name = fuzz
k = %d
n = 2
constant = a
constant = b

[lagrangian]
L = "%s"
'''


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, 2)), st.booleans(), grammar_texts())
def test_derive_exits_with_a_documented_code(tmp_path_factory, k, kinetic, text):
    # with a kinetic term most Lagrangians are regular and every topic
    # derives; without one most are degenerate (exit 3)
    if kinetic:
        text = "1/2*q%d_1^2 + 1/2*q%d_2^2 + %s" % (k, k, text)
    path = tmp_path_factory.getbasetemp() / "fuzz.hjm"
    path.write_text(FUZZ_MODEL % (k, text))
    for topic in TOPICS:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["derive", str(path), topic])
        assert code in (0, 1, 2, 3), (topic, text)


HOSTILE_CONSTANTS = st.sampled_from(("0", "1", "-1", "1e300", "-1e300", "1e-300"))
HOSTILE_STATES = st.sampled_from(("0", "1", "-0.5", "1e200", "-1e200"))
COMMAND_MODEL = '''[model]
name = fuzz
k = %(k)d
n = 1
constant = a %(a)s
constant = b %(b)s

[lagrangian]
L = "1/2*q%(k)d_1^2 + %(L)s"

[state base]
values = %(base)s

[state full]
values = %(full)s
'''


@st.composite
def command_texts(draw, leaves, depth=2):
    """Small grammar texts over ``leaves``."""
    if not depth or draw(st.booleans()):
        return draw(st.sampled_from(leaves + ("1", "2", "1/2")))
    inner = command_texts(leaves, depth - 1)
    kind = draw(st.sampled_from(("+", "-", "*", "/", "^", "f")))
    if kind == "^":
        return "(%s)^%s" % (draw(inner), draw(st.sampled_from(("2", "-1", "(1/2)"))))
    if kind == "f":
        name = draw(st.sampled_from(("sqrt", "sin", "cos", "exp", "ln")))
        return "%s(%s)" % (name, draw(inner))
    return "(%s %s %s)" % (draw(inner), kind, draw(inner))


@st.composite
def command_models(draw):
    """A one-axis model with hostile constant values and states, and one
    block for each kind of candidate the commands take: the section s,
    the 1-form w and the family f, affine in its parameters."""
    k = draw(st.sampled_from((1, 2)))
    q = tuple("q%d_1" % i for i in range(k + 1))
    params = ("a", "b")[:k]
    others = ("a", "b")[k:]  # the constants that are not parameters

    def text(leaves):
        return draw(command_texts(leaves))

    def states(size):
        return ", ".join(draw(st.lists(HOSTILE_STATES, min_size=size, max_size=size)))

    head = COMMAND_MODEL % dict(
        k=k, a=draw(HOSTILE_CONSTANTS), b=draw(HOSTILE_CONSTANTS),
        L=text(("a", "b") + q), base=states(k), full=states(2 * k))
    blocks = {
        "s": ["[section s]"] + ['s%d_1 = "%s"' % (j, text(("a", "b") + q[:k]))
                                for j in range(k, 2 * k)],
        "w": ["[oneform w]"] + ['a%d_1 = "%s"' % (j, text(("a", "b") + q[:k]))
                                for j in range(k)],
        "f": ["[family f]", "params = " + ", ".join(params)] + [
            'a%d_1 = "%s*q%d_1 + %s"' % (j, params[j], j, text(others + q[:k]))
            for j in range(k)],
    }
    return {name: head + "\n" + "\n".join(block) + "\n" for name, block in blocks.items()}


def _negative_verdict(command, out):
    if command == "check":
        return "classification: not-a-solution" in out
    if command == "involution":
        return any(r[0] == "bracket" and r[4] == "nonzero" for r in machine_rows(out))
    return "-> fail" in out


@settings(max_examples=60, deadline=timedelta(seconds=30))
@given(command_models())
def test_every_command_exits_with_a_documented_code(tmp_path_factory, models):
    # exit 1 is a negative verdict and nothing else; no exception escapes
    base = tmp_path_factory.getbasetemp()
    for name, text in models.items():
        (base / ("%s.hjm" % name)).write_text(text)
    grid = ["0", "0.04", "0.01", "--out", str(base / "commands.csv")]
    commands = [
        ["check", "s", "s", "--samples", "5"],
        ["check", "w", "w", "--samples", "5"],
        ["involution", "f", "f", "--samples", "5"],
        ["simulate", "s", "lagrangian", "full"] + grid,
        ["simulate", "w", "hamiltonian", "full"] + grid,
        ["simulate", "w", "associated:w", "base"] + grid,
        ["simulate", "s", "associated:s", "base"] + grid + ["--lift", "s"],
    ]
    for command, model, *rest in commands:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([command, str(base / ("%s.hjm" % model))] + rest)
        assert code in (0, 1, 2, 3), (command, rest, models[model])
        assert code != 1 or _negative_verdict(command, out.getvalue()), (command, models[model])


@pytest.mark.parametrize("what, line", [
    ("energy", "E_L = 1/2*q1_1^2 + exp(q0_1)"),
    ("field", "X_L = q1_1 ∂q0_1 + (-exp(q0_1)) ∂q1_1"),
    ("hamiltonian", "h = 1/2*p0_1^2 + exp(q0_1)"),
    ("hamfield", "X_h = p0_1 ∂q0_1 + (-exp(q0_1)) ∂p0_1"),
], ids=["energy", "field", "hamiltonian", "hamfield"])
def test_derive_prints_exp(capsys, tmp_path, what, line):
    path = tmp_path / "well.hjm"
    path.write_text(NON_AFFINE_LEGENDRE.replace(
        "1/4*q1_1^4 + 1/2*q1_1^2", "1/2*q1_1^2 - exp(q0_1)"))
    code, out, err = run_cli(capsys, "derive", str(path), what)
    assert code == 0, err
    assert line in out.splitlines()


def test_derive_on_a_deeply_nested_radical(capsys, tmp_path):
    # printing once rendered every sub-base three times per level
    radical = "q0_1"
    for _ in range(40):
        radical = "sqrt(1 + %s)" % radical
    table = JetSpace(1, 1).table()
    e = parse(radical, table)
    text = str(e)
    assert text.count("sqrt(") == 40 and parse(text, table) == e
    path = tmp_path / "nested.hjm"
    path.write_text(NON_AFFINE_LEGENDRE.replace(
        "1/4*q1_1^4 + 1/2*q1_1^2", "1/2*q1_1^2 + " + radical))
    code, out, err = run_cli(capsys, "derive", str(path), "energy")
    assert code == 0, err
    assert "E_L = 1/2*q1_1^2 - %s" % text in out.splitlines()


def test_simulate_domain_failure_is_exit_3(capsys, tmp_path):
    # drive the radical candidate out of its domain: radicand hits zero
    code, _, err = run_cli(
        capsys, "simulate", model_path("javelin1d.hjm"), "associated:walpha",
        "0,1.99", "0", "4", "0.001", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 3


# -- involution --------------------------------------------------------------------


def test_involution_command(capsys):
    code, out, _ = run_cli(
        capsys, "involution", model_path("javelin1d.hjm"), "wfam"
    )
    assert code == 0
    assert "{c1,c2}" in out
    assert "exact-zero" in out
    assert "min |det" in out
    rows = machine_rows(out)
    assert any(r[0] == "bracket" and r[4] == "exact-zero" for r in rows)


def test_involution_degenerate_family_is_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "involution", fixture_path("degenerate.hjm"), "stuck"
    )
    assert code == 3
    assert "hjmech: error:" in err


def test_involution_rejects_non_families(capsys):
    code, _, err = run_cli(
        capsys, "involution", model_path("javelin1d.hjm"), "walpha"
    )
    assert code == 2


# -- shared error paths ---------------------------------------------------------------


def test_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "derive", model_path("absent.hjm"), "cartan")
    assert code == 2
    assert "hjmech: error:" in err


def test_singular_lagrangian_field_is_exit_3(capsys, tmp_path):
    path = tmp_path / "singular.hjm"
    path.write_text(
        "[model]\nname = flat\nk = 1\nn = 1\n\n"
        '[lagrangian]\nL = "q0_1 + q1_1"\n\n'
        "[state origin]\nvalues = 0, 0\n"
    )
    code, _, err = run_cli(
        capsys, "simulate", str(path), "lagrangian", "origin",
        "0", "1", "0.1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 3
    assert "singular" in err


@pytest.mark.parametrize("declaration, message", [
    ("c nan", "constant 'c' needs a finite value, not nan"),
    ("c -inf", "constant 'c' needs a finite value, not -inf"),
    ("c 0 nonzero", "constant 'c' is declared nonzero but its value is 0"),
])
def test_a_constant_the_maths_cannot_use_is_bad_input(capsys, tmp_path, declaration, message):
    # a NaN made every sampled residual "nonzero" (exit 1), and a zero
    # "nonzero" constant derived h = p0_1^2/(2*c) with exit 0 until
    # simulate divided by it (exit 3)
    path = tmp_path / "constant.hjm"
    path.write_text(
        "[model]\nname = m\nk = 1\nn = 1\nconstant = %s\n\n"
        '[lagrangian]\nL = "1/2*c*q1_1^2 + c*q0_1"\n\n'
        '[section s]\ns1_1 = "c*q0_1"\n\n'
        "[state o]\nvalues = 0, 1\n" % declaration
    )
    for argv in (("check", str(path), "s"), ("derive", str(path), "hamiltonian"),
                 ("simulate", str(path), "hamiltonian", "o", "0", "1", "0.1",
                  "--out", str(tmp_path / "x.csv"))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "line 5: %s" % message in err


# -- model-reader fuzz ---------------------------------------------------------

FUZZ_VALUES = st.one_of(
    grammar_texts(max_depth=2).map(lambda t: '"%s"' % t),
    st.sampled_from(("?", '"?"', "", '"', '""', '"q0_1" "q0_2"', '"q0_1 # x"', "q0_1",
                     "a", "b", "1/2", "-3", "0, 1", "0.5, x", "a, b", "a, zz", "x y",
                     "a 1 nonzero", "b 1 2", "zz 1e3")),
)
FUZZ_LINES = st.one_of(
    st.sampled_from(("[model]", "[lagrangian]", "[section]", "[bogus x]", "[section 9x]",
                     "[Section c]", "", "# a comment", "=", "[", "key", "= value",
                     "[model", '"quote"', "[state s] trailing")),
    st.tuples(st.sampled_from(("name", "k", "n", "constant", "L", "s1_1", "a0_1", "w",
                               "energy", "params", "inverse.a", "values", "zz", "s1_x")),
              st.sampled_from((" = ", "=", " =\t")), FUZZ_VALUES).map("".join),
)


@st.composite
def model_blocks(draw, k):
    """A candidate or state block, complete more often than not."""
    kind = draw(st.sampled_from(("section", "oneform", "genfunc", "family", "state")))
    name = draw(st.sampled_from(("c", "d", "e", "f", "g", "")))
    lines = ["[%s %s]" % (kind, name) if name else "[%s]" % kind]
    value = FUZZ_VALUES if draw(st.booleans()) else st.sampled_from(
        ('"0"', '"q0_1"', '"a*q0_2 + 1"', "?"))
    if kind == "family":
        lines.append("params = " + draw(st.sampled_from(("a", "a, b", "b", "zz", ""))))
        if draw(st.booleans()):
            lines.append('inverse.a = "p0_1"')
    if kind in ("section", "oneform", "family"):
        prefix = "s" if kind == "section" or (kind == "family" and draw(st.booleans())) else "a"
        orders = range(k, 2 * k) if prefix == "s" else range(k)
        lines += ["%s%d_%d = %s" % (prefix, j, axis, draw(value))
                  for j in orders for axis in (1, 2)]
    elif kind == "genfunc":
        lines.append("w = " + draw(value))
        if draw(st.booleans()):
            lines.append("energy = " + draw(st.sampled_from(("a", "1/2", "-3", "q0_1"))))
    else:
        lines.append("values = " + ", ".join(
            draw(st.lists(st.sampled_from(("0", "1.5", "-2", "1e3", "x")), min_size=1, max_size=4))))
    if len(lines) > 1 and not draw(st.integers(0, 3)):
        del lines[draw(st.integers(1, len(lines) - 1))]
    return lines


@st.composite
def model_texts(draw):
    """A mostly well-formed head and Lagrangian, candidate and state
    blocks, and now and then a stray or malformed line anywhere."""
    k = draw(st.sampled_from((1, 2)))
    lines = ["[model]", "name = fuzz", "k = %d" % k, "n = 2"]
    lines += draw(st.lists(st.sampled_from(("constant = a", "constant = b 1.5")),
                           unique=True, max_size=2))
    if draw(st.integers(0, 4)):
        lines += ["[lagrangian]",
                  'L = "1/2*q%d_1^2 + 1/2*q%d_2^2 + %s"' % (k, k, draw(grammar_texts(max_depth=1)))]
    for block in draw(st.lists(model_blocks(k), max_size=4)):
        lines += [""] + block
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        lines.insert(draw(st.integers(0, len(lines))), draw(FUZZ_LINES))
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\n\n")))


@settings(max_examples=300, deadline=None)
@given(model_texts())
def test_model_reader_loads_or_raises_model_error(text):
    try:
        m = M.loads(text)
    except M.ModelError:
        return
    assert isinstance(m, M.ModelFile)
    again = M.loads(M.dumps(m))
    assert again == m
    assert M.dumps(again) == M.dumps(m)


def test_python_dash_m_runs_the_cli(capsys):
    # "No module named hjmech.__main__" before there was one; with no
    # arguments, main(None) reads the script's own (empty) argv; -OO strips
    # docstrings, and the usage is still printed
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for flags, argv, want in (((), ("derive", model_path("free_particle.hjm"), "energy"), 0),
                              ((), ("--help",), 0), (("-OO",), ("--help",), 0), ((), (), 2)):
        ran = subprocess.run([sys.executable, *flags, "-m", "hjmech", *argv],
                             capture_output=True, env=env, timeout=120)
        code, out, err = run_cli(capsys, *argv)
        assert (ran.returncode, ran.stdout, ran.stderr) == (code, out.encode(), err.encode())
        assert code == want and (out or err), argv


# -- reading the command line -----------------------------------------------------


def _reference_parser():
    """The argparse parser the command line was read with before the table
    ``cli._COMMANDS``; the reference the table's reader must agree with."""
    import argparse

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
    d.set_defaults(func=cli.cmd_derive)

    c = sub.add_parser("check", help="run the residual battery on a candidate")
    c.add_argument("model")
    c.add_argument("candidate")
    c.add_argument("--tol", type=float, default=DEFAULT_TOL)
    c.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    c.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c.set_defaults(func=cli.cmd_check)

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
    s.add_argument("--tol", type=float, default=cli.DEFAULT_LIFT_TOL,
                   help="lifting tolerance")
    s.set_defaults(func=cli.cmd_simulate)

    i = sub.add_parser("involution", help="pairwise brackets of a family")
    i.add_argument("model")
    i.add_argument("family")
    i.add_argument("--tol", type=float, default=DEFAULT_TOL)
    i.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    i.add_argument("--seed", type=int, default=DEFAULT_SEED)
    i.set_defaults(func=cli.cmd_involution)
    return p


ARG_NAMES = st.from_regex(r"[a-z][a-z0-9_./:]{0,8}", fullmatch=True)
# negative numbers among them, in the forms argparse reads as values
ARG_NUMBERS = st.integers(-999, 999).map(lambda i: repr(i / 8))
ARG_INTEGERS = st.integers(-9, 500).map(str)
SAMPLING_OPTIONS = {"tol": ARG_NUMBERS, "samples": ARG_INTEGERS, "seed": ARG_INTEGERS}
GRAMMAR = {
    "derive": ([ARG_NAMES, st.sampled_from(cli._TOPICS)], {}),
    "check": ([ARG_NAMES, ARG_NAMES], SAMPLING_OPTIONS),
    "simulate": ([ARG_NAMES, ARG_NAMES, ARG_NAMES | ARG_NUMBERS] + [ARG_NUMBERS] * 3,
                 {"out": ARG_NAMES, "lift": ARG_NAMES, "tol": ARG_NUMBERS}),
    "involution": ([ARG_NAMES, ARG_NAMES], SAMPLING_OPTIONS),
}


@st.composite
def command_lines(draw):
    """A command line of the documented grammar: the positionals in order,
    with options in either form, some repeated, inserted anywhere after the
    command."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    positionals, options = GRAMMAR[command]
    chunks = [[draw(text)] for text in positionals]
    if options:
        for _ in range(draw(st.integers(0, 6))):
            name = draw(st.sampled_from(sorted(options)))
            value = draw(options[name])
            chunk = (["--%s=%s" % (name, value)] if draw(st.booleans())
                     else ["--" + name, value])
            chunks.insert(draw(st.integers(0, len(chunks))), chunk)
    return [command] + [token for chunk in chunks for token in chunk]


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_the_table_reads_what_argparse_read(argv):
    want = vars(_reference_parser().parse_args(argv))
    handler, args = cli._arguments(argv)
    assert handler is want.pop("func") and want.pop("command") == argv[0]
    assert vars(args) == want


JAVELIN1D = model_path("javelin1d.hjm")


@pytest.mark.parametrize("argv", [
    ("check", JAVELIN1D),
    ("check", JAVELIN1D, "walpha", "wscaled"),
    ("simulate", JAVELIN1D, "lagrangian", "base", "0", "1"),
    ("check", JAVELIN1D, "walpha", "--frob", "1"),
    ("involution", JAVELIN1D, "wfam", "--seed"),
    ("check", JAVELIN1D, "walpha", "--tol", "--seed", "1"),
    ("check", JAVELIN1D, "walpha", "--samples", "x"),
    ("involution", JAVELIN1D, "wfam", "--samples=2.5"),
    ("check", JAVELIN1D, "walpha", "--tol", "x"),
    ("simulate", JAVELIN1D, "lagrangian", "base", "0", "x", "0.1"),
    ("derive", JAVELIN1D, "lagrangian"),
    ("derive", JAVELIN1D, "energy", "--tol", "1"),
    ("verify", JAVELIN1D, "walpha"),
], ids=["missing-positional", "extra-positional", "missing-number", "unknown-option",
        "option-without-value", "option-before-option", "samples-not-int", "samples-float",
        "tol-not-float", "t1-not-float", "bad-topic", "derive-has-no-options",
        "unknown-command"])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit):
        _reference_parser().parse_args(argv)
    capsys.readouterr()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("hjmech: error: ") and err.count("\n") == 1


def test_option_names_are_not_abbreviated(capsys):
    # argparse took --samp for --samples
    argv = ("check", JAVELIN1D, "walpha", "--samp", "3")
    assert _reference_parser().parse_args(argv).samples == 3
    assert run_cli(capsys, *argv) == (2, "", "hjmech: error: check has no option --samp\n")


def test_a_negative_initial_state_is_a_positional():
    # argparse took "-1,0.5" for an option and refused it
    handler, args = cli._arguments(["simulate", "m", "lagrangian", "-1,0.5", "0", "1", "0.5"])
    assert handler is cli.cmd_simulate and args.initial == "-1,0.5"


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("check", "--help"),
                                  ("simulate", JAVELIN1D, "-h", "--tol", "x")])
def test_help_prints_the_usage(capsys, argv):
    usage = cli._USAGE
    assert usage.startswith("Usage::") and all(
        "hjmech %s MODEL" % command in usage for command in cli._COMMANDS)
    assert run_cli(capsys, *argv) == (0, usage, "")


def test_no_arguments_print_the_usage_to_stderr(capsys):
    assert run_cli(capsys) == (2, "", cli._USAGE)
