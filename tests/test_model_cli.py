"""Model-file grammar (loads/dumps/load) and the command-line interface:
subcommands, report layout, machine block, and exit codes.
"""

import os

import pytest

from hjmech import Expression, JetSpace, OneForm, Section, parse
from hjmech import model as M
from hjmech.cli import main
from hjmech.report import MACHINE_BEGIN, MACHINE_END

from conftest import fixture_path, model_path

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
    assert m.genfuncs["wg"].energy == Expression.number("-3/2")
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
        ("energy must be declared or rational",
         FAMILY.replace("energy = c1", "energy = zz"), "declared constant"),
    ],
)
def test_parse_errors(label, text, fragment):
    with pytest.raises(M.ModelError) as exc:
        M.loads(text)
    assert fragment in str(exc.value), label


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
], ids=["deep-nesting", "literal-zero", "cancelling-divisor", "zero-power",
        "ln-zero", "ln-negative", "sqrt-negative", "half-power-negative",
        "cube-root-negative", "sqrt-difference", "cancelling-radicand"])
def test_parser_boundaries_are_usage_errors(capsys, tmp_path, lagrangian, message):
    path = tmp_path / "bad.hjm"
    path.write_text(NON_AFFINE_LEGENDRE.replace(
        "1/4*q1_1^4 + 1/2*q1_1^2", lagrangian))
    code, out, err = run_cli(capsys, "derive", str(path), "energy")
    assert code == 2 and out == ""
    assert err.startswith("hjmech: error: line 8: ") and message in err


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
