"""Candidate solutions (sections, 1-forms, generating functions, families),
their residual reports, Legendre transport, classification, and involution.
"""

import pytest

from hjmech import (
    CompleteSolutionFamily,
    DegenerateFamilyError,
    Expression,
    GENERALIZED,
    GeneratingFunction,
    HJError,
    JetSpace,
    NOT_A_SOLUTION,
    OneForm,
    STRICT,
    Section,
    associated_field,
    classify,
    combine,
    gen_ham_residuals,
    gen_lag_residuals,
    ham_closedness,
    ham_energy_residuals,
    hamiltonian,
    hj_equation,
    involution_check,
    jet,
    lag_closedness,
    lag_energy_residuals,
    lag_genfunc_residuals,
    legendre,
    momentum,
    parse,
    transport,
)
from hjmech.jets import VectorField

from conftest import make_flight_1d


def base(text, n=1, k=2, constants=()):
    return parse(text, JetSpace(n, k - 1).table(constants))


def zero_section(k, n):
    z = Expression.number(0)
    return Section(k, n, {(j, A): z for j in range(k, 2 * k) for A in range(1, n + 1)})


def radical_oneform():
    """dW for W = c2 q0 + ∫ sqrt(2 c2 q1 - q1^2 - 2 c1): a 1-d k=2 candidate."""
    return OneForm(
        2,
        1,
        {
            (0, 1): base("c2", constants=("c1", "c2")),
            (1, 1): base(
                "sqrt(2*c2*q1_1 - q1_1^2 - 2*c1)", constants=("c1", "c2")
            ),
        },
    )


@pytest.fixture(scope="module")
def flight_1d_pair():
    sys_ = make_flight_1d()
    fl = legendre(sys_)
    return sys_, fl, hamiltonian(sys_, fl)


# -- candidate containers --------------------------------------------------------


def test_section_requires_every_component():
    with pytest.raises(HJError):
        Section(2, 1, {(2, 1): Expression.number(0)})
    with pytest.raises(HJError):
        Section(2, 1, {(2, 1): Expression.number(0),
                       (3, 1): Expression.number(0),
                       (4, 1): Expression.number(0)})


def test_missing_component_errors_name_the_candidate_kind():
    z = Expression.number(0)
    with pytest.raises(HJError, match="section is missing the component s2_1"):
        Section(2, 1, {(3, 1): z})
    with pytest.raises(HJError, match="1-form is missing the component a0_1"):
        OneForm(2, 1, {(1, 1): z})


def test_section_and_oneform_never_compare_equal():
    z = Expression.number(0)
    s = Section(1, 1, {(1, 1): z})
    a = OneForm(1, 1, {(0, 1): z})
    assert s == Section(1, 1, {(1, 1): z})
    assert s != a and a != s
    # equality compares the class, not only the component table
    object.__setattr__(a, "components", dict(s.components))
    assert s != a and a != s


def test_section_components_live_on_the_base():
    with pytest.raises(HJError):
        Section(2, 1, {(2, 1): parse("q2_1", JetSpace(1, 2).table()),
                       (3, 1): Expression.number(0)})
    with pytest.raises(HJError):
        Section(2, 1, {(2, 1): parse("p0_1", __import__("hjmech").PhaseSpace(1, 2).table()),
                       (3, 1): Expression.number(0)})


def test_generic_section_has_placeholders():
    s = Section.generic(2, 3)
    assert s.has_placeholders
    assert str(s.component(2, 1)) == "s2_1"
    assert not zero_section(2, 3).has_placeholders


def test_section_as_map_and_substitution():
    s = Section(2, 1, {(2, 1): base("q1_1"), (3, 1): base("-q0_1")})
    rules = s.substitution()
    assert rules[jet(2, 1)] == base("q1_1")
    m = s.as_map()
    assert m.pull_function(parse("q3_1 + q0_1", JetSpace(1, 3).table())).is_zero


def test_oneform_component_scope():
    a = OneForm(2, 1, {(0, 1): base("q0_1"), (1, 1): base("q1_1")})
    assert a.component(0, 1) == base("q0_1")
    with pytest.raises(HJError):
        a.component(2, 1)
    with pytest.raises(HJError):
        OneForm(2, 1, {(0, 1): base("q0_1")})
    f = a.as_oneform_field()
    assert f.space == JetSpace(1, 1)
    assert f.coefficient(jet(0, 1)) == base("q0_1")


def test_generating_function_gradient():
    w = base("q0_1*q1_1^2", constants=())
    gf = GeneratingFunction(2, 1, w)
    grad = gf.gradient()
    assert grad.component(0, 1) == base("q1_1^2")
    assert grad.component(1, 1) == base("2*q0_1*q1_1")
    assert gf.energy is None
    gf2 = GeneratingFunction(2, 1, w, energy=Expression.number("1/2"))
    assert gf2.energy == Expression.number("1/2")


def test_family_validation():
    alpha = radical_oneform()
    fam = CompleteSolutionFamily(("c1", "c2"), alpha)
    assert fam.inverse_rules is None
    with pytest.raises(HJError):
        CompleteSolutionFamily(("c1",), alpha)  # needs kn = 2 parameters
    with pytest.raises(HJError):
        CompleteSolutionFamily(("c1", "c1"), alpha)
    with pytest.raises(HJError):
        CompleteSolutionFamily(("c1", "zz"), alpha)  # zz not in the components
    with pytest.raises(HJError):
        CompleteSolutionFamily(("c1", "c2"), alpha, {"c1": base("q0_1")})
    with pytest.raises(HJError):
        CompleteSolutionFamily(("c1", "c2"), "not a candidate")


def test_family_specialize():
    alpha = radical_oneform()
    fam = CompleteSolutionFamily(("c1", "c2"), alpha)
    member = fam.specialize({"c1": -2, "c2": 0})
    assert member.component(0, 1).is_zero
    assert member.component(1, 1) == base("sqrt(4 - q1_1^2)")


# -- residual reports: structure ---------------------------------------------------


def test_generic_flight_tangency_residuals(flight):
    s = Section.generic(2, 3)
    rep = gen_lag_residuals(flight, s)
    assert [e.eq_id for e in rep.entries] == [
        "q2_1", "q2_2", "q2_3", "q3_1", "q3_2", "q3_3"
    ]
    assert all(e.verdict == "symbolic" for e in rep.entries)
    assert (rep.tol, rep.samples, rep.seed) == (1e-9, 40, 42)
    # each residual mentions the placeholder derivatives of the section
    assert "d(s2_1)/d(q0_1)" in str(rep.entry("tangency", "q2_1").residual)


def test_generic_flight_closedness_count(flight):
    rep = lag_closedness(flight, Section.generic(2, 3))
    assert len(rep.entries) == 15  # C(6, 2) pairs of base coordinates
    assert rep.entries[0].eq_id == "q0_1^q0_2"


def test_combine_requires_matching_settings(flight):
    s = Section.generic(2, 3)
    a = gen_lag_residuals(flight, s)
    b = lag_closedness(flight, s, tol=1e-6)
    with pytest.raises(HJError):
        combine([a, b])
    both = combine([a, lag_closedness(flight, s)])
    assert len(both.entries) == 21
    assert both.entry("closedness", "q0_1^q1_1") is not None
    with pytest.raises(HJError):
        both.entry("closedness", "nope")


def test_shape_mismatch_is_rejected(flight):
    with pytest.raises(HJError):
        gen_lag_residuals(flight, Section.generic(2, 1))
    with pytest.raises(HJError):
        lag_closedness(flight, Section.generic(1, 3))


# -- flight at rest: generalized but not strict --------------------------------------


def test_flight_rest_section_is_generalized(flight, flight_ham):
    s = zero_section(2, 3)
    tang = gen_lag_residuals(flight, s)
    assert all(e.verdict == "exact-zero" for e in tang.entries)
    closed = lag_closedness(flight, s)
    # s*omega_L keeps the dq0^dq1 block: the candidate is not closed
    diag = closed.entry("closedness", "q0_1^q1_1")
    assert diag.verdict == "nonzero"
    assert diag.residual == Expression.number(1)
    assert classify(combine([tang, closed])) == GENERALIZED
    # the restricted energy is q1^2/2: constant along the flow, but not on
    # the whole base, so the q1-direction energy residuals stay nonzero
    energy = lag_energy_residuals(flight, s)
    assert energy.entry("energy", "q0_1").verdict == "exact-zero"
    assert energy.entry("energy", "q1_1").residual == parse(
        "q1_1", JetSpace(3, 1).table()
    )

    fl, hs = flight_ham
    alpha = transport(fl, s)
    for A in (1, 2, 3):
        assert alpha.component(0, A) == parse("q1_%d" % A, JetSpace(3, 1).table())
        assert alpha.component(1, A).is_zero
    tang_h = gen_ham_residuals(hs, alpha)
    assert all(e.verdict == "exact-zero" for e in tang_h.entries)
    closed_h = ham_closedness(alpha)
    assert classify(combine([tang_h, closed_h])) == GENERALIZED


def test_flight_rest_associated_fields_agree(flight, flight_ham):
    s = zero_section(2, 3)
    fl, hs = flight_ham
    lag_field = associated_field(flight, s)
    ham_field = associated_field(hs, transport(fl, s))
    assert isinstance(lag_field, VectorField)
    assert lag_field == ham_field
    T = JetSpace(3, 1).table()
    assert lag_field.component(jet(0, 1)) == parse("q1_1", T)
    assert lag_field.component(jet(1, 1)).is_zero


# -- beam at rest: not a solution ----------------------------------------------------


def test_beam_rest_section_fails_tangency(beam, beam_ham):
    s = zero_section(2, 1)
    rep = gen_lag_residuals(beam, s)
    r = rep.entry("tangency", "q3_1")
    assert r.verdict == "nonzero"
    assert str(r.residual) == "-rho/mu"
    assert classify(combine([rep, lag_closedness(beam, s)])) == NOT_A_SOLUTION

    fl, hs = beam_ham
    rep_h = gen_ham_residuals(hs, transport(fl, s))
    assert classify(combine([rep_h, ham_closedness(transport(fl, s))])) == NOT_A_SOLUTION


def test_beam_generic_closedness_coefficient(beam):
    rep = lag_closedness(beam, Section.generic(2, 1))
    (entry,) = rep.entries
    assert entry.eq_id == "q0_1^q1_1"
    assert str(entry.residual) == "-mu*d(s2_1)/d(q0_1) - mu*d(s3_1)/d(q1_1)"


# -- the radical 1-form: strict on both sides ------------------------------------------


def test_radical_oneform_is_strict(flight_1d_pair):
    sys_, fl, hs = flight_1d_pair
    alpha = radical_oneform()
    tang = gen_ham_residuals(hs, alpha)
    assert all(e.verdict == "exact-zero" for e in tang.entries)
    closed = ham_closedness(alpha)
    assert all(e.verdict == "exact-zero" for e in closed.entries)
    assert classify(combine([tang, closed])) == STRICT
    energy = ham_energy_residuals(hs, alpha)
    assert all(e.verdict == "exact-zero" for e in energy.entries)


def test_radical_oneform_transports_to_a_strict_section(flight_1d_pair):
    sys_, fl, hs = flight_1d_pair
    s = transport(fl, radical_oneform())
    C = ("c1", "c2")
    assert s.component(2, 1) == -base("sqrt(2*c2*q1_1 - q1_1^2 - 2*c1)", constants=C)
    assert s.component(3, 1) == base("-q1_1 + c2", constants=C)
    tang = gen_lag_residuals(sys_, s)
    assert all(e.verdict == "exact-zero" for e in tang.entries)
    closed = lag_closedness(sys_, s)
    assert classify(combine([tang, closed])) == STRICT


def test_hj_equation_on_the_radical_gradient(flight_1d_pair):
    sys_, fl, hs = flight_1d_pair
    alpha = radical_oneform()
    rep = hj_equation(hs, alpha)
    constancy = rep.with_tag("hjeq")
    assert [e.eq_id for e in constancy] == ["constancy:q0_1", "constancy:q1_1"]
    assert all(e.verdict == "exact-zero" for e in constancy)
    assert any(n == "h(q, dW) = c1" for n in rep.notes)
    assert any("is constant over the base" in n for n in rep.notes)
    # pinning the energy level to the recovered constant gives a zero value
    pinned = hj_equation(hs, alpha, energy=Expression.constant("c1"))
    assert pinned.entry("hjeq", "value").verdict == "exact-zero"
    offset = hj_equation(hs, alpha, energy=Expression.number("1/2"))
    assert offset.entry("hjeq", "value").verdict == "nonzero"


def test_hj_equation_strict_needs_an_energy(flight_1d_pair):
    _, _, hs = flight_1d_pair
    with pytest.raises(HJError):
        hj_equation(hs, radical_oneform(), strict=True)
    gf = GeneratingFunction.generic(2, 1, energy=Expression.number(0))
    rep = hj_equation(hs, gf, strict=True)
    assert rep.entries[0].verdict == "symbolic"


# -- generating functions on the beam ---------------------------------------------------


def test_beam_genfunc_residuals(beam):
    s = zero_section(2, 1)
    gf = GeneratingFunction(2, 1, base("0", constants=("mu", "rho")))
    rep = lag_genfunc_residuals(beam, s, gf)
    ids = [e.eq_id for e in rep.entries]
    assert ids == ["q0_1", "q1_1"]
    assert all(e.verdict == "exact-zero" for e in rep.entries)
    gf_bad = GeneratingFunction(2, 1, base("q0_1^2", constants=()))
    rep2 = lag_genfunc_residuals(beam, s, gf_bad)
    assert rep2.entry("genfunc", "q0_1").residual == base("2*q0_1", constants=())
    with pytest.raises(HJError):
        lag_genfunc_residuals(beam, s, GeneratingFunction(1, 1, base("0", k=1)))


# -- classification semantics ------------------------------------------------------------


def test_classify_needs_tangency(flight):
    rep = lag_closedness(flight, zero_section(2, 3))
    with pytest.raises(HJError):
        classify(rep)


def test_classify_rejects_placeholders(flight):
    rep = gen_lag_residuals(flight, Section.generic(2, 3))
    with pytest.raises(HJError):
        classify(rep)


def test_classify_numeric_zero_respects_tolerance(flight_1d_pair):
    sys_, fl, hs = flight_1d_pair
    # irrational residual that is genuinely zero only up to sampling noise
    alpha = radical_oneform()
    tang = gen_ham_residuals(hs, alpha)
    assert classify(tang) in (STRICT, GENERALIZED)


def test_classify_rational_nonzero_never_flips(beam):
    s = zero_section(2, 1)
    rep = combine([gen_lag_residuals(beam, s), lag_closedness(beam, s)])
    # -rho/mu evaluates to -24, far over any sane tolerance; and even a
    # huge tolerance must not excuse an exactly nonzero rational residual
    assert classify(rep, tol=1e6) == NOT_A_SOLUTION


# -- transport round trips ----------------------------------------------------------------


def test_transport_round_trip(flight_ham):
    fl, hs = flight_ham
    s = zero_section(2, 3)
    back = transport(fl, transport(fl, s))
    assert back == s
    with pytest.raises(HJError):
        transport(fl, Section.generic(2, 1))
    with pytest.raises(HJError):
        transport(fl, "nope")


def test_transport_needs_inverse_for_oneforms():
    from hjmech import HamiltonianError, LagrangianSystem

    L = parse("q1_1^4/12", JetSpace(1, 1).table())
    fl = legendre(LagrangianSystem(1, 1, L))
    alpha = OneForm(1, 1, {(0, 1): parse("q0_1", JetSpace(1, 0).table())})
    with pytest.raises(HamiltonianError):
        transport(fl, alpha)
    # forward transport of a section still works
    s = Section(1, 1, {(1, 1): parse("q0_1", JetSpace(1, 0).table())})
    moved = transport(fl, s)
    assert moved.component(0, 1) == parse("q0_1^3/3", JetSpace(1, 0).table())


# -- associated fields ----------------------------------------------------------------------


def test_associated_field_pairing_errors(flight, flight_ham):
    fl, hs = flight_ham
    with pytest.raises(HJError):
        associated_field(flight, transport(fl, zero_section(2, 3)))
    with pytest.raises(HJError):
        associated_field(hs, zero_section(2, 3))
    with pytest.raises(HJError):
        associated_field("nope", zero_section(2, 3))


# -- involution -------------------------------------------------------------------------------


def family_with_rules():
    alpha = radical_oneform()
    C = ("c1", "c2")
    rules = {
        "c1": parse(
            "q1_1*p0_1 - 1/2*q1_1^2 - 1/2*p1_1^2",
            __import__("hjmech").PhaseSpace(1, 2).table(C),
        ),
        "c2": parse("p0_1", __import__("hjmech").PhaseSpace(1, 2).table(C)),
    }
    return CompleteSolutionFamily(("c1", "c2"), alpha, rules)


def test_involution_with_supplied_rules(flight_1d_pair):
    _, _, hs = flight_1d_pair
    rep = involution_check(hs, family_with_rules())
    (bracket,) = rep.with_tag("bracket")
    assert bracket.eq_id == "{c1,c2}"
    assert bracket.verdict == "exact-zero"
    assert bracket.residual.is_zero
    assert any("supplied inverse rules (validated)" in n for n in rep.notes)
    assert any("min |det" in n for n in rep.notes)


def test_involution_affine_solve(flight_1d_pair):
    _, _, hs = flight_1d_pair
    # an affine family: alpha = (c2, q1*c2 + c1), solvable without rules
    C = ("c1", "c2")
    alpha = OneForm(
        2, 1,
        {(0, 1): base("c2", constants=C),
         (1, 1): base("q1_1*c2 + c1", constants=C)},
    )
    fam = CompleteSolutionFamily(("c1", "c2"), alpha)
    rep = involution_check(hs, fam)
    assert any("affine solve" in n for n in rep.notes)
    (bracket,) = rep.with_tag("bracket")
    # {p1 - q1 p0, p0} = -X?  the recovered functions are honest phase functions
    assert bracket.verdict in ("exact-zero", "nonzero")


def test_involution_rejects_bad_rules(flight_1d_pair):
    _, _, hs = flight_1d_pair
    alpha = radical_oneform()
    C = ("c1", "c2")
    PS = __import__("hjmech").PhaseSpace(1, 2).table(C)
    bad = CompleteSolutionFamily(
        ("c1", "c2"), alpha,
        {"c1": parse("p0_1 + 1", PS), "c2": parse("p0_1", PS)},
    )
    with pytest.raises(HJError):
        involution_check(hs, bad)


def test_involution_needs_a_oneform_family(flight_1d_pair):
    sys_, fl, hs = flight_1d_pair
    s = Section(2, 1, {(2, 1): base("c1", constants=("c1", "c2")),
                       (3, 1): base("c2", constants=("c1", "c2"))})
    fam = CompleteSolutionFamily(("c1", "c2"), s)
    with pytest.raises(HJError) as exc:
        involution_check(hs, fam)
    assert "transport" in str(exc.value)
    with pytest.raises(HJError):
        involution_check(hs, family_with_rules(), samples=0)


def test_degenerate_family_raises(flight_1d_pair):
    _, _, hs = flight_1d_pair
    C = ("u1", "u2")
    alpha = OneForm(
        2, 1,
        {(0, 1): base("u1 + u2", constants=C),
         (1, 1): base("q1_1*(u1 + u2)", constants=C)},
    )
    fam = CompleteSolutionFamily(("u1", "u2"), alpha)
    with pytest.raises(DegenerateFamilyError, match=(
            "^the family cannot be solved for its parameters: "
            "singular coefficient matrix in exact solve$")):
        involution_check(hs, fam)


def test_non_affine_family_without_rules_suggests_rules(flight_1d_pair):
    _, _, hs = flight_1d_pair
    fam = CompleteSolutionFamily(("c1", "c2"), radical_oneform())
    with pytest.raises(DegenerateFamilyError) as exc:
        involution_check(hs, fam)
    assert str(exc.value) == (
        "the family is not affine in its parameters; supply inverse rules "
        "to check involution"
    )
