"""Momentum phase space, Legendre transfer, Hamiltonian dynamics, and the
Poisson bracket.
"""

import pytest

from hjmech import (
    Expression,
    HamiltonianError,
    JetSpace,
    LagrangianSystem,
    PhaseSpace,
    hamiltonian,
    hamiltonian_field,
    jet,
    legendre,
    momentum,
    parse,
    poisson,
)

PS12 = PhaseSpace(1, 2)  # n=1, k=2: q0_1, q1_1, p0_1, p1_1


def ph(text, space=PS12, constants=()):
    return parse(text, space.table(constants))


# -- phase space ---------------------------------------------------------------


def test_phase_space_coordinates_jets_before_momenta():
    names = [c.name for c in PhaseSpace(2, 2).coordinates]
    assert names == [
        "q0_1", "q0_2", "q1_1", "q1_2",
        "p0_1", "p0_2", "p1_1", "p1_2",
    ]
    assert PhaseSpace(2, 2).dimension == 8
    assert PhaseSpace(2, 2).base_space == JetSpace(2, 1)
    with pytest.raises(ValueError):
        PhaseSpace(0, 1)


def test_liouville_and_symplectic_forms():
    th = PS12.liouville_form()
    assert th.coefficient(jet(0, 1)) == ph("p0_1")
    assert th.coefficient(jet(1, 1)) == ph("p1_1")
    assert th.coefficient(momentum(0, 1)).is_zero
    om = PS12.symplectic_form()
    one = Expression.number(1)
    assert om.entry(jet(0, 1), momentum(0, 1)) == one
    assert om.entry(jet(1, 1), momentum(1, 1)) == one
    assert om.entry(jet(0, 1), jet(1, 1)).is_zero
    assert om.entry(momentum(0, 1), momentum(1, 1)).is_zero
    # and the sign convention ties them together
    from hjmech import exterior_derivative

    assert exterior_derivative(th) == -om


# -- Legendre transfer -----------------------------------------------------------


def test_flight_momentum_rules(flight):
    fl = legendre(flight)
    assert fl.hyperregular
    V = flight.velocity_space.table()
    for A in (1, 2, 3):
        assert fl.momentum_rule(0, A) == parse("q1_%d + q3_%d" % (A, A), V)
        assert fl.momentum_rule(1, A) == parse("-q2_%d" % A, V)


def test_flight_inverse_rules(flight):
    fl = legendre(flight)
    B = PhaseSpace(3, 2).table()
    for A in (1, 2, 3):
        assert fl.inverse_rule(2, A) == parse("-p1_%d" % A, B)
        assert fl.inverse_rule(3, A) == parse("-q1_%d + p0_%d" % (A, A), B)
        # identity on the retained jets
        assert fl.inverse_rule(0, A) == parse("q0_%d" % A, B)
        assert fl.inverse_rule(1, A) == parse("q1_%d" % A, B)


def test_beam_legendre(beam):
    fl = legendre(beam)
    V = beam.velocity_space.table(("mu", "rho"))
    assert fl.momentum_rule(0, 1) == parse("-mu*q3_1", V)
    assert fl.momentum_rule(1, 1) == parse("mu*q2_1", V)
    B = PhaseSpace(1, 2).table(("mu", "rho"))
    assert fl.inverse_rule(2, 1) == parse("p1_1/mu", B)
    assert fl.inverse_rule(3, 1) == parse("-p0_1/mu", B)


def test_forward_inverse_compose_to_identity(flight, beam, flight_1d):
    for sys_ in (flight, beam, flight_1d):
        fl = legendre(sys_)
        for coord in fl.phase_space.coordinates:
            image = fl.forward.images[coord]
            back = fl.inverse.pull_function(image)
            assert back == Expression.coordinate(coord)


def test_nonaffine_momentum_rule_has_no_symbolic_inverse():
    L = parse("q1_1^4/12", JetSpace(1, 1).table())
    sys_ = LagrangianSystem(1, 1, L)
    fl = legendre(sys_)
    assert fl.momentum_rule(0, 1) == parse("q1_1^3/3", JetSpace(1, 1).table())
    assert not fl.hyperregular
    assert fl.inverse is None
    assert fl.diagnostic == (
        "solving for order-1 jets is not affine; symbolic inversion unavailable"
    )
    with pytest.raises(HamiltonianError):
        fl.inverse_rule(1, 1)
    with pytest.raises(HamiltonianError):
        hamiltonian(sys_, fl)


# -- pullback identities ----------------------------------------------------------


def test_legendre_pulls_canonical_forms_to_cartan_forms(flight, beam, flight_1d):
    for sys_ in (flight, beam, flight_1d):
        fl = legendre(sys_)
        cd = sys_.cartan()
        phase = fl.phase_space
        assert fl.forward.pull_oneform(phase.liouville_form()) == cd.theta
        assert fl.forward.pull_twoform(phase.symplectic_form()) == cd.omega


# -- Hamiltonian function and field ------------------------------------------------


def test_flight_hamiltonian(flight_ham):
    fl, hs = flight_ham
    T = PhaseSpace(3, 2).table()
    expected = parse(
        "-1/2*q1_1^2 - 1/2*q1_2^2 - 1/2*q1_3^2"
        " + q1_1*p0_1 + q1_2*p0_2 + q1_3*p0_3"
        " - 1/2*p1_1^2 - 1/2*p1_2^2 - 1/2*p1_3^2",
        T,
    )
    assert hs.h == expected


def test_flight_hamiltonian_field(flight_ham):
    fl, hs = flight_ham
    X = hamiltonian_field(hs)
    assert X is hs.field()
    T = PhaseSpace(3, 2).table()
    for A in (1, 2, 3):
        assert X.component(jet(0, A)) == parse("q1_%d" % A, T)
        assert X.component(jet(1, A)) == parse("-p1_%d" % A, T)
        assert X.component(momentum(0, A)).is_zero
        assert X.component(momentum(1, A)) == parse("q1_%d - p0_%d" % (A, A), T)


def test_beam_hamiltonian(beam_ham):
    fl, hs = beam_ham
    T = PhaseSpace(1, 2).table(("mu", "rho"))
    assert hs.h == parse("-rho*q0_1 + q1_1*p0_1 + 1/2*p1_1^2/mu", T)
    X = hs.field()
    assert X.component(jet(1, 1)) == parse("p1_1/mu", T)
    assert X.component(momentum(0, 1)) == parse("rho", T)
    assert X.component(momentum(1, 1)) == parse("-p0_1", T)


def test_energy_transfers_back(flight_ham, beam_ham, flight_1d_ham):
    # h pulled back through the forward map is the energy
    for fl, hs in (flight_ham, beam_ham, flight_1d_ham):
        assert fl.forward.pull_function(hs.h) == fl.system.cartan().energy


def test_hamiltonian_system_validation():
    with pytest.raises(HamiltonianError):
        HS = __import__("hjmech").HamiltonianSystem
        HS(PS12, parse("q2_1", JetSpace(1, 2).table()))
    with pytest.raises(HamiltonianError):
        __import__("hjmech").HamiltonianSystem(PS12, ph("a*p0_1", PS12, ("a",)))


# -- conserved quantities along X_h -------------------------------------------------


def test_field_conserves_h(flight_ham, beam_ham):
    for fl, hs in (flight_ham, beam_ham):
        assert hs.field().apply(hs.h).is_zero


# -- Poisson bracket ----------------------------------------------------------------


def test_poisson_canonical_relations():
    one = Expression.number(1)
    assert poisson(ph("q0_1"), ph("p0_1"), PS12) == one
    assert poisson(ph("q1_1"), ph("p1_1"), PS12) == one
    assert poisson(ph("q0_1"), ph("p1_1"), PS12).is_zero
    assert poisson(ph("q0_1"), ph("q1_1"), PS12).is_zero
    assert poisson(ph("p0_1"), ph("p1_1"), PS12).is_zero


def test_poisson_antisymmetry_and_leibniz():
    f = ph("q0_1^2*p1_1")
    g = ph("q1_1*p0_1 + p1_1^2")
    h = ph("q0_1 + q1_1*p1_1")
    assert poisson(f, g, PS12) == -poisson(g, f, PS12)
    lhs = poisson(f, g * h, PS12)
    rhs = poisson(f, g, PS12) * h + g * poisson(f, h, PS12)
    assert lhs == rhs


def test_poisson_jacobi_identity():
    f = ph("q0_1*p0_1^2")
    g = ph("q1_1^2 + p1_1*q0_1")
    h = ph("p0_1*p1_1")
    total = (
        poisson(f, poisson(g, h, PS12), PS12)
        + poisson(g, poisson(h, f, PS12), PS12)
        + poisson(h, poisson(f, g, PS12), PS12)
    )
    assert total.is_zero


def test_poisson_reproduces_the_field(beam_ham):
    fl, hs = beam_ham
    # X_h(f) = {f, h} for every coordinate function f
    T = PhaseSpace(1, 2)
    for coord in T.coordinates:
        f = Expression.coordinate(coord)
        assert hs.field().component(coord) == poisson(f, hs.h, T)


def test_the_hamiltonian_submodule_imports_as_a_module():
    # the package once bound the function under the submodule's name
    import importlib
    import types

    import hjmech
    import hjmech.hamiltonian as H

    assert isinstance(H, types.ModuleType)
    assert H is hjmech.hamiltonian is importlib.import_module("hjmech.hamiltonian")
    assert H.PhaseSpace is PhaseSpace and H.poisson is poisson
    sys_ = LagrangianSystem(2, 1, parse("1/2*q2_1^2", JetSpace(1, 2).table()))
    fl = legendre(sys_)
    assert hjmech.hamiltonian(sys_, fl).h == H.hamiltonian(sys_, fl).h
    assert hamiltonian(sys_, fl).h == H.hamiltonian(sys_, fl).h
