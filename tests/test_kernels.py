"""The array kernels against their object-level wrappers, bit for bit.

Each kernel evaluated once over a stack of seeded random inputs must give,
entry for entry, exactly the float the object-level function gives for
that entry alone: the sampled checks evaluate the stacks, the Morse
families and the tests call the objects, and both must see one formula
with one rounding.  Inputs are strided views, as the checks pass them.
"""

import numpy as np
import pytest

from galimech.affine_phase import (
    NewtonModel,
    PElement,
    WElement,
    affine_lagrangian,
    affine_lagrangian_array,
    dynamics_membership_universal,
    dynamics_membership_universal_array,
    eval_affine,
    eval_affine_array,
    hamiltonian_fun,
    hamiltonian_fun_array,
    p_change_chart,
    p_change_chart_array,
    pairing,
    pairing_array,
    psi_m,
    psi_m_array,
    w_add,
    w_add_array,
    w_change_chart,
    w_change_chart_array,
    w_scale,
    w_scale_array,
)
from galimech.frame_dynamics import (
    harmonic_potential,
    homogeneous_dynamics_violation,
    homogeneous_dynamics_violation_array,
    lagrangian_hom,
    lagrangian_hom_array,
    lagrangian_inhom,
    lagrangian_inhom_array,
    legendre_hom,
    legendre_hom_array,
    legendre_inhom,
    legendre_inhom_array,
    mass_shell_residual,
    mass_shell_residual_array,
)
from galimech.galilean_core import (
    Covector4,
    Event,
    Frame,
    SpatialMetric,
    Vector4,
    sigma,
    sigma_array,
)

N = 200


@pytest.fixture(params=[0, 1, 2])
def case(request):
    """Random metric, mass and potential, and N strided rows of inputs."""
    rng = np.random.default_rng([20260, request.param])
    a = rng.normal(size=(3, 3))
    g = SpatialMetric(a @ a.T + 0.5 * np.eye(3))
    m = float(rng.uniform(0.3, 3.0))
    phi = harmonic_potential(rng.uniform(0.5, 2.0), rng.normal(size=3))
    # one wide array sliced into columns, so every input is a strided view
    cols = rng.normal(size=(N, 30))
    cols[:, 0] = rng.uniform(0.2, 2.0, size=N)  # future time components
    cols[:, 4] = rng.uniform(0.2, 2.0, size=N)
    return {
        "g": g, "m": m, "phi": phi, "model": NewtonModel(m, g, phi),
        "u": cols[:, 8:11], "u2": cols[:, 11:14], "w": cols[:, 14:17],
        "v": cols[:, 0:4], "xdot": cols[:, 4:8], "x": cols[:, 17:21],
        "p": cols[:, 21:25], "r": cols[:, 25], "s": cols[:, 26],
        "w5": cols[:, 25:30],
    }


def frame(row):
    return Frame.from_spatial(row)


def same(stacked, per_entry):
    return np.array_equal(stacked, np.array(per_entry))


def potential_values(case):
    return np.array([case["phi"].at(Event(*x)) for x in case["x"].tolist()])


def test_sigma(case):
    g, u, u2 = case["g"], case["u"], case["u2"]
    assert same(sigma_array(g, u, u2),
                [sigma(g, frame(a), frame(b)).as_array() for a, b in zip(u, u2)])


def test_metric_methods_on_stacks(case):
    g, s, f = case["g"], case["w"], case["u"]
    assert same(g.apply(s), [g.apply(row) for row in s])
    assert same(g.apply_inverse(f), [g.apply_inverse(row) for row in f])
    assert same(g.quadratic(s, f), [g.quadratic(a, b) for a, b in zip(s, f)])


def test_inhomogeneous_kernels(case):
    g, m, phi, u, w = case["g"], case["m"], case["phi"], case["u"], case["w"]
    values = potential_values(case)
    assert same(lagrangian_inhom_array(u, m, g, values, w),
                [lagrangian_inhom(frame(a), m, g, phi, Event(*x), frame(b))
                 for a, x, b in zip(u, case["x"], w)])
    assert same(legendre_inhom_array(u, m, g, w),
                [legendre_inhom(frame(a), m, g, frame(b))
                 for a, b in zip(u, w)])


def test_homogeneous_kernels(case):
    g, m, phi, u, v, p = (case[k] for k in ("g", "m", "phi", "u", "v", "p"))
    values = potential_values(case)
    rows = list(zip(u, case["x"], v, p))
    assert same(lagrangian_hom_array(u, m, g, values, v),
                [lagrangian_hom(frame(a), m, g, phi, Event(*x),
                                Vector4.from_array(b)) for a, x, b, _ in rows])
    assert same(legendre_hom_array(u, m, g, values, v),
                [legendre_hom(frame(a), m, g, phi, Event(*x),
                              Vector4.from_array(b)).as_array()
                 for a, x, b, _ in rows])
    assert same(mass_shell_residual_array(u, m, g, values, p),
                [mass_shell_residual(frame(a), m, g, phi, Event(*x),
                                     Covector4.from_array(c))
                 for a, x, _, c in rows])


def test_dynamics_violation(case):
    g, m, phi, u, p = (case[k] for k in ("g", "m", "phi", "u", "p"))
    xdot = case["xdot"].copy()
    xdot[::7, 0] *= -1.0  # some past-directed velocities: +inf
    pdot = np.roll(case["p"], 1, axis=0)
    values = potential_values(case)
    dphi = np.array([phi.d(Event(*x)).as_array() for x in case["x"].tolist()])
    expected = [homogeneous_dynamics_violation(
        frame(a), m, g, phi, Event(*x), Covector4.from_array(b),
        Vector4.from_array(c), Covector4.from_array(d))
        for a, x, b, c, d in zip(u, case["x"], p, xdot, pdot)]
    got = homogeneous_dynamics_violation_array(u, m, g, values, dphi, p,
                                               xdot, pdot)
    assert same(got, expected)
    assert np.isinf(got[::7]).all()


def test_chart_changes(case):
    model, u, u2, v, r, p = (case[k] for k in
                             ("model", "u", "u2", "v", "r", "p"))
    w = np.concatenate([v, r[:, None]], axis=1)
    assert same(w_change_chart_array(model, w, u, u2)[:, 4],
                [w_change_chart(model, Vector4.from_array(a), b,
                                frame(c), frame(d))[1]
                 for a, b, c, d in zip(v, r, u, u2)])
    assert same(p_change_chart_array(model, p, u, u2),
                [p_change_chart(model, Covector4.from_array(a), frame(b),
                                frame(c)).as_array()
                 for a, b, c in zip(p, u, u2)])


def test_w_operations(case):
    model, w5, s, p, v = (case[k] for k in ("model", "w5", "s", "p", "v"))
    a, b = w5, np.roll(w5, 1, axis=0)
    objs = [(WElement.from_array(x), WElement.from_array(y))
            for x, y in zip(a, b)]
    assert same(w_add_array(a, b),
                [w_add(model, x, y).as_array() for x, y in objs])
    assert same(w_scale_array(s, a),
                [w_scale(model, k, x).as_array()
                 for k, (x, _) in zip(s, objs)])
    assert same(eval_affine_array(a, p),
                [eval_affine(model, x, PElement(Covector4.from_array(c)))
                 for (x, _), c in zip(objs, p)])
    assert same(pairing_array(p, v),
                [pairing(model, PElement(Covector4.from_array(c)),
                         Vector4.from_array(d)).as_array()
                 for c, d in zip(p, v)])


def test_quotient_functions(case):
    model, phi, p, v = (case[k] for k in ("model", "phi", "p", "v"))
    values = potential_values(case)
    events = [Event(*x) for x in case["x"].tolist()]
    classes = [PElement(Covector4.from_array(c)) for c in p]
    vectors = [Vector4.from_array(d) for d in v]
    assert same(psi_m_array(model, p),
                [psi_m(model, x, c) for x, c in zip(events, classes)])
    assert same(affine_lagrangian_array(model, values, v),
                [affine_lagrangian(model, x, d).as_array()
                 for x, d in zip(events, vectors)])
    assert same(hamiltonian_fun_array(model, values, v, p),
                [hamiltonian_fun(model, x, d, c)
                 for x, d, c in zip(events, vectors, classes)])


def test_membership(case):
    model, phi, v = case["model"], case["phi"], case["v"]
    x = Event(0.3, -0.2, 0.5, 1.0)
    dphi = phi.d(x).as_array()
    p_on = legendre_hom_array(model.reference.spatial, model.mass,
                              model.metric, phi.at(x), v)
    pdot = -v[:, :1] * dphi
    p = np.where(np.arange(N)[:, None] % 2 == 0, p_on, case["p"])
    expected = [dynamics_membership_universal(
        model, (x, PElement(Covector4.from_array(a)), Vector4.from_array(b),
                Covector4.from_array(c)), 1e-9) for a, b, c in zip(p, v, pdot)]
    got = dynamics_membership_universal_array(model, phi.at(x), dphi, p, v,
                                              pdot, 1e-9)
    assert same(got, expected)
    assert got[::2].all() and not got[1::2].any()
