"""The array kernels over stacks against single entries, bit for bit.

Each kernel evaluated once over a stack of seeded random inputs must give,
entry for entry, exactly the float that it gives for that entry alone, so
that the sampled checks (which evaluate stacks) and the Morse families and
library callers (which may pass one entry) see one formula with one
rounding, and a sampled check does not depend on how many samples share
its stack.  Inputs are strided views, as the checks pass them.
"""

import numpy as np
import pytest

from galimech.affine_phase import (
    REFERENCE_FRAME,
    affine_lagrangian_array,
    dynamics_membership_universal_array,
    eval_affine_array,
    hamiltonian_fun_array,
    p_change_chart,
    pairing_array,
    psi_m_array,
    w_add_array,
    w_change_chart,
    w_scale_array,
)
from galimech.frame_dynamics import (
    homogeneous_dynamics_violation_array,
    lagrangian_hom,
    lagrangian_inhom,
    legendre_hom,
    legendre_inhom,
    mass_shell_residual,
)
from galimech.galilean_core import SpatialMetric, sigma

from conftest import at, harmonic_potential

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
        "g": g, "m": m, "phi": phi,
        "u": cols[:, 8:11], "u2": cols[:, 11:14], "w": cols[:, 14:17],
        "v": cols[:, 0:4], "xdot": cols[:, 4:8], "x": cols[:, 17:21],
        "p": cols[:, 21:25], "r": cols[:, 25], "s": cols[:, 26],
        "w5": cols[:, 25:30],
    }


def same(stacked, per_entry):
    return np.array_equal(stacked, np.array(per_entry))


def potential_values(case):
    return np.array([at(case["phi"], x) for x in case["x"]])


def test_sigma(case):
    g, u, u2 = case["g"], case["u"], case["u2"]
    assert same(sigma(g, u, u2), [sigma(g, a, b) for a, b in zip(u, u2)])


def test_metric_methods_on_stacks(case):
    g, s, f = case["g"], case["w"], case["u"]
    assert same(g.apply(s), [g.apply(row) for row in s])
    assert same(g.apply_inverse(f), [g.apply_inverse(row) for row in f])
    assert same(g.quadratic(s), [g.quadratic(row) for row in s])


def test_inhomogeneous_kernels(case):
    g, m, u, w = case["g"], case["m"], case["u"], case["w"]
    values = potential_values(case)
    assert same(lagrangian_inhom(u, m, g, values, w),
                [lagrangian_inhom(a, m, g, y, b)
                 for a, y, b in zip(u, values, w)])
    assert same(legendre_inhom(u, m, g, w),
                [legendre_inhom(a, m, g, b) for a, b in zip(u, w)])


def test_homogeneous_kernels(case):
    g, m, u, v, p = (case[k] for k in ("g", "m", "u", "v", "p"))
    values = potential_values(case)
    rows = list(zip(u, values, v, p))
    assert same(lagrangian_hom(u, m, g, values, v),
                [lagrangian_hom(a, m, g, y, b) for a, y, b, _ in rows])
    assert same(legendre_hom(u, m, g, values, v),
                [legendre_hom(a, m, g, y, b) for a, y, b, _ in rows])
    assert same(mass_shell_residual(u, m, g, values, p),
                [mass_shell_residual(a, m, g, y, c) for a, y, _, c in rows])


def test_dynamics_violation(case):
    g, m, phi, u, p = (case[k] for k in ("g", "m", "phi", "u", "p"))
    xdot = case["xdot"].copy()
    xdot[::7, 0] *= -1.0  # some past-directed velocities: +inf
    pdot = np.roll(case["p"], 1, axis=0)
    values = potential_values(case)
    dphi = np.array([phi.d(x) for x in case["x"]])
    expected = [homogeneous_dynamics_violation_array(a, m, g, y, dy, b, c, d)
                for a, y, dy, b, c, d in zip(u, values, dphi, p, xdot, pdot)]
    got = homogeneous_dynamics_violation_array(u, m, g, values, dphi, p,
                                               xdot, pdot)
    assert same(got, expected)
    assert np.isinf(got[::7]).all()


def test_chart_changes(case):
    m, g, u, u2, v, r, p = (case[k] for k in
                            ("m", "g", "u", "u2", "v", "r", "p"))
    w = np.concatenate([v, r[:, None]], axis=1)
    assert same(w_change_chart(m, g, w, u, u2),
                [w_change_chart(m, g, a, b, c) for a, b, c in zip(w, u, u2)])
    assert same(p_change_chart(m, g, p, u, u2),
                [p_change_chart(m, g, a, b, c) for a, b, c in zip(p, u, u2)])


def test_w_operations(case):
    w5, s, p, v = (case[k] for k in ("w5", "s", "p", "v"))
    a, b = w5, np.roll(w5, 1, axis=0)
    assert same(w_add_array(a, b), [w_add_array(x, y) for x, y in zip(a, b)])
    assert same(w_scale_array(s, a),
                [w_scale_array(k, x) for k, x in zip(s, a)])
    assert same(eval_affine_array(a, p),
                [eval_affine_array(x, c) for x, c in zip(a, p)])
    assert same(pairing_array(p, v),
                [pairing_array(c, d) for c, d in zip(p, v)])


def test_quotient_functions(case):
    m, g, p, v = (case[k] for k in ("m", "g", "p", "v"))
    values = potential_values(case)
    assert same(psi_m_array(m, g, p), [psi_m_array(m, g, c) for c in p])
    assert same(affine_lagrangian_array(m, g, values, v),
                [affine_lagrangian_array(m, g, y, d)
                 for y, d in zip(values, v)])
    assert same(hamiltonian_fun_array(m, g, values, v, p),
                [hamiltonian_fun_array(m, g, y, d, c)
                 for y, d, c in zip(values, v, p)])


def test_membership(case):
    m, g, phi, v = (case[k] for k in ("m", "g", "phi", "v"))
    x = np.array([0.3, -0.2, 0.5, 1.0])
    dphi = phi.d(x)
    p_on = legendre_hom(REFERENCE_FRAME, m, g, at(phi, x), v)
    pdot = -v[:, :1] * dphi
    p = np.where(np.arange(N)[:, None] % 2 == 0, p_on, case["p"])
    expected = [dynamics_membership_universal_array(
        m, g, at(phi, x), dphi, a, b, c, 1e-9) for a, b, c in zip(p, v, pdot)]
    got = dynamics_membership_universal_array(m, g, at(phi, x), dphi, p, v,
                                              pdot, 1e-9)
    assert same(got, expected)
    assert got[::2].all() and not got[1::2].any()
