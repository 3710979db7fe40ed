"""End-to-end acceptance checks, one test per shipped guarantee.

Every test prints a single PASS/FAIL line with the measured numbers and
the pinned tolerance it is held to, so the terse -v listing and the
captured output both tell the whole story. Heavy artifacts (the n = 128
gradient flow, the reduction workspaces) are module fixtures shared
across criteria.
"""

import json
import os

import numpy as np
import pytest

from loopflow.bundles import (
    build_pullback_bundle,
    chart_decode,
    l2_inner,
    l2_norm,
    project_section,
    section,
)
from loopflow.cli import main, make_initial_map, trajectory_pairs
from loopflow.config import parse_config
from loopflow.flow import FlowConfig, finite_dim_flow, fit_convergence_rate, run_flow
from loopflow.lojasiewicz import (
    estimate_gradient_exponent,
    finite_dim_distance_exponent,
    finite_dim_gradient_exponent,
    integrability_probe,
    make_cloud,
)
from loopflow.mesh import build_circle_mesh, integrate
from loopflow.polynomials import polynomial
from loopflow.reduction import (
    approximation_sweep,
    build_reduction_workspace,
    lipschitz_probe,
    sandwich_sweep,
)
from loopflow.targets import TargetManifold
from loopflow.variational import (
    MapState,
    energy,
    energy_functional_on_bundle,
    first_variation_check,
    general_euler_lagrange,
    tangential_tension,
    tension_field,
    with_quartic_penalty,
)


def _announce(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def great_circle(n, k=1):
    mesh = build_circle_mesh(n)
    th = mesh.node_angles
    values = np.stack([np.cos(k * th), np.sin(k * th), np.zeros_like(th)], axis=1)
    return MapState(mesh, TargetManifold.sphere(3), values)


def equator_bundle(n):
    mesh = build_circle_mesh(n)
    target = TargetManifold.sphere(3)
    th = mesh.node_angles
    base = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    return build_pullback_bundle(mesh, target, base)


def perturbed_state(n, seed, target, amp=0.04):
    rng = np.random.default_rng(seed)
    mesh = build_circle_mesh(n)
    th = mesh.node_angles
    base = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    if target.kind == "ellipsoid":
        base = base * target.semi_axes[None, :]
    pert = np.zeros_like(base)
    for j in range(3):
        for m in (1, 2, 3):
            pert[:, j] += amp * rng.uniform(-1, 1) * np.cos(m * th + rng.uniform(0, 7))
    return MapState(mesh, target, target.project_nearest(base + pert))


@pytest.fixture(scope="module")
def ws128():
    bundle = equator_bundle(128)
    return build_reduction_workspace(bundle, energy_functional_on_bundle(bundle))


@pytest.fixture(scope="module")
def quartic64():
    bundle = equator_bundle(64)
    functional = energy_functional_on_bundle(bundle)
    return build_reduction_workspace(bundle, with_quartic_penalty(functional, 5.0))


@pytest.fixture(scope="module")
def flow_trace():
    # seeded 0.05-amplitude perturbation of the degree-1 great circle at
    # n = 128, integrated to the 1e-8 gradient tolerance
    state = make_initial_map(parse_config("{}"), seed=7)
    config = FlowConfig(
        dt_factor=0.2, t_max=50.0, stop_grad_tol=1e-8, integrator="projected_rk4"
    )
    return run_flow(state, config, distance_stride=None)


def test_criterion_01_energy_matches_discretization_oracle():
    worst = 0.0
    orders = []
    for k in (1, 2, 3):
        continuum_error = {}
        for n in (64, 128, 256):
            state = great_circle(n, k)
            h = state.mesh.spacing
            e = energy(state)
            oracle = 2.0 * np.pi * np.sin(k * h) ** 2 / (h * h)
            worst = max(worst, abs(e - oracle))
            continuum_error[n] = abs(e - 2.0 * np.pi * k * k)
        orders.append(np.log2(continuum_error[64] / continuum_error[128]))
        orders.append(np.log2(continuum_error[128] / continuum_error[256]))
    ok = worst <= 1e-10 and min(orders) >= 1.9
    _announce(
        1,
        ok,
        f"degree-k circle energy off closed form by {worst:.2e} (tol 1e-10), "
        f"continuum order {min(orders):.4f} (need >= 1.9)",
    )
    assert worst <= 1e-10
    assert min(orders) >= 1.9


def test_criterion_02_great_circle_is_discretely_harmonic():
    norms = {}
    for n in (64, 128, 256):
        state = great_circle(n)
        tau = tension_field(state)
        norms[n] = float(np.sqrt(integrate(state.mesh, np.sum(tau * tau, axis=1))))
    drop_a = norms[64] / norms[128]
    drop_b = norms[128] / norms[256]
    ok = drop_a >= 3.8 and drop_b >= 3.8 and norms[256] < 1e-3
    _announce(
        2,
        ok,
        f"tension L2 halving drops {drop_a:.3f}, {drop_b:.3f} (need >= 3.8), "
        f"norm at n=256 {norms[256]:.3e} (tol 1e-3)",
    )
    assert drop_a >= 3.8
    assert drop_b >= 3.8
    assert norms[256] < 1e-3


def test_criterion_03_first_variation_duality():
    targets = [TargetManifold.sphere(3), TargetManifold.ellipsoid((1.0, 1.0, 1.4))]
    worst = 0.0
    count = 0
    for which, target in enumerate(targets):
        for k in range(10):
            state = perturbed_state(128, 100 + 10 * which + k, target)
            rng = np.random.default_rng(500 + 10 * which + k)
            th = state.mesh.node_angles
            xi = np.zeros_like(state.values)
            for j in range(3):
                for m in range(5):
                    xi[:, j] += rng.uniform(-1, 1) * np.cos(m * th)
                    xi[:, j] += rng.uniform(-1, 1) * np.sin(m * th)
            _, _, mismatch = first_variation_check(state, xi)
            worst = max(worst, mismatch)
            count += 1
    ok = count == 20 and worst < 1e-5
    _announce(
        3,
        ok,
        f"worst relative duality mismatch {worst:.3e} over {count} (map, xi) pairs "
        f"(tol 1e-5)",
    )
    assert count == 20
    assert worst < 1e-5


def test_criterion_04_general_assembly_matches_tension():
    bundle = equator_bundle(128)
    functional = energy_functional_on_bundle(bundle)
    # at the critical section the two assemblies coincide
    zero = np.zeros_like(bundle.base_map)
    mf0 = general_euler_lagrange(bundle, functional, section(bundle, zero))
    base_state = MapState(bundle.mesh, bundle.target, bundle.base_map)
    resid = l2_norm(
        section(bundle, mf0.values + 2.0 * tangential_tension(base_state))
    )
    # off the critical section the norms track within the (1 +- 10 delta) band
    delta = 0.05
    rng = np.random.default_rng(50)
    th = bundle.mesh.node_angles
    ratios = []
    for _ in range(20):
        raw = np.zeros((128, 3))
        for j in range(3):
            for m in (1, 2, 3):
                raw[:, j] += rng.uniform(-1, 1) * np.cos(m * th + rng.uniform(0, 7))
        sec = project_section(bundle, raw)
        sec = project_section(bundle, delta * sec.values / np.max(np.abs(sec.values)))
        mf = l2_norm(general_euler_lagrange(bundle, functional, sec))
        state = MapState(bundle.mesh, bundle.target, chart_decode(bundle, sec))
        mt = tangential_tension(state)
        me = float(np.sqrt(integrate(bundle.mesh, np.sum(mt * mt, axis=1))))
        ratios.append(mf / (2.0 * me))
    lo, hi = min(ratios), max(ratios)
    ok = resid < 1e-9 and lo > 1.0 - 10 * delta and hi < 1.0 + 10 * delta
    _announce(
        4,
        ok,
        f"critical-section residual {resid:.2e} (tol 1e-9), norm ratio range "
        f"[{lo:.4f}, {hi:.4f}] over 20 sections (band [0.5, 1.5])",
    )
    assert resid < 1e-9
    assert lo > 1.0 - 10 * delta
    assert hi < 1.0 + 10 * delta


def test_criterion_05_kernel_matches_jacobi_oracle(ws128):
    ws = ws128
    bundle = ws.bundle
    th = bundle.mesh.node_angles
    zeros = np.zeros_like(th)
    jacobi = [
        np.stack([-np.sin(th), np.cos(th), zeros], axis=1) / np.sqrt(2.0 * np.pi),
        np.stack([zeros, zeros, np.sin(th)], axis=1) / np.sqrt(np.pi),
        np.stack([zeros, zeros, np.cos(th)], axis=1) / np.sqrt(np.pi),
    ]
    gram = np.array(
        [
            [l2_inner(basis_vec, section(bundle, j)) for j in jacobi]
            for basis_vec in ws.kernel_basis
        ]
    )
    singular = np.linalg.svd(gram, compute_uv=False)
    span_defect = float(np.max(np.abs(singular - 1.0)))
    ok = ws.kernel_dim == 3 and ws.gap_ratio >= 10.0 and span_defect < 1e-6
    _announce(
        5,
        ok,
        f"kernel dimension {ws.kernel_dim} (need 3), spectral gap {ws.gap_ratio:.2e}x "
        f"(need >= 10x), Jacobi-span singular value defect {span_defect:.2e} (tol 1e-6)",
    )
    assert ws.kernel_dim == 3
    assert ws.gap_ratio >= 10.0
    assert span_defect < 1e-6


def test_criterion_06_reduction_estimates(ws128, quartic64):
    approximation = approximation_sweep(ws128, seed=0)
    sandwich = sandwich_sweep(
        quartic64, radii=(0.005, 0.01, 0.02), samples_per_radius=20, seed=3
    )
    lipschitz = lipschitz_probe(ws128, n_pairs=50, seed=0)
    determinate = sandwich["n_pass"] + sandwich["n_fail"]
    ok = (
        approximation["slope"] >= 1.9
        and determinate > 0
        and sandwich["determinate_pass_rate"] >= 0.9
        and lipschitz["ratio_spread"] < 10.0
    )
    _announce(
        6,
        ok,
        f"approximation slope {approximation['slope']:.4f} (need >= 1.9), sandwich "
        f"pass rate {sandwich['determinate_pass_rate']:.3f} over {determinate} "
        f"determinate samples (need >= 0.9), Lipschitz spread "
        f"{lipschitz['ratio_spread']:.3f} over 50 pairs (need < 10)",
    )
    assert approximation["slope"] >= 1.9
    assert determinate > 0
    assert sandwich["determinate_pass_rate"] >= 0.9
    assert lipschitz["ratio_spread"] < 10.0


def test_criterion_07_integrability_and_flow_exponent(ws128, flow_trace):
    probe = integrability_probe(
        sandwich_sweep(ws128, (0.005, 0.01, 0.02), samples_per_radius=20)
    )
    gaps, grads = trajectory_pairs(flow_trace)
    fit = estimate_gradient_exponent(make_cloud(gaps, grads, "flow trajectory"))
    ok = probe["integrable"] and 0.45 <= fit.theta <= 0.60
    _announce(
        7,
        ok,
        f"integrability verdict {probe['integrable']} at radii <= 0.02, trajectory "
        f"exponent {fit.theta:.4f} over {fit.sample_count} pairs (need [0.45, 0.60])",
    )
    assert probe["integrable"]
    assert 0.45 <= fit.theta <= 0.60


def test_criterion_08_flow_convergence_rates(flow_trace):
    terminal = float(flow_trace.grad_norms[-1])
    stopped = flow_trace.config_echo["stopped_on_tolerance"]
    fit = fit_convergence_rate(flow_trace)
    r2 = fit["exponential"]["r_squared"]
    quartic = finite_dim_flow(polynomial({(4,): 1.0}), [1.0], dt=0.01, t_max=100.0)
    x = quartic.energies**0.25
    window = quartic.times >= 10.0
    product = x[window] * np.sqrt(1.0 + 8.0 * quartic.times[window])
    closed_form_defect = float(np.max(np.abs(product - 1.0)))
    ok = stopped and terminal < 1e-8 and r2 >= 0.99 and closed_form_defect <= 0.01
    _announce(
        8,
        ok,
        f"terminal gradient {terminal:.3e} at t = {flow_trace.times[-1]:.2f} "
        f"(tol 1e-8 before t = 50), exponential tail R^2 {r2:.9f} (need >= 0.99), "
        f"x^4 closed-form defect {closed_form_defect:.5f} on t in [10, 100] (tol 0.01)",
    )
    assert stopped
    assert terminal < 1e-8
    assert float(flow_trace.times[-1]) < 50.0
    assert r2 >= 0.99
    assert closed_form_defect <= 0.01


def test_criterion_09_classical_inequalities():
    radii = [0.001, 0.00316, 0.01, 0.0316, 0.1]
    theta_2 = finite_dim_gradient_exponent(polynomial({(2,): 1.0}), [0.0], radii).theta
    theta_4 = finite_dim_gradient_exponent(polynomial({(4,): 1.0}), [0.0], radii).theta
    alpha_2, _ = finite_dim_distance_exponent(polynomial({(2,): 1.0}), [(-1.0, 1.0)], 21)
    alpha_22, _ = finite_dim_distance_exponent(
        polynomial({(2, 2): 1.0}), [(-1.0, 1.0), (-1.0, 1.0)], 21
    )
    errors = (
        abs(theta_2 - 0.5),
        abs(theta_4 - 0.75),
        abs(alpha_2 - 2.0),
        abs(alpha_22 - 4.0),
    )
    ok = max(errors) <= 0.05
    _announce(
        9,
        ok,
        f"theta(x^2) = {theta_2:.4f}, theta(x^4) = {theta_4:.4f}, alpha(x^2) = "
        f"{alpha_2:.4f}, alpha(x^2 y^2) = {alpha_22:.4f}; worst error "
        f"{max(errors):.4f} (tol 0.05)",
    )
    assert max(errors) <= 0.05


def test_criterion_10_runs_are_bit_reproducible(tmp_path):
    flow_payload = {
        "domain": {"n_nodes": 48},
        "perturbation": {"seed": 7, "amplitude": 0.05},
        "flow": {"t_max": 8.0},
    }
    reduce_payload = {
        "domain": {"n_nodes": 48},
        "lojasiewicz": {"radii": [0.01, 0.02], "samples_per_radius": 4},
    }
    jobs = (
        ("flow-run", flow_payload, ("config_echo.json", "trace.csv", "rate_fit.json")),
        ("reduce-run", reduce_payload, ("config_echo.json", "reduction_report.json")),
    )
    mismatched = []
    for command, payload, names in jobs:
        config_path = tmp_path / f"{command}.json"
        config_path.write_text(json.dumps(payload))
        out = str(tmp_path / command)
        assert main([command, "--config", str(config_path), "--out", out]) == 0
        first = {}
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                first[name] = fh.read()
        assert main([command, "--config", str(config_path), "--out", out]) == 0
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                if fh.read() != first[name]:
                    mismatched.append(f"{command}/{name}")
    ok = not mismatched
    _announce(
        10,
        ok,
        "rerun artifacts byte-identical for flow-run and reduce-run"
        if ok
        else f"artifacts differ between identical runs: {mismatched}",
    )
    assert not mismatched
