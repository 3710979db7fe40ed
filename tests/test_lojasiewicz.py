import tracemalloc

import numpy as np
import pytest

from loopflow import lojasiewicz
from loopflow.bundles import build_pullback_bundle
from loopflow.lojasiewicz import (
    ExponentFit,
    _ols,
    estimate_gradient_exponent,
    finite_dim_distance_exponent,
    finite_dim_gradient_exponent,
    integrability_probe,
    make_cloud,
    verify_inequality,
)
from loopflow.mesh import build_circle_mesh
from loopflow.polynomials import polynomial
from loopflow.reduction import build_reduction_workspace, sandwich_sweep
from loopflow.targets import TargetManifold
from loopflow.variational import energy_functional_on_bundle, with_quartic_penalty


def equator_bundle(n):
    mesh = build_circle_mesh(n)
    t = TargetManifold.sphere(3)
    th = mesh.node_angles
    base = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    return build_pullback_bundle(mesh, t, base)


@pytest.fixture(scope="module")
def energy_ws():
    b = equator_bundle(64)
    return build_reduction_workspace(b, energy_functional_on_bundle(b))


@pytest.fixture(scope="module")
def quartic_ws():
    b = equator_bundle(64)
    func = energy_functional_on_bundle(b)
    return build_reduction_workspace(b, with_quartic_penalty(func, 5.0))


def quartic_line_cloud(n=40):
    # |f| = x^4 and |f'| = 4 x^3 along a line through the origin, ordered
    # from large gaps to small so the split validation calibrates on the
    # easy half and tests the approach to the critical point. The range
    # keeps x^4 above the noise floor.
    x = np.logspace(-1, -3, n)
    return make_cloud(x**4, 4.0 * x**3, "synthetic-x4-line")


# -- cloud construction and the OLS fit -------------------------------------


def test_make_cloud_layout():
    cloud = make_cloud([1.0, 0.5], [0.1, 0.2], "probe")
    assert cloud.pairs.shape == (2, 2)
    assert cloud.provenance == "probe"
    with pytest.raises(ValueError):
        cloud.pairs[0, 0] = 7.0


def test_make_cloud_rejects_bad_input():
    with pytest.raises(ValueError):
        make_cloud([1.0, 2.0], [1.0], "probe")
    with pytest.raises(ValueError):
        make_cloud([[1.0]], [[1.0]], "probe")
    with pytest.raises(ValueError):
        make_cloud([1.0, -2.0], [1.0, 1.0], "probe")
    with pytest.raises(ValueError):
        make_cloud([1.0, 2.0], [1.0, -1.0], "probe")


def test_exponent_fit_validation():
    with pytest.raises(ValueError):
        ExponentFit(theta=1.5, constant=1.0, r_squared=1.0, sample_count=10, noise_floor_hits=0)
    with pytest.raises(ValueError):
        ExponentFit(theta=-0.2, constant=1.0, r_squared=1.0, sample_count=10, noise_floor_hits=0)
    with pytest.raises(ValueError):
        ExponentFit(theta=0.5, constant=0.0, r_squared=1.0, sample_count=10, noise_floor_hits=0)


def test_estimate_on_exact_power_law():
    fit = estimate_gradient_exponent(quartic_line_cloud())
    assert abs(fit.theta - 0.75) < 1e-12
    assert abs(fit.constant - 0.25) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.sample_count == 40
    assert fit.noise_floor_hits == 0


def test_estimate_slope_unmoved_by_gradient_rescale():
    x = np.logspace(-1, -4, 30)
    a = estimate_gradient_exponent(make_cloud(x**2, 2.0 * x, "a"))
    b = estimate_gradient_exponent(make_cloud(x**2, 20.0 * x, "b"))
    assert abs(a.theta - b.theta) < 1e-12
    assert abs(a.constant - 10.0 * b.constant) < 1e-12


def test_estimate_counts_noise_floor_hits():
    x = np.logspace(-1, -4, 30)
    v = np.concatenate([x**2, [0.0]])
    g = np.concatenate([2.0 * x, [0.0]])
    fit = estimate_gradient_exponent(make_cloud(v, g, "with-floor"))
    assert fit.noise_floor_hits == 1
    assert fit.sample_count == 30


def test_estimate_needs_enough_samples_and_span():
    x = np.logspace(-1, -4, 5)
    with pytest.raises(ValueError, match="at least 10"):
        estimate_gradient_exponent(make_cloud(x**2, 2.0 * x, "short"))
    x = np.linspace(0.5, 0.6, 12)
    with pytest.raises(ValueError, match="decades"):
        estimate_gradient_exponent(make_cloud(x**2, 2.0 * x, "narrow"))


# -- split-sample inequality verification -----------------------------------


def test_verify_accepts_true_exponent():
    report = verify_inequality(quartic_line_cloud(), 0.75)
    assert report["holdout_pass_fraction"] == 1.0
    assert not report["diverging_constant"]
    assert abs(report["trend_slope"]) < 1e-10
    assert report["usable_samples"] == 40


def test_verify_flags_understated_exponent():
    # Claiming theta = 1/2 for the x^4 well forces C ~ gap^(-1/4), which
    # blows up along the approach to the critical point.
    report = verify_inequality(quartic_line_cloud(), 0.5)
    assert report["diverging_constant"]
    assert report["trend_slope"] < -0.2
    assert report["holdout_pass_fraction"] < 1.0


def test_verify_rejects_empty_and_single_clouds():
    with pytest.raises(ValueError, match="no usable samples"):
        verify_inequality(make_cloud([0.0], [0.0], "empty"), 0.5)
    with pytest.raises(ValueError, match="split"):
        verify_inequality(make_cloud([1e-3], [1e-2], "single"), 0.5)


# -- finite-dimensional polynomial brute force ------------------------------


def test_gradient_exponent_isotropic_quadratic():
    f = polynomial({(2, 0): 1.0, (0, 2): 1.0})
    fit = finite_dim_gradient_exponent(f, [0.0, 0.0], np.logspace(-2.2, -1, 8))
    assert abs(fit.theta - 0.5) < 0.05
    assert fit.constant < 1.0
    assert fit.noise_floor_hits == 0


def test_gradient_exponent_anisotropic_well():
    # x^2 + y^4: a pooled fit would sit near 1/2, but the inequality
    # binds along the y-axis where the ratio of exponents is 3/4.
    f = polynomial({(2, 0): 1.0, (0, 4): 1.0})
    fit = finite_dim_gradient_exponent(f, [0.0, 0.0], np.logspace(-2.2, -1, 8))
    assert abs(fit.theta - 0.75) < 0.05


def test_gradient_exponent_flat_sextic():
    f = polynomial({(6,): 1.0})
    fit = finite_dim_gradient_exponent(f, [0.0], np.logspace(-2.2, -1, 8))
    assert abs(fit.theta - 5.0 / 6.0) < 0.05


def test_gradient_exponent_rejects_noncritical_point():
    f = polynomial({(2,): 1.0})
    with pytest.raises(ValueError, match="critical_point"):
        finite_dim_gradient_exponent(f, [0.5], np.logspace(-2.2, -1, 8))


def test_gradient_exponent_names_the_smallest_radius_that_overflows():
    # x^2 overflows beyond ~1.3e154; the radii need not be sorted, and no
    # overflow warning escapes (the suite turns warnings into errors)
    f = polynomial({(2,): 1.0})
    with pytest.raises(ValueError, match=r"^f or its gradient is not finite at radius 1e\+200$"):
        finite_dim_gradient_exponent(f, [0.0], [1e-2, 1e300, 1e100, 1e200])


def test_distance_exponent_quadratic_line():
    f = polynomial({(2,): 1.0})
    alpha, constant = finite_dim_distance_exponent(f, [(-1.0, 1.0)], 81)
    assert abs(alpha - 2.0) < 0.05
    assert constant < 2.0


def test_distance_exponent_quartic_line():
    # The default zero tolerance admits near-zero grid points that one
    # Gauss-Newton polish cannot push onto the flat quartic zero, and the
    # resulting offset zeros bias the envelope slope; a tight tolerance
    # keeps only the exact root.
    f = polynomial({(4,): 1.0})
    alpha, _ = finite_dim_distance_exponent(f, [(-1.0, 1.0)], 81, zero_tol=1e-12)
    assert abs(alpha - 4.0) < 0.05


def test_distance_exponent_plane_bowl():
    f = polynomial({(2, 0): 1.0, (0, 2): 1.0})
    alpha, _ = finite_dim_distance_exponent(f, [(-1.0, 1.0), (-1.0, 1.0)], 41)
    assert abs(alpha - 2.0) < 0.05


def test_distance_exponent_input_checks():
    f = polynomial({(2,): 1.0})
    with pytest.raises(ValueError, match="arity"):
        finite_dim_distance_exponent(f, [(-1.0, 1.0), (-1.0, 1.0)], 21)
    g = polynomial({(2,): 1.0, (0,): 1.0})
    with pytest.raises(ValueError, match="no zeros"):
        finite_dim_distance_exponent(g, [(-1.0, 1.0)], 21)


def test_distance_exponent_raises_when_the_envelope_is_one_point():
    # At grid_n 2 the coarse grid is the four corners of the box, all at
    # one distance from the circle of radius 1/2, so the envelope holds one
    # point; the line through it used to be lstsq's minimum-norm slope,
    # 0.0617, where the true exponent is 1.
    f = polynomial({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -0.25})
    with pytest.raises(ValueError, match="undetermined"):
        finite_dim_distance_exponent(f, [(-1.0, 1.0), (-1.0, 1.0)], 2)


def test_distance_exponent_names_an_empty_polished_zero_set():
    # |f| >= 1e-11 everywhere, so no fine grid point is within zero_tol
    f = polynomial({(2,): 1.0, (0,): 1e-11})
    with pytest.raises(ValueError, match=r"^no grid point polishes onto a zero of f within zero_tol 1e-12$"):
        finite_dim_distance_exponent(f, [(-1.0, 1.0)], 21, zero_tol=1e-12)


def full_broadcast_distance_exponent(f, box, grid_n, zero_tol=1e-8):
    """The distance check as it was before the grids streamed: both grids
    whole, and one (coarse, zeros, d) difference array."""

    def grid_points(per_axis):
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    box = [(float(lo), float(hi)) for lo, hi in box]
    fine = grid_points(4 * grid_n + 1)
    fine_vals = np.abs(f.value(fine))
    candidates = fine[fine_vals < zero_tol]
    zeros = np.array([lojasiewicz._polish_zero(f, c) for c in candidates])
    zeros = zeros[np.abs(f.value(zeros)) <= zero_tol]
    coarse = grid_points(grid_n)
    vals = np.abs(f.value(coarse))
    diffs = coarse[:, None, :] - zeros[None, :, :]
    dists = np.min(np.linalg.norm(diffs, axis=-1), axis=1)
    mask = (dists > lojasiewicz._FLOOR) & (vals > lojasiewicz._FLOOR)
    dists, vals = dists[mask], vals[mask]
    env_d, env_f = lojasiewicz._lower_envelope(dists, vals)
    alpha, _, _, _ = _ols(np.log(env_d), np.log(env_f))
    return alpha, float(np.max(dists**alpha / vals))


@pytest.mark.parametrize(
    "terms, grid_n",
    [({(2,): 1.0}, 81), ({(2, 2): 1.0}, 21), ({(2, 2): 1.0}, 40), ({(2, 2, 2): 1.0}, 7)],
    ids=["x2_81", "x2y2_21", "x2y2_40", "x2y2z2_7"],
)
# 1 streams one row per block; 54 leaves an uneven last block in every
# fine scan here and in x^2's coarse scan (81 rows in blocks of 54)
@pytest.mark.parametrize("block_floats", [lojasiewicz._BLOCK_FLOATS, 1, 54])
def test_streamed_distance_exponent_equals_the_full_broadcast(terms, grid_n, block_floats, monkeypatch):
    f = polynomial(terms)
    box = [(-1.0, 1.0)] * f.n_vars
    expected = full_broadcast_distance_exponent(f, box, grid_n)
    monkeypatch.setattr(lojasiewicz, "_BLOCK_FLOATS", block_floats)
    assert finite_dim_distance_exponent(f, box, grid_n) == expected


def loop_lower_envelope(v, g):
    """The per-bin loop _lower_envelope replaced: every nonempty bin's
    first minimum of g, bins in increasing order."""
    lv = np.log10(v)
    lo, hi = float(np.min(lv)), float(np.max(lv))
    n_bins = max(1, int(np.ceil((hi - lo) * 6)))
    idx = np.clip(np.digitize(lv, np.linspace(lo, hi, n_bins + 1)) - 1, 0, n_bins - 1)
    keep = [int(np.argmin(np.where(idx == b, g, np.inf))) for b in range(n_bins) if np.any(idx == b)]
    return v[keep], g[keep]


def test_lower_envelope_equals_the_per_bin_loop():
    rng = np.random.default_rng(71)
    cases = [
        (np.array([0.3]), np.array([2.0])),  # a single sample
        (np.array([1.0, 1.2, 1.1, 1.3]), np.array([5.0, 4.0, 4.0, 6.0])),  # one bin, tied minima
    ]
    for _ in range(300):
        size = int(rng.integers(2, 60))
        v = 10.0 ** rng.uniform(-4.0, 0.0, size)
        # g drawn from a few values, so most bins hold tied minima; v stays
        # distinct, so equal v arrays mean the same samples were kept
        g = rng.integers(1, 4, size).astype(float)
        cases.append((v, g))
    for v, g in cases:
        env = lojasiewicz._lower_envelope(v, g)
        expected = loop_lower_envelope(v, g)
        assert np.array_equal(env[0], expected[0]) and np.array_equal(env[1], expected[1])
    assert [a.tolist() for a in lojasiewicz._lower_envelope(*cases[1])] == [[1.2], [4.0]]


@pytest.mark.parametrize("n_dims, per_axis, fan_out", [(1, 29, 1), (2, 7, 1), (2, 7, 3), (3, 5, 2)])
def test_grid_blocks_stream_the_row_major_grid(n_dims, per_axis, fan_out, monkeypatch):
    monkeypatch.setattr(lojasiewicz, "_BLOCK_FLOATS", 12)
    box = [(-1.0, 0.5 * (k + 1)) for k in range(n_dims)]
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    whole = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    blocks = list(lojasiewicz._grid_blocks(box, per_axis, fan_out))
    rows = max(1, 12 // (n_dims * fan_out))
    assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert 0 < len(blocks[-1]) < rows  # every case here ends on an uneven block
    assert np.array_equal(np.concatenate(blocks), whole)


def test_distance_check_memory_is_bounded():
    # the full (coarse, zeros, d) broadcast needed about 200 MiB here
    f = polynomial({(2, 2): 1.0})
    tracemalloc.start()
    try:
        finite_dim_distance_exponent(f, [(-1.0, 1.0), (-1.0, 1.0)], 81)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_ols_fits_a_line_and_raises_when_it_is_undetermined():
    x = np.arange(6.0)
    assert _ols(x, 3.0 * x - 2.0) == (3.0, -2.0, 1.0, 0.0)
    # x spread 1e-12 lies above rounding, so the line is determined
    x = np.array([1.0, 1.0 + 1e-12, 1.0])
    slope, intercept, _, _ = _ols(x, 3.0 * x - 2.0)
    assert slope == pytest.approx(3.0, rel=1e-3) and intercept == pytest.approx(-2.0, rel=1e-3)
    # one point, constant x, and x constant to rounding
    for x, y in [([1.0], [2.0]), ([2.0] * 4, [0.0, 1.0, 2.0, 3.0]), ([1.0, 1.0 + 2.3e-16, 1.0], [0.0, 1.0, 2.0])]:
        with pytest.raises(ValueError, match="undetermined"):
            _ols(np.array(x), np.array(y))


def lstsq_line(x, y, groups=None):
    """The line fit as a least-squares solve on the design matrix
    [x, one indicator column per group]: (slope, intercept, r^2, sse)."""
    if groups is None:
        indicators = np.ones((len(x), 1))
    else:
        index = np.unique(groups, return_inverse=True)[1]
        indicators = index[:, None] == np.arange(index.max() + 1)
    A = np.column_stack([x, indicators])
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    assert rank == A.shape[1]
    fit = A @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(coef[0]), float(coef[1]), max(0.0, 1.0 - ss_res / ss_tot), ss_res


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("grouped", [False, True])
def test_ols_matches_the_lstsq_oracle(seed, grouped):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 40))
    x = rng.uniform(-3.0, 5.0, m) + rng.uniform(-100.0, 100.0)
    y = 1.7 * x + 0.3 * rng.standard_normal(m)
    groups = None
    if grouped:
        # unsorted labels; -1 and 90 are single-point groups, which fix only
        # their own intercept, and -1's is the one returned
        offsets = {7: 0.0, 3: -4.0, 11: 9.0, -1: 2.0, 90: -1.0}
        groups = rng.choice([7, 3, 11], m)
        groups[:2] = [90, -1]
        y += np.array([offsets[g] for g in groups])
    assert _ols(x, y, groups) == pytest.approx(lstsq_line(x, y, groups), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["x", "y"])
def test_ols_raises_on_non_finite_samples(bad, where):
    x, y = np.arange(5.0), np.arange(5.0) ** 2
    (x if where == "x" else y)[2] = bad
    with pytest.raises(ValueError, match="finite samples"):
        _ols(x, y)


# -- reduced-function integrability probe -----------------------------------


def test_probe_calls_energy_reduced_function_flat(energy_ws):
    report = integrability_probe(
        sandwich_sweep(energy_ws, (0.005, 0.01, 0.02), samples_per_radius=8, seed=1)
    )
    assert report["integrable"]
    for rec in report["per_radius"]:
        assert rec["max_abs_f"] <= rec["bound"]
        assert rec["newton_failures"] == 0
        assert abs(rec["bound"] - 1e-4 * rec["radius"] ** 2) < 1e-18


def test_probe_rejects_quartic_well(quartic_ws):
    report = integrability_probe(
        sandwich_sweep(quartic_ws, (0.01, 0.02, 0.04), samples_per_radius=8, seed=1)
    )
    assert not report["integrable"]
    worst = report["per_radius"][-1]
    assert worst["max_abs_f"] > worst["bound"]
