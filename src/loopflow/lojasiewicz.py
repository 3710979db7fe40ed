"""Lojasiewicz exponent estimation from sampled data, and brute-force
verification of the classical gradient and distance inequalities for
polynomials.

Every exponent, rate and approximation order of the package is the
slope of a line fit, and _ols is the package's one least-squares
helper: the flow's rate fit and the reduction's approximation sweep
call it too. Section-level clouds pair |F(u) - F(critical)| with a
gradient norm and are fitted by ordinary least squares in log-log
space. Finite dimensional polynomial fits instead use the lower
envelope of the scatter: the inequality |f|^theta <= C |grad f| binds
along the worst direction (think x^2 + y^4 near 0, where the y-axis
forces theta = 3/4), and a plain regression over all directions would
average it away.
The integrability verdict solves nothing: it reads |f(xi)| from a
reduction.sandwich_sweep, so it shares its kernel samples with the
sandwich ratios.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExponentFit",
    "SampleCloud",
    "make_cloud",
    "estimate_gradient_exponent",
    "verify_inequality",
    "finite_dim_gradient_exponent",
    "finite_dim_distance_exponent",
    "integrability_probe",
]

_FLOOR = 1e-13


def _ols(x, y, groups=None):
    """Least-squares line y = slope x + intercept: (slope, intercept, r^2, sse).

    With groups, every group shares the slope and has its own intercept
    (one indicator column per group), and intercept is the first
    group's. A line the points do not determine (one point, constant x,
    or no group spanning two distinct x) raises.
    """
    if groups is None:
        indicators = np.ones((len(x), 1))
    else:
        index = np.unique(groups, return_inverse=True)[1]
        indicators = index[:, None] == np.arange(index.max() + 1)
    A = np.column_stack([x, indicators])
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        raise ValueError("line fit is undetermined: no group of samples has two distinct x")
    fit = A @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(coef[0]), float(coef[1]), r2, ss_res


@dataclass(frozen=True)
class ExponentFit:
    theta: float
    constant: float
    r_squared: float
    sample_count: int
    noise_floor_hits: int

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"fitted exponent {self.theta:.4f} outside (0, 1]")
        if self.constant <= 0.0:
            raise ValueError("fitted constant must be positive")
        if not 0.0 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("regression quality outside [0, 1]")


@dataclass(frozen=True)
class SampleCloud:
    pairs: np.ndarray  # (m, 2): value gap, gradient norm
    provenance: str


def make_cloud(value_gaps, gradient_norms, provenance):
    v = np.asarray(value_gaps, dtype=float)
    g = np.asarray(gradient_norms, dtype=float)
    if v.shape != g.shape or v.ndim != 1:
        raise ValueError("value gaps and gradient norms must be matching 1-d arrays")
    if not (np.isfinite(v).all() and np.isfinite(g).all()):
        raise ValueError("cloud entries must be finite")
    if np.any(v < 0.0) or np.any(g < 0.0):
        raise ValueError("cloud entries must be nonnegative")
    pairs = np.stack([v, g], axis=1)
    pairs.setflags(write=False)
    return SampleCloud(pairs=pairs, provenance=str(provenance))


def _usable(cloud):
    v, g = cloud.pairs[:, 0], cloud.pairs[:, 1]
    mask = (v > _FLOOR) & (g > _FLOOR)
    return v[mask], g[mask], int(np.sum(~mask))


def _require_span(v):
    if v.size < 10:
        raise ValueError(f"need at least 10 usable pairs, have {v.size}")
    span = np.log10(np.max(v) / np.min(v))
    if span < 2.0:
        raise ValueError(f"value gaps span {span:.2f} decades, need at least 2")


def estimate_gradient_exponent(cloud):
    """OLS fit of log(gradient) = theta log(gap) + log(1/C)."""
    v, g, dropped = _usable(cloud)
    _require_span(v)
    slope, intercept, r2, _ = _ols(np.log(v), np.log(g))
    return ExponentFit(
        theta=slope,
        constant=float(np.exp(-intercept)),
        r_squared=r2,
        sample_count=int(v.size),
        noise_floor_hits=dropped,
    )


def verify_inequality(cloud, theta_claim):
    """Split-sample validation of |gap|^theta <= C * gradient.

    The constant is calibrated on the first half of the cloud (doubled
    for slack) and checked on the second half. A monotone trend of the
    per-sample constant against the gap flags a diverging C, the
    signature of claiming too small an exponent.
    """
    v, g, dropped = _usable(cloud)
    if v.size == 0:
        raise ValueError("no usable samples above the noise floor")
    c_samples = v**theta_claim / g
    c_min = float(np.max(c_samples))
    half = v.size // 2
    if half == 0:
        raise ValueError("too few samples for split validation")
    c_first = float(np.max(c_samples[:half]))
    holdout = c_samples[half:]
    pass_fraction = float(np.mean(holdout <= 2.0 * c_first))
    trend_slope, _, trend_r2, _ = _ols(np.log(v), np.log(c_samples))
    diverging = bool(trend_slope < -0.05 and trend_r2 > 0.5)
    return {
        "theta_claim": float(theta_claim),
        "c_min": c_min,
        "c_calibration": c_first,
        "holdout_pass_fraction": pass_fraction,
        "diverging_constant": diverging,
        "trend_slope": float(trend_slope),
        "usable_samples": int(v.size),
        "noise_floor_hits": dropped,
    }


# -- finite-dimensional brute force ----------------------------------------


def _sphere_directions(n_vars, count, rng):
    """Quasi-uniform seeded directions plus every signed coordinate axis.

    The axes are appended deterministically: the binding direction of an
    anisotropic polynomial (x^2 + y^4) is an axis, and a random draw of
    modest size can miss its neighborhood entirely.
    """
    dirs = rng.standard_normal((count, n_vars))
    norms = np.linalg.norm(dirs, axis=1)
    keep = norms > 1e-12
    dirs = dirs[keep] / norms[keep][:, None]
    axes = np.concatenate([np.eye(n_vars), -np.eye(n_vars)], axis=0)
    return np.concatenate([dirs, axes], axis=0)


def _lower_envelope(v, g):
    """Per-bin minima of g over log-spaced bins of v, 6 bins per decade."""
    lv = np.log10(v)
    lo, hi = float(np.min(lv)), float(np.max(lv))
    n_bins = max(1, int(np.ceil((hi - lo) * 6)))
    edges = np.linspace(lo, hi, n_bins + 1)
    idx = np.clip(np.digitize(lv, edges) - 1, 0, n_bins - 1)
    keep_v, keep_g = [], []
    for b in range(n_bins):
        mask = idx == b
        if not np.any(mask):
            continue
        j = int(np.argmin(np.where(mask, g, np.inf)))
        keep_v.append(v[j])
        keep_g.append(g[j])
    return np.array(keep_v), np.array(keep_g)


def finite_dim_gradient_exponent(f, critical_point, radii, seed=0):
    """Brute-force theta for a polynomial near a critical point.

    Samples spheres of the given radii along 64 seeded directions and the
    axes, fits log |grad f| against log |f - f(x*)| separately along every
    direction, and reports the maximum of the directional slopes. The
    inequality must hold along its worst direction, and that direction
    occupies a vanishing fraction of a quasi-uniform cloud (x^2 + y^4 needs
    the y-axis, where the ratio of exponents is 3/4 instead of the generic
    1/2), so a pooled regression would average it away. The constant is the
    largest gap^theta / gradient over the whole cloud, the value the
    inequality actually needs at the reported exponent.
    """
    x0 = np.asarray(critical_point, dtype=float)
    if float(np.linalg.norm(f.gradient(x0))) > 1e-12:
        raise ValueError("critical_point fails |grad f| <= 1e-12")
    f0 = f.value(x0)
    rng = np.random.default_rng(seed)
    dirs = _sphere_directions(f.n_vars, 64, rng)
    radii = np.asarray(radii, dtype=float)
    pts = x0 + radii[:, None, None] * dirs[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.abs(f.value(pts) - f0)  # (n_radii, n_dirs)
        g = np.linalg.norm(f.gradient(pts), axis=-1)
    blown = ~(np.isfinite(v) & np.isfinite(g)).all(axis=1)
    if blown.any():
        raise ValueError(f"f or its gradient is not finite at radius {np.min(radii[blown]):g}")
    ok = (v > _FLOOR) & (g > _FLOOR)
    dropped = int(np.sum(~ok))
    if not np.any(ok):
        raise ValueError("all samples below the noise floor; degenerate sampling")
    _require_span(v[ok])
    theta, r2 = -np.inf, 0.0
    for d in range(dirs.shape[0]):
        vd, gd = v[:, d][ok[:, d]], g[:, d][ok[:, d]]
        if vd.size < 3 or np.log10(np.max(vd) / np.min(vd)) < 2.0:
            continue
        slope, _, slope_r2, _ = _ols(np.log(vd), np.log(gd))
        if slope > theta:
            theta, r2 = slope, slope_r2
    if not np.isfinite(theta):
        raise ValueError("no direction yields enough usable radii to fit")
    constant = float(np.max(v[ok] ** theta / g[ok]))
    return ExponentFit(
        theta=theta,
        constant=constant,
        r_squared=r2,
        sample_count=int(np.sum(ok)),
        noise_floor_hits=dropped,
    )


def _polish_zero(f, x):
    """One Gauss-Newton step toward f = 0 for the scalar equation."""
    grad = f.gradient(x)
    gg = float(np.dot(grad, grad))
    if gg < 1e-30:
        return x
    return x - (f.value(x) / gg) * grad


# The most floats a grid block holds once broadcast against the points it
# is measured to: grids stream through memory in blocks of this size.
_BLOCK_FLOATS = 2**13


def _grid_blocks(box, per_axis, fan_out=1):
    """The box's grid of per_axis points an axis, in row-major order, as
    consecutive (rows, d) blocks. A block holds at most
    _BLOCK_FLOATS / fan_out floats (at least one row), so that its
    differences to fan_out points hold at most _BLOCK_FLOATS."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    shape = (per_axis,) * len(axes)
    total = per_axis ** len(axes)
    rows = max(1, _BLOCK_FLOATS // (len(axes) * fan_out))
    for start in range(0, total, rows):
        index = np.unravel_index(np.arange(start, min(start + rows, total)), shape)
        yield np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)


def finite_dim_distance_exponent(f, box, grid_n, zero_tol=1e-8):
    """Brute-force (alpha, C) for dist(x, Z)^alpha <= C |f(x)| on a box.

    The zero set is approximated on a grid four times finer (cells with
    |f| below zero_tol, each polished by one Gauss-Newton step);
    distances from the coarse grid to that set are binned, the per-bin
    minimum of |f| gives the envelope whose slope is alpha. Both grids
    stream in blocks (_grid_blocks): memory holds one block, the polished
    zeros and two floats per coarse point, and the time grows as coarse
    points times zeros.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != f.n_vars:
        raise ValueError("box dimension does not match the polynomial arity")
    lowest, candidates = np.inf, []
    for fine in _grid_blocks(box, 4 * grid_n + 1):
        fine_vals = np.abs(f.value(fine))
        lowest = np.minimum(lowest, np.min(fine_vals))
        candidates.append(fine[fine_vals < zero_tol])
    if float(lowest) > 1e-10:
        raise ValueError("no zeros of f detected in the box")
    zeros = np.array([_polish_zero(f, c) for c in np.concatenate(candidates)]).reshape(-1, len(box))
    zeros = zeros[np.abs(f.value(zeros)) <= zero_tol]
    if zeros.size == 0:
        raise ValueError(f"no grid point polishes onto a zero of f within zero_tol {zero_tol:g}")
    vals, dists = [], []
    for coarse in _grid_blocks(box, grid_n, fan_out=len(zeros)):
        vals.append(np.abs(f.value(coarse)))
        diffs = coarse[:, None, :] - zeros[None, :, :]
        dists.append(np.min(np.linalg.norm(diffs, axis=-1), axis=1))
    vals, dists = np.concatenate(vals), np.concatenate(dists)
    mask = (dists > _FLOOR) & (vals > _FLOOR)
    dists, vals = dists[mask], vals[mask]
    if dists.size < 4:
        raise ValueError("too few off-zero grid samples to fit")
    env_d, env_f = _lower_envelope(dists, vals)
    alpha, _, _, _ = _ols(np.log(env_d), np.log(env_f))
    constant = float(np.max(dists**alpha / vals))
    return alpha, constant


def integrability_probe(sweep):
    """Check whether the reduced function vanishes identically near 0.

    Reads |f(xi)| on kernel spheres from the records of a
    reduction.sandwich_sweep; the verdict is integrable when the maximum
    at every radius r stays below tolerance * r^2 = 1e-4 r^2, the decay a
    genuinely flat reduced function shows but an isolated-degenerate one
    (quartic well) cannot. Samples whose Newton solve failed count as
    newton_failures and are left out of the maximum.
    """
    spr = sweep["samples_per_radius"]
    tolerance = 1e-4
    per_radius = []
    for i, r in enumerate(sweep["radii"]):
        values = [rec["abs_f"] for rec in sweep["records"][i * spr : (i + 1) * spr]]
        max_abs = max([0.0, *(v for v in values if v is not None)])
        bound = tolerance * float(r) ** 2
        per_radius.append(
            {
                "radius": float(r),
                "max_abs_f": max_abs,
                "bound": bound,
                "newton_failures": values.count(None),
                "integrable": bool(max_abs <= bound),
            }
        )
    return {
        "tolerance": float(tolerance),
        "samples_per_radius": int(spr),
        "per_radius": per_radius,
        "integrable": all(rec["integrable"] for rec in per_radius),
    }
