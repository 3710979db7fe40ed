"""Liapunov-Schmidt reduction: kernel extraction, N = P_K + M_F, Newton
inversion, and the reduced function on the kernel.

The linearization L(0) lives on fiber-frame coordinates (p-1 per node),
which quotients out the ambient normal directions, so eigendecomposing
it sees only the section space. It and every Jacobian P_K + L(u) come
from the functional's linearization routine: closed form for the chart
energy and its quartic penalty, so a chart-energy reduction differences
no field; only a generic integrand's Jacobian is probed. Kernel vectors
are kept when their eigenvalue is below a relative threshold. One
spectral split checks the linearization and builds the frozen workspace
from its eigendecomposition: an asymmetric linearization, a threshold
that keeps every eigenvalue or none, or no tenfold spectral gap to the
discarded ones fails loudly.

The kernel is held as one (m, l) matrix K of frame coordinates, and all
Newton work happens in frame coordinates. The quadrature weight is
uniform, so the L2 inner product of sections is h times the Euclidean
one on coordinates: h K^T K = I, and the kernel projector is the dense
rank-l matrix h K K^T. N is defined once, on frame coordinates. As
eigh(L(0)) = V diag(lambda) V^T gives P_K + L(0) = V diag(lambda + 1_K)
V^T, the workspace keeps its inverse as Newton's chord; a Jacobian
P_K + L(u) is assembled and inverted only when a chord step stops
halving the residual. The reduced gradient is exact: one assembly and
one linear solve. sandwich_sweep reads the sandwich ratio and |f(xi)|
off one Newton solve per kernel sample; integrability_probe reads them.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bundles import _check_same_bundle, l2_norm, project_section, section, sobolev_norms
from .lojasiewicz import _ols
from .variational import (
    _from_coords,
    _to_coords,
    frame_linearization,
    functional_value,
    general_euler_lagrange,
)

__all__ = [
    "ReductionWorkspace",
    "build_reduction_workspace",
    "project_onto_kernel",
    "kernel_coordinates",
    "kernel_combination",
    "apply_N",
    "invert_N",
    "reduced_section",
    "reduced_function",
    "reduced_gradient",
    "sandwich_check",
    "approximation_check",
    "lipschitz_probe",
    "approximation_sweep",
    "sandwich_sweep",
]

# Relative to the spectral radius. The closed forms are symmetric to
# round-off; probing a generic integrand leaves ~6e-11 at any n.
_SYMMETRY_TOL = 1e-5
_GAP_FACTOR = 10.0
_NEWTON_BASIN = 0.1
_NOISE_FLOOR = 1e-9
_SANDWICH_BAND = (0.4, 2.1)
_XI_RADIUS = 0.05
# A chord step is kept while it cuts the residual by at least this factor.
_CHORD_RATIO = 0.5


@dataclass(frozen=True)
class ReductionWorkspace:
    """The kernel K of the linearization L(0) at the zero section, held as
    L2-orthonormal frame coordinates (h K^T K = I), and Newton's chord
    (P_K + L(0))^{-1}; kernel_basis is K as sections."""

    bundle: object
    functional: object
    chord_inverse: np.ndarray     # (m, m) (P_K + L(0))^{-1} on frame coords
    kernel: np.ndarray            # (m, l) kernel in frame coords
    kernel_eigenvalues: np.ndarray
    newton_tol: float
    newton_max_iter: int
    spectral_radius: float
    threshold: float
    discarded_min: float
    gap_ratio: float

    @property
    def kernel_dim(self):
        return self.kernel.shape[1]

    @property
    def kernel_basis(self):
        """The kernel vectors as L2-orthonormal sections."""
        return tuple(section(self.bundle, _from_coords(self.bundle, k)) for k in self.kernel.T)


def _spectral_split(L_frame, asymmetry, bundle, functional, kernel_tol, newton_tol, newton_max_iter):
    """Eigendecompose the symmetrized linearization, whose raw asymmetry
    is checked, split it into kernel and complement, and build the
    workspace: the kept coordinate vectors (L2-orthonormalized), their
    eigenvalues, the chord inverse (P_K + L)^{-1}, and the gap bookkeeping.
    A threshold that keeps every eigenvalue or none, or no gap, raises.
    """
    eigvals, eigvecs = np.linalg.eigh(L_frame)
    mags = np.abs(eigvals)
    spectral_radius = float(np.max(mags)) if mags.size else 0.0
    if not asymmetry <= _SYMMETRY_TOL * spectral_radius:
        raise ValueError(
            f"linearization asymmetry {asymmetry:.3e} exceeds {_SYMMETRY_TOL:.0e} "
            f"of its spectral radius {spectral_radius:.3e}"
        )
    threshold = kernel_tol * spectral_radius
    keep = mags < threshold
    if keep.all():
        raise ValueError(f"kernel_tol {kernel_tol:g} is above 1 and keeps every eigenvalue")
    discarded_min = float(np.min(mags[~keep]))
    if not keep.any():
        raise ValueError(f"kernel_tol {kernel_tol:g} keeps no eigenvalue: the smallest |eigenvalue| "
                         f"{discarded_min:.3e} is above the threshold {threshold:.3e}")
    kept_max = float(np.max(mags[keep]))
    if discarded_min < _GAP_FACTOR * kept_max:
        raise ValueError(
            f"no spectral gap: smallest discarded eigenvalue {discarded_min:.3e} "
            f"is under {_GAP_FACTOR:.0f}x the largest kept one {kept_max:.3e}"
        )
    gap_ratio = discarded_min / kept_max if kept_max > 0.0 else np.inf
    # eigh vectors are Euclidean-orthonormal, so h K K^T = V_kept V_kept^T
    # adds 1 to each kept eigenvalue, and the quadrature inner product is
    # h times Euclidean: a uniform rescale makes them L2-orthonormal.
    chord_inverse = (eigvecs / (eigvals + keep)) @ eigvecs.T
    order = np.argsort(eigvals[keep])
    kernel = (eigvecs[:, keep] / np.sqrt(bundle.mesh.spacing))[:, order]
    kernel_eigenvalues = eigvals[keep][order]
    for arr in (chord_inverse, kernel, kernel_eigenvalues):
        arr.setflags(write=False)
    # positional, in the field order of ReductionWorkspace
    return ReductionWorkspace(
        bundle, functional, chord_inverse, kernel, kernel_eigenvalues, float(newton_tol),
        int(newton_max_iter), spectral_radius, threshold, discarded_min, gap_ratio,
    )


def build_reduction_workspace(bundle, functional, kernel_tol=1e-6, newton_tol=1e-10, newton_max_iter=50):
    L_frame, asymmetry = frame_linearization(bundle, functional)
    return _spectral_split(L_frame, asymmetry, bundle, functional, kernel_tol, newton_tol, newton_max_iter)


def kernel_coordinates(workspace, sec):
    """L2 pairings <u, phi_j>, an l-vector: h K^T F^T u on frame coordinates."""
    _check_same_bundle(workspace.bundle, sec)
    h = workspace.bundle.mesh.spacing
    return h * (workspace.kernel.T @ _to_coords(workspace.bundle, sec.values))


def kernel_combination(workspace, xi):
    """The section sum_j xi_j phi_j, that is F K xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (workspace.kernel_dim,):
        raise ValueError(f"xi must have length {workspace.kernel_dim}")
    return section(workspace.bundle, _from_coords(workspace.bundle, workspace.kernel @ xi))


def project_onto_kernel(workspace, sec):
    return kernel_combination(workspace, kernel_coordinates(workspace, sec))


def _N(workspace, u):
    """N(u) = P_K u + M_F(u) on frame coordinates u, with P_K = h K K^T."""
    bundle, K = workspace.bundle, workspace.kernel
    v = project_section(bundle, _from_coords(bundle, u))
    mf = general_euler_lagrange(bundle, workspace.functional, v)
    return bundle.mesh.spacing * (K @ (K.T @ u)) + _to_coords(bundle, mf.values)


def apply_N(workspace, u):
    """N applied to a section u, through its frame coordinates."""
    _check_same_bundle(workspace.bundle, u)
    bundle = workspace.bundle
    n_coords = _N(workspace, _to_coords(bundle, u.values))
    return section(bundle, _from_coords(bundle, n_coords))


def _jacobian(workspace, values):
    """P_K + L(u) = h K K^T + L(u) on frame coordinates, at section values u."""
    K = workspace.kernel
    L_u, _ = frame_linearization(workspace.bundle, workspace.functional, at_values=values)
    return workspace.bundle.mesh.spacing * (K @ K.T) + L_u


def invert_N(workspace, f, return_info=False):
    """Solve N(u) = f by chord Newton from u0 = f, in frame coordinates.

    f's bundle is checked once; every residual f - N(u) is then taken on
    frame coordinates by the one function that defines N. The chord is
    the workspace's (P_K + L(0))^{-1}, so a step is one product. A full
    chord step is kept while it at least halves the residual or meets
    newton_tol. Otherwise the Jacobian P_K + L(u) is assembled at the
    current iterate, its inverse becomes the chord, and a Newton step is
    taken whose residual increase triggers step halving (up to 8). Raises RuntimeError when the residual tolerance is not met
    within newton_max_iter iterations, which operationally marks f as
    outside the inversion neighborhood. The info dict holds the residual
    history, the iteration count, the Jacobian assemblies and the
    halvings.
    """
    _check_same_bundle(workspace.bundle, f)
    bundle = workspace.bundle
    h = bundle.mesh.spacing
    fnorm = l2_norm(f)
    if fnorm >= _NEWTON_BASIN:
        raise ValueError(
            f"right-hand side norm {fnorm:.3f} is outside the inversion basin {_NEWTON_BASIN}"
        )
    f_coords = _to_coords(bundle, f.values)

    def residual(u_coords):
        r = f_coords - _N(workspace, u_coords)
        return r, float(np.sqrt(h) * np.linalg.norm(r))

    iters = assemblies = halvings = 0
    chord_inv = workspace.chord_inverse
    u = f_coords.copy()
    r, rnorm = residual(u)
    history = [rnorm]
    converged = rnorm <= workspace.newton_tol
    while not converged and iters < workspace.newton_max_iter:
        delta = chord_inv @ r
        r_new, rnorm_new = residual(u + delta)
        # Written so that a NaN residual also refreshes the Jacobian.
        if not (rnorm_new <= _CHORD_RATIO * rnorm or rnorm_new <= workspace.newton_tol):
            assemblies += 1
            try:
                chord_inv = np.linalg.inv(_jacobian(workspace, _from_coords(bundle, u)))
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(f"singular Newton system at iteration {iters}") from exc
            delta = chord_inv @ r
            scale = 1.0
            for _ in range(9):
                r_new, rnorm_new = residual(u + scale * delta)
                if rnorm_new < rnorm or rnorm_new <= workspace.newton_tol:
                    break
                scale *= 0.5
                halvings += 1
            else:
                raise RuntimeError(
                    f"Newton line search stalled at residual {rnorm:.3e} (iteration {iters})"
                )
            delta = scale * delta
        u = u + delta
        r, rnorm = r_new, rnorm_new
        history.append(rnorm)
        iters += 1
        converged = rnorm <= workspace.newton_tol
    if not converged:
        raise RuntimeError(
            f"Newton did not reach tolerance {workspace.newton_tol:.1e} in "
            f"{workspace.newton_max_iter} iterations (residual {rnorm:.3e})"
        )
    result = section(bundle, _from_coords(bundle, u))
    if return_info:
        return result, {
            "residuals": history,
            "iterations": iters,
            "jacobian_assemblies": assemblies,
            "halvings": halvings,
        }
    return result


def reduced_section(workspace, xi):
    """Psi applied to the kernel combination of xi, for |xi| < 0.05."""
    xi = np.asarray(xi, dtype=float)
    if np.linalg.norm(xi) >= _XI_RADIUS:
        raise ValueError(
            f"|xi| = {np.linalg.norm(xi):.3f} outside the reduced-chart radius "
            f"{_XI_RADIUS}"
        )
    return invert_N(workspace, kernel_combination(workspace, xi))


def reduced_function(workspace, xi):
    """f(xi) = F(Psi(sum xi_j phi_j))."""
    u = reduced_section(workspace, xi)
    return functional_value(workspace.bundle, workspace.functional, u)


def _gradient_at(workspace, u, mf):
    """Reduced gradient at u = Psi(xi.phi), given mf = M_F(u).

    Differentiating N(Psi(xi.phi)) = xi.phi gives DPsi = (P_K + L(u))^{-1}
    on the kernel, and that matrix is symmetric, so the gradient is
    <(P_K + L(u))^{-1} M_F(u), phi_j>: one assembly and one solve.
    """
    x = np.linalg.solve(_jacobian(workspace, u.values), _to_coords(workspace.bundle, mf.values))
    return workspace.bundle.mesh.spacing * (workspace.kernel.T @ x)


def reduced_gradient(workspace, xi):
    """Exact gradient of f(xi) = F(Psi(sum xi_j phi_j))."""
    u = reduced_section(workspace, xi)
    mf = general_euler_lagrange(workspace.bundle, workspace.functional, u)
    return _gradient_at(workspace, u, mf)


def sandwich_check(workspace, xi):
    """Ratio ||M_F(Psi(xi.phi))|| / |grad f(xi)|, "pass" inside [0.4, 2.1] or "fail".

    Status is "indeterminate" when either side sits below the noise
    floor 1e-9: near an integrable critical manifold both vanish and the
    ratio is meaningless.
    """
    return _sandwich_at(workspace, reduced_section(workspace, xi))


def _sandwich_at(workspace, u):
    """sandwich_check at u = Psi(xi.phi), already solved. An M_F(u) under
    the floor settles the status, and then no gradient is solved."""
    mf = general_euler_lagrange(workspace.bundle, workspace.functional, u)
    m_norm = l2_norm(mf)
    if m_norm < _NOISE_FLOOR:
        return np.nan, "indeterminate"
    g_norm = float(np.linalg.norm(_gradient_at(workspace, u, mf)))
    if g_norm < _NOISE_FLOOR:
        return np.nan, "indeterminate"
    ratio = m_norm / g_norm
    status = "pass" if _SANDWICH_BAND[0] <= ratio <= _SANDWICH_BAND[1] else "fail"
    return ratio, status


def approximation_check(workspace, u):
    """lhs = |F(u) - F(Psi(P_K u))| and rhs = ||M_F(u)||^2."""
    _check_same_bundle(workspace.bundle, u)
    bundle, functional = workspace.bundle, workspace.functional
    fu = functional_value(bundle, functional, u)
    psi = invert_N(workspace, project_onto_kernel(workspace, u))
    f_psi = functional_value(bundle, functional, psi)
    mf = general_euler_lagrange(bundle, functional, u)
    return abs(fu - f_psi), l2_norm(mf) ** 2


# -- sampled sweeps for reports and acceptance -----------------------------


def _random_fiber_field(bundle, rng):
    """Seeded low-frequency section: the fiber projection of the sum over
    m = 1..4 of a_m cos(m theta) + b_m sin(m theta), with a_m and b_m
    drawn uniform on (-1, 1)^p."""
    theta = bundle.mesh.node_angles
    field = np.zeros_like(bundle.base_map)
    for m in range(1, 5):
        coef = rng.uniform(-1.0, 1.0, size=(2, field.shape[1]))
        field += np.outer(np.cos(m * theta), coef[0]) + np.outer(np.sin(m * theta), coef[1])
    return project_section(bundle, field)


def _random_smooth_section(bundle, rng):
    """Seeded random low-frequency section, L2-normalized."""
    sec = _random_fiber_field(bundle, rng)
    norm = l2_norm(sec)
    if norm < 1e-12:
        raise RuntimeError("degenerate random section draw")
    return section(bundle, sec.values / norm)


def lipschitz_probe(workspace, n_pairs=50, seed=0):
    """Ratios ||Psi(f1)-Psi(f2)||_{W22} / ||f1-f2||_{L2} over random pairs of norm 0.01."""
    rng = np.random.default_rng(seed)
    bundle = workspace.bundle
    amplitude = 0.01
    ratios = []
    for _ in range(n_pairs):
        s1 = _random_smooth_section(bundle, rng)
        s2 = _random_smooth_section(bundle, rng)
        f1 = section(bundle, amplitude * s1.values)
        f2 = section(bundle, amplitude * s2.values)
        u1 = invert_N(workspace, f1)
        u2 = invert_N(workspace, f2)
        diff = section(bundle, u1.values - u2.values)
        _, _, w22 = sobolev_norms(diff)
        denom = l2_norm(section(bundle, f1.values - f2.values))
        if denom < 1e-13:
            continue
        ratios.append(w22 / denom)
    ratios = np.array(ratios)
    return {
        "n_pairs": int(ratios.size),
        "amplitude": float(amplitude),
        "ratio_min": float(np.min(ratios)),
        "ratio_max": float(np.max(ratios)),
        "ratio_spread": float(np.max(ratios) / np.min(ratios)),
    }


def approximation_sweep(workspace, seed=0):
    """Log-log slope of |F(u) - F(Psi(P_K u))| against ||M_F(u)||, over
    5 seeded directions at L2 amplitudes 0.04, 0.02 and 0.01.

    Each sampled direction has its own constant, so `slope` is the one
    slope common to all directions, fitted with a separate intercept per
    direction; `direction_slopes` holds each direction's own slope (None
    where fewer than two of its samples clear the floor 1e-14).
    """
    rng = np.random.default_rng(seed)
    bundle = workspace.bundle
    amplitudes = (0.04, 0.02, 0.01)
    n_directions = 5
    lhs_all, m_all, direction = [], [], []
    for k in range(n_directions):
        v = _random_smooth_section(bundle, rng)
        for amp in amplitudes:
            u = section(bundle, amp * v.values)
            lhs, rhs = approximation_check(workspace, u)
            m_norm = np.sqrt(rhs)
            if lhs > 1e-14 and m_norm > 1e-14:
                lhs_all.append(lhs)
                m_all.append(m_norm)
                direction.append(k)
    lhs_all = np.array(lhs_all)
    m_all = np.array(m_all)
    direction = np.array(direction)
    if lhs_all.size < 3:
        raise ValueError("approximation sweep produced too few usable samples")
    x, y = np.log(m_all), np.log(lhs_all)
    direction_slopes = [
        _ols(x[direction == k], y[direction == k])[0] if np.sum(direction == k) >= 2 else None
        for k in range(n_directions)
    ]
    constant = float(np.max(lhs_all / m_all**2))
    return {
        "amplitudes": [float(a) for a in amplitudes],
        "n_samples": int(lhs_all.size),
        "slope": _ols(x, y, direction)[0],
        "direction_slopes": direction_slopes,
        "constant": constant,
        "lhs": lhs_all.tolist(),
        "m_norm": m_all.tolist(),
    }


def sandwich_sweep(workspace, radii=(0.005, 0.01, 0.02), samples_per_radius=20, seed=0):
    """Band membership of the sandwich ratio over seeded kernel samples;
    each record also holds abs_f = |F(Psi(xi.phi))| from the same Newton
    solve. A sample that raises RuntimeError is a newton_failure, abs_f None.
    Each radius, not each |xi|, is checked against the chart radius: the
    unit direction's rounding can lift |xi| onto it."""
    rng = np.random.default_rng(seed)
    bundle, functional, l = workspace.bundle, workspace.functional, workspace.kernel_dim
    records = []
    for r in radii:
        if not 0.0 <= r < _XI_RADIUS:
            raise ValueError(f"radius {r} outside the reduced-chart radius {_XI_RADIUS}")
        for _ in range(samples_per_radius):
            direction = rng.standard_normal(l)
            direction /= np.linalg.norm(direction)
            xi = r * direction
            rec = {"radius": float(r), "ratio": None, "status": "newton_failure", "abs_f": None}
            records.append(rec)
            try:
                u = invert_N(workspace, kernel_combination(workspace, xi))
                ratio, status = _sandwich_at(workspace, u)
                abs_f = abs(functional_value(bundle, functional, u))
            except RuntimeError:
                continue
            rec.update(status=status, abs_f=abs_f, ratio=None if np.isnan(ratio) else float(ratio))
    count = Counter(rec["status"] for rec in records)
    determinate = count["pass"] + count["fail"]
    return {
        "radii": [float(r) for r in radii],
        "samples_per_radius": int(samples_per_radius),
        "n_pass": count["pass"],
        "n_fail": count["fail"],
        "n_indeterminate": count["indeterminate"],
        "n_newton_failure": count["newton_failure"],
        "determinate_pass_rate": (count["pass"] / determinate) if determinate else None,
        "records": records,
    }
