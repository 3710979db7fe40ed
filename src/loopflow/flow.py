"""Gradient flow of the energy (projected explicit integrators on the
target) and finite-dimensional gradient systems, with convergence-rate
fitting.

The flow velocity is the pointwise tension field; every integrator
stage is followed by nearest-point projection, mirroring the projected
variation structure of the energy. Recorded gradient norms are the
fiberwise tangential part of the tension: the raw assembly carries an
O(h^2) normal residue that never decays, while the tangential norm is
the actual constrained gradient and is what the dissipation identity
and the stopping rule see. A run binds its stage once: the target's
projection with its tube check, the bound tension of
variational._bind_tension, and the step's multiples of dt; no MapState
is built per stage, and each stage's floats are those of
project_nearest and tension_field. One stepper, _stepper, holds the
Euler and RK4 stage arithmetic for both flows: the loop flow passes it
the tension and the target's projection, finite_dim_flow -grad f and
the identity, and each reuses the gradient it records as the first
stage.

A run records each step's time, energy and gradient norm in float64
blocks, with no Python object per step. For dist_to_limit the flow also
keeps a copy of the map at every distance_stride-th step, in blocks of
rows, and measures each kept map against the terminal state once the
flow stops: the trajectory is integrated once, and the kept maps cost
(recorded rows) x n x p x 8 bytes, up to a limit at which the run fails
by name. The recorded energy, gradient norm and distances go through
mesh._sq_norm, as energy-eval's report does, so a trace's first row
holds that report's E and ||M_E|| bit for bit. The rate fit's lines come
from lojasiewicz._ols, the package's one least-squares helper, which
fits in closed form and loads no LAPACK.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .lojasiewicz import _ols
from .mesh import _sq_norm
from .targets import _tangent_part
from .variational import MapState, _bind_tension

__all__ = [
    "FlowConfig",
    "FlowTrace",
    "flow_step",
    "run_flow",
    "fit_convergence_rate",
    "finite_dim_flow",
]

# The integrators, each with the length of its real stability interval [-c, 0].
_STABILITY_INTERVAL = {"projected_euler": 2.0, "projected_rk4": 2.785}

# run_flow records steps and keeps maps in blocks of this many rows: a
# buffer for every step up to t_max would be reserved at once, and a long
# horizon that the tolerance cuts short would fail to allocate. It raises
# before a new block would take the kept maps above _KEPT_LIMIT_BYTES, so
# a run that needs more (n = 512 at stride 1 to the tolerance) fails by
# name, not by the OS; the default n = 256 run keeps about 1.5 GiB.
_KEPT_BLOCK_ROWS = 1024
_KEPT_LIMIT_BYTES = 4 * 2**30


@dataclass(frozen=True)
class FlowConfig:
    dt_factor: float = 0.2
    t_max: float = 50.0
    stop_grad_tol: float = 1e-8
    integrator: str = "projected_rk4"

    def __post_init__(self):
        if not 0.0 < self.dt_factor <= 0.5:
            raise ValueError("dt_factor must lie in (0, 0.5]")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if not 0.0 <= self.stop_grad_tol < math.inf:
            raise ValueError("stop_grad_tol must be finite and nonnegative")
        if self.integrator not in _STABILITY_INTERVAL:
            raise ValueError(f"integrator must be one of {tuple(_STABILITY_INTERVAL)}")


@dataclass(frozen=True)
class FlowTrace:
    times: np.ndarray
    energies: np.ndarray
    grad_norms: np.ndarray
    dist_to_limit: np.ndarray
    config_echo: dict = field(default_factory=dict)


def _stepper(rhs, project, dt, integrator):
    """step(x, k1) advancing x by dt on dx/dt = rhs(x), k1 being rhs(x),
    with every stage passed through project: the package's one Euler and
    one RK4 stage arithmetic, shared by the loop flow and finite_dim_flow."""
    if integrator == "projected_euler":
        return lambda x, k1: project(x + dt * k1)
    half, sixth = 0.5 * dt, dt / 6.0

    def step(x, k1):
        k2 = rhs(project(x + half * k1))
        k3 = rhs(project(x + half * k2))
        k4 = rhs(project(x + dt * k3))
        return project(x + sixth * (k1 + 2 * k2 + 2 * k3 + k4))

    return step


def _bind_step(mesh, target, dt, integrator):
    """(step, tension): tension is _bind_tension's function, and step is
    _stepper's on the tension field with the target's projection."""
    nearest = target._nearest
    tension = _bind_tension(mesh, target)
    step = _stepper(lambda u: tension(u)[0], lambda u: nearest(u)[0], dt, integrator)
    return step, tension


def _check_stable(mesh, dt, integrator):
    """Reject dt that is not positive and finite or above the stability bound.

    The bound is the integrator's real stability interval over the
    largest eigenvalue of the Laplacian stencil, 4/h^2 at order 2 and
    16/(3 h^2) at order 4, and never more than 0.5 h^2.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if integrator not in _STABILITY_INTERVAL:
        raise ValueError(f"integrator must be one of {tuple(_STABILITY_INTERVAL)}")
    h = mesh.spacing
    lambda_max = (4.0 if mesh.diff_order == 2 else 16.0 / 3.0) / (h * h)
    bound = min(0.5 * h * h, _STABILITY_INTERVAL[integrator] / lambda_max)
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(
            f"dt = {dt:.3e} violates the explicit stability bound {bound:.3e} of "
            f"{integrator} on an order-{mesh.diff_order} mesh"
        )


def flow_step(state, dt, integrator="projected_rk4"):
    """One explicit step of du/dt = M_E(u) with projection after each stage."""
    _check_stable(state.mesh, dt, integrator)
    step, tension = _bind_step(state.mesh, state.target, dt, integrator)
    return MapState(state.mesh, state.target, step(state.values, tension(state.values)[0]))


def run_flow(initial, config, distance_stride=1):
    """Integrate until t_max or the tangential gradient drops below tolerance.

    Every step's time, energy and gradient norm is recorded. The map at
    every distance_stride-th step (and the terminal map) is kept, and
    dist_to_limit holds its L2 distance to the terminal state; the other
    rows, and every row when distance_stride is None, are NaN. Memory for
    the kept maps is (recorded rows) x n x p x 8 bytes, and a run raises
    before it would pass _KEPT_LIMIT_BYTES. The tension field
    computed for the recorded gradient norm is reused as the first stage
    of the next step.
    """
    mesh, target = initial.mesh, initial.target
    h = mesh.spacing
    dt = config.dt_factor * h * h
    _check_stable(mesh, dt, config.integrator)
    integral = isinstance(distance_stride, (int, np.integer)) and not isinstance(distance_stride, bool)
    if distance_stride is not None and not (integral and distance_stride >= 1):
        raise ValueError("distance_stride must be an integer of at least 1 or None")
    n_max = int(np.ceil(config.t_max / dt))
    step, tension = _bind_step(mesh, target, dt, config.integrator)
    record = []  # blocks of rows t, energy, gradient norm; one column a step
    values = initial.values
    kept = []
    t = 0.0
    for k in range(n_max + 1):
        k1, du, normal = tension(values)
        grad = math.sqrt(_sq_norm(mesh, _tangent_part(k1, normal)))
        col = k % _KEPT_BLOCK_ROWS
        if col == 0:
            record.append(np.empty((3, _KEPT_BLOCK_ROWS)))
        record[-1][:, col] = t, _sq_norm(mesh, du), grad
        if distance_stride is not None and k % distance_stride == 0:
            block, slot = divmod(k // distance_stride, _KEPT_BLOCK_ROWS)
            if slot == 0:
                kept_bytes = (block + 1) * _KEPT_BLOCK_ROWS * values.nbytes
                if kept_bytes > _KEPT_LIMIT_BYTES:
                    raise ValueError(
                        f"the maps kept by step {k} would take {kept_bytes} bytes, above the "
                        f"limit of {_KEPT_LIMIT_BYTES} bytes: raise output.stride (distance_stride)"
                    )
                kept.append(np.empty((_KEPT_BLOCK_ROWS,) + values.shape))
            kept[block][slot] = values
        if grad < config.stop_grad_tol or k == n_max:
            break
        values = step(values, k1)
        t += dt
    dist = np.full(k + 1, np.nan)
    if distance_stride is not None:
        for row, j in enumerate(range(0, k + 1, distance_stride)):
            block, slot = divmod(row, _KEPT_BLOCK_ROWS)
            dist[j] = math.sqrt(_sq_norm(mesh, kept[block][slot] - values))
        # the terminal state is the limit itself
        dist[-1] = 0.0
    del kept  # copy the record only once the kept maps are freed: the loop sets the peak
    record[-1] = record[-1][:, : col + 1]
    times, energies, grads = np.concatenate(record, axis=1)
    echo = {**asdict(config), "dt": dt, "n_steps": k, "stopped_on_tolerance": bool(grad < config.stop_grad_tol)}
    return FlowTrace(times, energies, grads, dist, echo)


def _gaps_to_limit(trace):
    """(e_inf, times, energy - e_inf, grad_norms) of a trace before its
    limit e_inf, the final energy: the last tenth of the records (at least
    one) defines the limit and would bias the gap, so it is excluded."""
    e_inf = float(trace.energies[-1])
    cut = max(1, int(np.floor(0.9 * len(trace.times))))
    return e_inf, trace.times[:cut], trace.energies[:cut] - e_inf, trace.grad_norms[:cut]


def fit_convergence_rate(trace):
    """Fit exponential and power-law models to the tail of the energy gap.

    The records before the limit (_gaps_to_limit) are used, less gaps at
    the rounding floor 1e-13. Both models are fitted on the later half
    of what survives and compared by residual.
    """
    e_inf, t, gap, _ = _gaps_to_limit(trace)
    mask = gap > 1e-13
    t, gap = t[mask], gap[mask]
    if t.size < 20:
        raise ValueError(f"only {t.size} usable records after exclusions, need 20")
    span = np.log10(np.max(gap) / np.min(gap))
    if span < 2.0:
        raise ValueError(f"energy gap spans {span:.2f} decades, need 2")
    tail = slice(t.size // 2, None)
    t_tail, gap_tail = t[tail], gap[tail]
    log_gap = np.log(gap_tail)
    b_slope, a_exp, r2_exp, sse_exp = _ols(t_tail, log_gap)
    positive = t_tail > 0.0
    p_slope, a_pow, r2_pow, sse_pow = _ols(np.log(t_tail[positive]), log_gap[positive])
    report = {
        "e_infinity": e_inf,
        "records_used": int(t_tail.size),
        "gap_decades": float(span),
        "exponential": {"rate": -b_slope, "intercept": a_exp, "r_squared": r2_exp},
        "power_law": {"exponent": -p_slope, "intercept": a_pow, "r_squared": r2_pow},
        "preferred": "exponential" if sse_exp <= sse_pow else "power_law",
    }
    return report


def finite_dim_flow(f, x0, dt=1e-3, t_max=100.0):
    """RK4 on dx/dt = -grad f for a polynomial f; trace of f and |grad f|.

    The step is _stepper's RK4 with the identity as projection, and each
    recorded gradient is its first stage. x0 must be f.n_vars finite
    numbers, and dt must divide t_max (to 1e-9 relative), so the trace
    ends at t_max. A state that leaves the ball of radius 1e6, or stops
    being a number, raises.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (f.n_vars,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be a finite 1-D array of length {f.n_vars}, got {x0!r}")
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    ratio = t_max / dt
    n_steps = int(np.round(ratio))
    if abs(ratio - n_steps) > 1e-9 * ratio:
        raise ValueError("dt must divide t_max")
    times = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)
    grads = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, x.size))
    step = _stepper(lambda y: -f.gradient(y), lambda y: y, dt, "projected_rk4")
    t = 0.0
    for k in range(n_steps + 1):
        gradient = f.gradient(x)
        times[k] = t
        energies[k] = f.value(x)
        grads[k] = float(np.linalg.norm(gradient))
        states[k] = x
        if k == n_steps:
            break
        x = step(x, -gradient)
        if not float(np.linalg.norm(x)) <= 1e6:
            raise RuntimeError(f"finite-dimensional flow diverged at t = {t:.3f}")
        t += dt
    dist = np.linalg.norm(states - states[-1], axis=1)
    echo = {"dt": dt, "t_max": t_max, "kind": "finite_dim", "f": str(f)}
    return FlowTrace(times, energies, grads, dist, echo)
