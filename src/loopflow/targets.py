"""Embedded targets: round spheres and axis-aligned ellipsoids in R^p.

This module is the only place that knows the target's geometry, and every
quantity has one closed form, vectorized over stacked rows; the sphere is
the ellipsoid with unit semi-axes. The nearest point of x is
Pi(x) = a^2 x / (a^2 + t), with the Lagrange multiplier t solved for all
rows at once by Newton's method inside the bracket (-e, e) that the tube
check proves, e = tube_radius * a_max. Implicit differentiation of that
formula gives the differential dPi_x, a symmetric matrix, and once more
the derivative of x -> dPi_x(g) for fixed g, which the chart energy's
linearization uses. The level set G(y) = sum y^2 / a^2 - 1 gives the
unit normal and the second fundamental form, which appears only as the
tension field's curvature term, _tangent_curvature: it takes the tangent
part of Du and contracts the shape operator with it from one unit normal
per point. The tube check hands on the projection's denominator
d = a^2 + t, which is |x| on a sphere (there a^2 = 1 and t = |x| - 1),
and projection and its derivatives use d as given. The sphere keeps two
shortcuts, x / |x| for Pi and its three-operation dPi; the flow reaches
only Pi, and the dPi shortcut serves the chart energy of reduce-run and
loj-estimate. A tube radius below the reach a_min^2 / a_max bounds the
neighborhood on which projection and chart operations are trusted; a
point belongs to it when its exact distance |x - Pi(x)| is below the
radius: on a sphere that is ||x| - 1| < radius, which also rejects
x = 0, NaN and inf.

Each target binds the tube check, the projection and the curvature term
to its constants once, on first use: a^2, the tube radius, and on an
ellipsoid the edge e and the end values of the tube check. A sphere
skips its divisions by a^2 = 1, which are exact. The public methods and
the flow's stages call the same bound functions.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["TargetManifold"]

_PROJ_TOL = 1e-13
_PROJ_MAX_ITER = 200


@dataclass(frozen=True)
class TargetManifold:
    kind: str
    ambient_dim: int
    semi_axes: np.ndarray
    tube_radius: float

    # -- construction ------------------------------------------------------

    @staticmethod
    def sphere(ambient_dim, tube_radius=0.5):
        if ambient_dim < 2:
            raise ValueError("sphere target needs ambient dimension >= 2")
        if not 0.0 < tube_radius < 1.0:
            raise ValueError("sphere tube_radius must lie in (0, 1)")
        axes = np.ones(ambient_dim)
        axes.setflags(write=False)
        return TargetManifold("sphere", int(ambient_dim), axes, float(tube_radius))

    @staticmethod
    def ellipsoid(semi_axes, tube_radius=None):
        axes = np.asarray(semi_axes, dtype=float)
        if axes.ndim != 1 or axes.size < 2:
            raise ValueError("ellipsoid needs at least two semi-axes")
        if np.any(axes <= 0.0):
            raise ValueError("semi-axes must be positive")
        # Nearest-point projection is single-valued and smooth only within
        # the reach, the smallest radius of curvature a_min^2 / a_max.
        reach = float(axes.min() ** 2 / axes.max())
        if tube_radius is None:
            tube_radius = min(0.25 * float(axes.min()), 0.5 * reach)
        if not 0.0 < tube_radius < reach:
            raise ValueError(
                f"tube_radius must lie in (0, reach a_min^2 / a_max = {reach:.6g})"
            )
        axes = axes.copy()
        axes.setflags(write=False)
        return TargetManifold("ellipsoid", int(axes.size), axes, float(tube_radius))

    # -- defining equation -------------------------------------------------

    def defining_residual(self, y):
        """|sum y_k^2 / a_k^2 - 1| at each point; zero on the manifold."""
        y = np.asarray(y, dtype=float)
        q = np.sum((y / self.semi_axes) ** 2, axis=-1)
        return np.abs(q - 1.0)

    def require_on_manifold(self, y, tol=1e-10, what="point"):
        """Raise ValueError unless every point is finite and on the manifold."""
        r = self.defining_residual(y)
        worst = float(np.max(r))
        # Written so that a NaN residual fails too.
        if not worst <= tol:
            raise ValueError(
                f"{what} is off the target manifold: defining residual {worst:.3e} > {tol:.1e}"
            )

    def in_tube(self, x):
        """Whether every row of x lies within tube_radius of the target."""
        return self._tube(np.asarray(x, dtype=float))[0]

    @cached_property
    def _tube(self):
        """x -> (inside, d): the tube check of in_tube, and every row's
        projection denominator d = a^2 + t, Pi(x) = a^2 x / d: |x| on a
        sphere, and on an ellipsoid a^2 plus the multiplier t once it has
        been solved (else None). d has shape x.shape[:-1] + (1,).

        The sphere's distance ||x| - 1| is exact, and comparing it with
        the radius rejects x = 0 (the radius is below 1), NaN and inf. On
        an ellipsoid, |x - Pi(x)| = |t| |Pi(x) / a^2| and |y / a^2| >=
        1 / a_max on the target, so a row within the tube has |t| < e =
        tube_radius * a_max, where the decreasing root function g of
        _multiplier changes sign. A row where g does not change sign on
        (-e, e) is outside the tube (x = 0, NaN and points near the centre
        among them) and fails before the solve. The others hand their
        a^2 x^2, computed once for the sign check, and e to _multiplier,
        whose Newton iteration stays in (-e, e); |t x / d| is then the
        exact distance.
        """
        radius = self.tube_radius
        if self.kind == "sphere":

            def tube(x):
                r = np.sqrt(np.add.reduce(x * x, -1, keepdims=True))
                return bool(abs(r - 1.0).max() < radius), r

            return tube
        a2 = self._a2
        edge = radius * self.semi_axes.max()
        ends = ((a2 + np.array([[-edge], [edge]])) ** -2).T
        signs = np.array((1.0, -1.0))
        radius2 = radius**2

        def tube(x):
            ax2 = a2 * x * x
            g_ends = ax2 @ ends - 1.0
            if not (g_ends * signs > 0.0).all():
                return False, None
            t = self._multiplier(ax2, edge)
            d = a2 + t
            offset = t * x / d
            return bool((np.add.reduce(offset * offset, -1) < radius2).all()), d

        return tube

    @cached_property
    def _a2(self):
        """The squared semi-axes, read-only."""
        a2 = self.semi_axes**2
        a2.setflags(write=False)
        return a2

    def unit_normal(self, y):
        """Unit normal grad G / |grad G| of the level set at each point y."""
        return self._normal(np.asarray(y, dtype=float))[0]

    @cached_property
    def _normal(self):
        """y -> (n, |grad G|): the unit normal at y and the norm of the
        gradient y / a^2 it normalizes, rowwise."""
        a2 = None if self.kind == "sphere" else self._a2

        def normal(y):
            grad = y if a2 is None else y / a2
            gn = np.sqrt(np.add.reduce(grad * grad, -1, keepdims=True))
            return grad / gn, gn

        return normal

    def tangent_part(self, y, X):
        """X minus its component along the unit normal at y, rowwise."""
        return _tangent_part(X, self.unit_normal(y))

    @cached_property
    def _tangent_curvature(self):
        """(y, X) -> (c, n) over stacked rows, with A_y(X_t, X_t) = -c n,
        X_t the tangent part of X at y and n the unit normal at y: the
        tension field's curvature term, and the package's only one.

        c = <X_t, 2 X_t / a^2> / |grad G| is the level set's second
        fundamental form, with grad G = 2 y / a^2. The 2s cancel against
        gn = |y / a^2| = |grad G| / 2, so c is <X_t, X_t / a^2> / gn.
        """
        normal = self._normal
        a2 = None if self.kind == "sphere" else self._a2

        def tangent_curvature(y, X):
            n, gn = normal(y)
            Xt = _tangent_part(X, n)
            return np.add.reduce(Xt * (Xt if a2 is None else Xt / a2), -1, keepdims=True) / gn, n

        return tangent_curvature

    # -- nearest-point projection ------------------------------------------

    def project_nearest(self, x):
        """Nearest point on the target; accepts a point or an (n, p) stack."""
        return self._nearest(x)[0]

    @cached_property
    def _nearest(self):
        """x -> (y, d): project_nearest's point y and the denominator d of x
        that _tube returns, for callers that go on to _differential."""
        dim = self.ambient_dim
        tube = self._tube
        a2 = None if self.kind == "sphere" else self._a2

        def nearest(x):
            x = np.asarray(x, dtype=float)
            if x.shape[-1] != dim:
                raise ValueError(f"point has dimension {x.shape[-1]}, target lives in R^{dim}")
            inside, d = tube(x)
            if not inside:
                raise ValueError("point outside the tube neighborhood of the target")
            return (x if a2 is None else a2 * x) / d, d

        return nearest

    def _multiplier(self, ax2, edge):
        """Lagrange multiplier t of every row, shape ax2.shape[:-1] + (1,),
        from the rows' a^2 x^2 and the tube check's edge e.

        The root of g(t) = sum a^2 x^2 / (a^2 + t)^2 - 1, convex and
        strictly decreasing on (-min a^2, inf); _tube has shown g(-e) > 0 >
        g(e). From either side of the root, a Newton step of a convex
        decreasing g lands at or left of it and then climbs to it
        monotonically, so clipping the step at -e is the only safeguard.
        """
        a2 = self._a2
        t = np.zeros(ax2.shape[:-1] + (1,))
        for _ in range(_PROJ_MAX_ITER):
            s = a2 + t
            q = ax2 / (s * s)
            g = np.add.reduce(q, -1, keepdims=True) - 1.0
            if abs(g).max() <= _PROJ_TOL:
                return t
            t = np.maximum(t + g / (2.0 * np.add.reduce(q / s, -1, keepdims=True)), -edge)
        raise RuntimeError(
            f"ellipsoid projection did not converge: residual {float(np.max(np.abs(g))):.3e}"
        )

    # -- differential of projection ----------------------------------------

    def differential_of_projection(self, x, v):
        """d Pi_x(v), the derivative of nearest-point projection at x.

        Accepts a point or an (n, p) stack with matching v. The matrix is
        symmetric, so this also applies its transpose.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        inside, d = self._tube(x)
        if not inside:
            raise ValueError("base point outside the tube neighborhood")
        return self._differential(x, v, d)

    def _differential(self, x, v, d):
        """differential_of_projection without the tube check, for callers
        that have just checked x; d is the denominator of x that _tube
        returned (|x| on a sphere)."""
        if self.kind == "sphere":
            return _tangent_part(v, x / d) / d
        # Differentiating y = a^2 x / d along the constraint G(y) = 0 gives
        # dPi(v) = a^2 v / d - w <w, v> / <w, x / d>, w = a^2 x / d^2.
        a2 = self._a2
        w = a2 * x / (d * d)
        dt = np.sum(w * v, axis=-1, keepdims=True) / np.sum(w * x / d, axis=-1, keepdims=True)
        return a2 * v / d - dt * w

    def _differential_jet(self, x, g, d):
        """H_x(g), the derivative of x -> dPi_x(g) with g held fixed, as an
        (n, p, p) stack for (n, p) rows x and g; d is the denominator of x
        that _tube returned.

        One formula serves both kinds. With d = a^2 + t (a^2 = 1 on a
        sphere), w = a^2 x / d^2 and beta = <w, x / d>, implicit
        differentiation of the multiplier's equation gives grad t = w / beta
        and dPi = diag(a^2 / d) - w w^T / beta, which _differential applies;
        differentiating dPi g along v, with <grad t, v> entering d, beta and
        w, gives H. H is symmetric because Pi is the gradient of
        (|x|^2 - dist(x)^2) / 2.
        """
        a2 = self._a2
        w = a2 * x / (d * d)
        wd = w / d
        beta = np.add.reduce(wd * x, -1)[:, None, None]
        gamma = np.add.reduce(wd * x / d, -1)[:, None, None]
        c = np.add.reduce(w * g, -1)[:, None, None]
        cg = np.add.reduce(wd * g, -1)[:, None, None]
        u = a2 * g / (d * d)
        eye = np.eye(x.shape[-1])
        ww = w[:, :, None] * w[:, None, :]
        uw = u[:, :, None] * w[:, None, :]
        wdw = wd[:, :, None] * w[:, None, :]
        return (
            -(uw + uw.transpose(0, 2, 1)) / beta
            - (c / beta) * eye * (a2 / (d * d))[:, None, :]
            + (2.0 * c / beta**2) * (wdw + wdw.transpose(0, 2, 1))
            + (2.0 * cg / beta**2 - 3.0 * c * gamma / beta**3) * ww
        )

    # -- tangent projector -------------------------------------------------

    def tangent_projector(self, y):
        """Orthogonal projectors onto T_y N at points y on the manifold,
        (p, p) for one point or (n, p, p) for an (n, p) stack. The unit
        normal's norm is sqrt(n @ n), np.linalg.norm's BLAS dot."""
        y = np.asarray(y, dtype=float)
        self.require_on_manifold(y, what="projector base point")
        n = (y / self.semi_axes**2)[..., None, :]
        n = n / np.sqrt(n @ n.swapaxes(-1, -2))
        return np.eye(self.ambient_dim) - n.swapaxes(-1, -2) * n


def _tangent_part(X, n):
    """X minus its component along the unit vectors n, rowwise."""
    return X - np.add.reduce(X * n, -1, keepdims=True) * n
