"""Chart-based metric backends for the built-in four-manifolds.

Every backend evaluates its metric on batches of chart points (shape
(n, 4) -> (n, 4, 4)); all higher geometry is finite differences on top of
these evaluations, so the metric functions are kept branch-free and
vectorized.

Charts and conventions:

* ``flat-torus``: angles x1..x4 in [0, 2pi), metric diag(r1^2..r4^2).
* ``round-s4``: hyperspherical angles (chi, theta, phi, psi), radius a.
* ``multi-taub-nut``: Gibbons-Hawking form on (x, y, z, t_fiber),
  g = V dx.dx + V^{-1}(dt + w)^2 with V = 1 + sum_a m/|x - p_a| and the
  one-form w in the per-center string gauge
      w = sum_a m ((z - z_a)/r_a - 1) dphi_a,
  written component-wise without cancellation:
      w_x = sum_a m (y - y_a) / (r_a (r_a + z - z_a)),
      w_y = -sum_a m (x - x_a) / (r_a (r_a + z - z_a)).
  The Dirac string of center a is the downward ray {x = x_a, y = y_a,
  z < z_a}; it and the centers themselves are the excluded set.  The fiber
  period is 4 pi m (2 pi at the default m = 1/2), which makes the centers
  smooth points.
* ``schwarzschild``: global disc chart (X, Y, theta, phi) with
  u^2 = X^2 + Y^2 and area radius r = 2m + u^2:
      g = 8m (dX^2 + dY^2) + 4 (X dX + Y dY)^2
          - (8m/r) (X dY - Y dX)^2 + r^2 dOmega^2.
  The bolt r = 2m is the ordinary interior point X = Y = 0 of this chart
  (no horizon coordinate singularity anywhere); sqrt(det g) = 8 m r^2
  sin(theta), and the Killing circle has proper period 8 pi m at infinity.

Each backend also owns the geometry-specific halves of the integrals:
``reduction`` splits its volume integral into segments of a
tensor-product mesh, each with a chart embedding and a reduced volume
weight, which ``integrals.integrate_invariants`` refines and sums; the
ALF backends (``alf = True``) add the truncation surface and the
gradient of its level function that ``boundary`` works on.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .. import _lazy
from ..errors import ChartError, DescriptorError, DomainError
from . import quadrature as quad

np = _lazy("numpy")


def _check_lengths(lengths, coords=()) -> None:
    """Each length in [1e-30, 1e30] and each coordinate within 1e30, else
    `length-range`: the invariants scale as L^-4 and the volumes as L^4."""
    if not (all(1e-30 <= v <= 1e30 for v in lengths)
            and all(abs(c) <= 1e30 for c in coords)):
        raise DescriptorError(
            "length-range", f"lengths {tuple(lengths)} must lie in [1e-30, "
            f"1e30] and coordinates {tuple(coords)} within 1e30")


@dataclass(frozen=True)
class Segment:
    """One piece of a symmetry-reduced volume integral.

    `edges` holds the panel edges of each axis of a tensor-product mesh
    (no axes: a single sample) and `order` the Gauss order per panel.
    `embed` maps the flattened mesh coordinates, one array per axis, to
    chart points (n, 4) of `backend` and the reduced volume weight (n,).
    """

    edges: tuple
    order: int
    embed: Callable
    backend: "GeometryBackend"


class GeometryBackend:
    """Common backend interface; subclasses fill in the metric, the chart
    checks and the symmetry reduction."""

    id: str = ""
    # infinite volume truncated at a cutoff, with a truncation boundary
    alf = False
    # chart coordinates the metric never reads; derivatives along them vanish
    cyclic_axes: tuple[int, ...] = ()

    @property
    def params(self) -> dict:
        raise NotImplementedError

    def metric(self, x: np.ndarray) -> np.ndarray:
        """Batch metric, (n, 4) -> (n, 4, 4), positive definite."""
        raise NotImplementedError

    def fd_scale(self, x: np.ndarray) -> np.ndarray:
        """Local geometry scale at each point; finite-difference steps are
        a small fraction of this."""
        raise NotImplementedError

    def check_points(self, x: np.ndarray, margin: np.ndarray | float) -> None:
        """Raise ChartError unless a coordinate ball of radius ``margin``
        around each point stays inside the chart, off excluded sets."""
        raise NotImplementedError

    def geometry_scale(self) -> float:
        """Single length scale used by cutoff preconditions."""
        raise NotImplementedError

    def sample_points(self, count: int) -> np.ndarray:
        """Deterministic spread of interior points for pointwise checks."""
        raise NotImplementedError

    def reduction(self, resolution: int, cutoff: float | None):
        """Symmetry reduction of the volume integral: (segments, tail_at).

        `resolution` scales every panel count.  ALF backends integrate up
        to `cutoff` and return the first-axis coordinate `tail_at` of the
        last segment where a fitted power-law tail takes over; compact
        backends return None.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class FlatTorus(GeometryBackend):
    radii: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    id: str = field(default="flat-torus", init=False)
    cyclic_axes = (0, 1, 2, 3)

    def __post_init__(self):
        if len(self.radii) != 4:
            raise DescriptorError("radii-shape", f"need 4 radii: {self.radii}")
        if any(not r > 0 for r in self.radii):
            raise DescriptorError("radii-positive", f"torus radii {self.radii}")
        _check_lengths(self.radii)

    @property
    def params(self) -> dict:
        return {"radii": list(self.radii)}

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        g = np.zeros((x.shape[0], 4, 4))
        for i, r in enumerate(self.radii):
            g[:, i, i] = r * r
        return g

    def fd_scale(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.atleast_2d(x).shape[0], 1.0)

    def check_points(self, x, margin) -> None:
        return  # periodic, nothing excluded

    def geometry_scale(self) -> float:
        return max(self.radii)

    def sample_points(self, count: int) -> np.ndarray:
        t = np.arange(count, dtype=float)
        return np.stack([(0.1 + 0.61 * t) % (2 * math.pi),
                         (0.7 + 0.37 * t) % (2 * math.pi),
                         (1.3 + 0.23 * t) % (2 * math.pi),
                         (2.1 + 0.53 * t) % (2 * math.pi)], axis=1)

    def volume(self) -> float:
        return (2 * math.pi) ** 4 * math.prod(self.radii)

    def reduction(self, resolution: int, cutoff: float | None):
        # homogeneous: one sample times the volume
        def embed():
            return np.array([[0.1, 0.2, 0.3, 0.4]]), np.array([self.volume()])
        return [Segment((), 1, embed, self)], None


@dataclass(frozen=True)
class RoundS4(GeometryBackend):
    a: float = 1.0
    id: str = field(default="round-s4", init=False)

    def __post_init__(self):
        if not self.a > 0:
            raise DescriptorError("radius-positive", f"sphere radius {self.a}")
        _check_lengths((self.a,))

    @property
    def params(self) -> dict:
        return {"a": self.a}

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        a2 = self.a * self.a
        s_chi = np.sin(x[:, 0]) ** 2
        s_th = np.sin(x[:, 1]) ** 2
        s_ph = np.sin(x[:, 2]) ** 2
        g = np.zeros((x.shape[0], 4, 4))
        g[:, 0, 0] = a2
        g[:, 1, 1] = a2 * s_chi
        g[:, 2, 2] = a2 * s_chi * s_th
        g[:, 3, 3] = a2 * s_chi * s_th * s_ph
        return g

    def fd_scale(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        dist = np.minimum.reduce([np.sin(x[:, 0]), np.sin(x[:, 1]), np.sin(x[:, 2])])
        return np.clip(np.abs(dist), 1e-12, None)

    def check_points(self, x, margin) -> None:
        x = np.atleast_2d(x)
        margin = np.broadcast_to(np.asarray(margin, dtype=float), (x.shape[0],))
        for name, col in (("chi", 0), ("theta", 1), ("phi", 2)):
            low = x[:, col] - margin
            high = x[:, col] + margin
            if np.any(low <= 0) or np.any(high >= math.pi):
                raise ChartError("pole-excluded",
                                 f"{name} within {np.max(margin):.2e} of a pole")

    def geometry_scale(self) -> float:
        return self.a

    def sample_points(self, count: int) -> np.ndarray:
        t = np.arange(count, dtype=float)
        lo, hi = 0.4, math.pi - 0.4
        span = hi - lo
        return np.stack([lo + (0.17 + 0.61 * t) % 1.0 * span,
                         lo + (0.39 + 0.37 * t) % 1.0 * span,
                         lo + (0.71 + 0.23 * t) % 1.0 * span,
                         (0.5 + 0.53 * t) % (2 * math.pi)], axis=1)

    def reduction(self, resolution: int, cutoff: float | None):
        # isotropic about the pole: invariants depend on chi alone
        a = self.a

        def embed(chi):
            pts = np.stack([chi, np.full_like(chi, 1.1),
                            np.full_like(chi, 0.9), np.full_like(chi, 2.3)],
                           axis=1)
            return pts, 2.0 * math.pi ** 2 * a ** 4 * np.sin(chi) ** 3

        edges = quad.uniform_edges(0.0, math.pi, 3 * resolution)
        return [Segment((edges,), 10, embed, self)], None


@dataclass(frozen=True)
class MultiTaubNut(GeometryBackend):
    mass: float = 0.5
    centers: tuple[tuple[float, float, float], ...] = ((0.0, 0.0, 0.0),)
    # +1 hangs the Dirac string below the centre, -1 above; a per-centre gauge
    # choice that moves the coordinate artifact away from quadrature regions
    string_signs: tuple[int, ...] | None = None
    id: str = field(default="multi-taub-nut", init=False)
    alf = True
    cyclic_axes = (3,)

    def __post_init__(self):
        if not self.mass > 0:
            raise DescriptorError("mass-positive", f"NUT mass {self.mass}")
        if not self.centers:
            raise DescriptorError("centers-nonempty", "need at least one center")
        if any(len(c) != 3 for c in self.centers):
            raise DescriptorError("centers-shape", "need 3 coordinates per center")
        _check_lengths((self.mass,), [x for c in self.centers for x in c])
        if self.string_signs is None:
            object.__setattr__(self, "string_signs", (1,) * len(self.centers))
        if len(self.string_signs) != len(self.centers):
            raise DescriptorError("string-signs-shape",
                                  "need one string sign per center")
        if any(s not in (-1, 1) for s in self.string_signs):
            raise DescriptorError("string-signs-values", "signs must be +1 or -1")

    @property
    def params(self) -> dict:
        return {"mass": self.mass, "centers": [list(c) for c in self.centers],
                "fiber_period": self.fiber_period(),
                "string_signs": list(self.string_signs)}

    def fiber_period(self) -> float:
        return 4 * math.pi * self.mass

    def _potential_and_oneform(self, x: np.ndarray):
        x = np.atleast_2d(x)
        V = np.ones(x.shape[0])
        wx = np.zeros(x.shape[0])
        wy = np.zeros(x.shape[0])
        for (cx, cy, cz), s in zip(self.centers, self.string_signs):
            dx = x[:, 0] - cx
            dy = x[:, 1] - cy
            dz = x[:, 2] - cz
            r = np.sqrt(dx * dx + dy * dy + dz * dz)
            V += self.mass / r
            denom = r * (r + s * dz)  # vanishes only on the string ray
            wx += s * self.mass * dy / denom
            wy += -s * self.mass * dx / denom
        return V, wx, wy

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        V, wx, wy = self._potential_and_oneform(x)
        g = np.zeros((x.shape[0], 4, 4))
        inv_v = 1.0 / V
        g[:, 0, 0] = V + wx * wx * inv_v
        g[:, 1, 1] = V + wy * wy * inv_v
        g[:, 2, 2] = V
        g[:, 0, 1] = g[:, 1, 0] = wx * wy * inv_v
        g[:, 0, 3] = g[:, 3, 0] = wx * inv_v
        g[:, 1, 3] = g[:, 3, 1] = wy * inv_v
        g[:, 3, 3] = inv_v
        return g

    def _excluded_distance(self, x: np.ndarray) -> np.ndarray:
        """Distance (chart euclidean, 3-space) to centers and string rays."""
        x = np.atleast_2d(x)
        d = np.full(x.shape[0], np.inf)
        for (cx, cy, cz), s in zip(self.centers, self.string_signs):
            dx = x[:, 0] - cx
            dy = x[:, 1] - cy
            dz = x[:, 2] - cz
            rho = np.sqrt(dx * dx + dy * dy)
            r = np.sqrt(rho * rho + dz * dz)
            # on the string side of the center the nearest excluded point is
            # the ray itself, on the other side it is the center
            d = np.minimum(d, np.where(s * dz >= 0, r, rho))
        return d

    def fd_scale(self, x: np.ndarray) -> np.ndarray:
        d = self._excluded_distance(x)
        return np.minimum(0.25 * d, 2.0 * self.mass)

    def check_points(self, x, margin) -> None:
        x = np.atleast_2d(x)
        margin = np.broadcast_to(np.asarray(margin, dtype=float), (x.shape[0],))
        d = self._excluded_distance(x)
        if np.any(d <= margin):
            worst = float(np.min(d))
            raise ChartError("string-excluded",
                             f"point within {worst:.3e} of a center or Dirac string")

    def geometry_scale(self) -> float:
        # the spread of the centres about their centroid, the point the
        # truncation surface is centred on, so translation changes nothing
        c = [sum(x) / len(self.centers) for x in zip(*self.centers)]
        reach = max(math.dist(p, c) for p in self.centers)
        return self.mass + reach

    def sample_points(self, count: int) -> np.ndarray:
        t = np.arange(count, dtype=float)
        scale = self.geometry_scale()
        r = scale * (0.6 + 8.0 * ((0.13 + 0.61 * t) % 1.0))
        th = 0.35 + (math.pi - 0.7) * ((0.29 + 0.37 * t) % 1.0)
        ph = 2 * math.pi * ((0.41 + 0.23 * t) % 1.0)
        pts = np.stack([r * np.sin(th) * np.cos(ph),
                        r * np.sin(th) * np.sin(ph),
                        r * np.cos(th),
                        np.full(count, 0.3)], axis=1)
        return pts

    def _on_axis(self) -> np.ndarray:
        """Centers as an (n, 3) array; the axisymmetric reductions need
        them on one vertical axis."""
        c = np.asarray(self.centers, dtype=float)
        if np.ptp(c[:, 0]) > 1e-12 or np.ptp(c[:, 1]) > 1e-12:
            raise DomainError("reduction-needs-axis",
                              "axisymmetric reduction needs centers on a "
                              "shared vertical axis")
        return c

    def reduction(self, resolution: int, cutoff: float | None):
        if len(self.centers) == 1:
            return self._radial(resolution, cutoff,
                                np.asarray(self.centers[0], dtype=float), 1)
        if len(self.centers) != 2:
            raise DomainError("reduction-unsupported",
                              "no symmetry reduction beyond 2 centers")
        self._on_axis()
        (x0, y0, z0), (x1, y1, z1) = self.centers
        zc = 0.5 * (z0 + z1)
        c = 0.5 * abs(z0 - z1)
        if c < 1e-9:
            return self._radial(resolution, cutoff, np.array([x0, y0, zc]), 2)
        m = self.mass
        fiber = self.fiber_period()
        # the invariants do not depend on the string gauge, so each segment
        # samples a copy in a gauge whose strings miss it: the outer one
        # with both strings down, the inner one with the upper string up
        iu = 0 if z0 > z1 else 1
        near = MultiTaubNut(m, self.centers,
                            tuple(-1 if i == iu else 1 for i in range(2)))
        far = MultiTaubNut(m, self.centers)

        def embed(rho, theta):
            # polar grid in the phi = 0 half-plane, upper half doubled
            st, ct = np.sin(theta), np.cos(theta)
            pts = np.stack([x0 + rho * st, np.full_like(rho, y0),
                            zc + rho * ct,
                            np.full_like(rho, 0.25 * fiber)], axis=1)
            d0 = np.sqrt(rho * rho + c * c - 2.0 * rho * c * ct)
            d1 = np.sqrt(rho * rho + c * c + 2.0 * rho * c * ct)
            V = 1.0 + m / d0 + m / d1
            return pts, 2.0 * fiber * 2.0 * math.pi * V * rho * rho * st

        theta_edges = quad.graded_edges(0.0, 0.5 * math.pi, 2 * resolution,
                                        first_width=0.02)
        inner = quad.graded_edges(c, 0.0, 2 * resolution, first_width=m / 10.0)
        outer = quad.graded_edges(c, cutoff, 3 * resolution,
                                  first_width=m / 10.0)
        return [Segment((inner, theta_edges), 8, embed, near),
                Segment((outer, theta_edges), 8, embed, far)], cutoff

    def _radial(self, resolution, cutoff, center, charge):
        # all charge at one center: spherically symmetric about it
        m = self.mass
        fiber = self.fiber_period()

        def embed(r):
            pts = np.stack([center[0] + r, np.full_like(r, center[1]),
                            np.full_like(r, center[2]),
                            np.full_like(r, 0.25 * fiber)], axis=1)
            V = 1.0 + charge * m / r
            return pts, fiber * 4.0 * math.pi * V * r * r

        edges = quad.graded_edges(0.0, cutoff, 3 * resolution,
                                  first_width=m / 6.0)
        return [Segment((edges,), 8, embed, self)], cutoff

    def truncation_surface(self, rho: float, theta: np.ndarray):
        """Coordinate sphere of radius rho about the centroid of the
        centers at polar angles `theta` in the phi = 0 half-plane.

        Returns the points (n, 4), the tangents d(point)/d(theta, phi, t)
        (n, 4, 3) and the product of the two symmetry-circle lengths.
        """
        c = self._on_axis().mean(axis=0)
        n = len(theta)
        st, ct = np.sin(theta), np.cos(theta)
        pts = np.stack([c[0] + rho * st, np.full(n, c[1]), c[2] + rho * ct,
                        np.full(n, 0.25 * self.fiber_period())], axis=1)
        jac = np.zeros((n, 4, 3))
        jac[:, 0, 0] = rho * ct          # d/dtheta
        jac[:, 2, 0] = -rho * st
        jac[:, 1, 1] = rho * st          # d/dphi at phi = 0
        jac[:, 3, 2] = 1.0               # d/dt
        return pts, jac, 2.0 * math.pi * self.fiber_period()

    def level_gradient(self, x: np.ndarray) -> np.ndarray:
        """Chart gradient of the truncation level function, the distance
        from the centroid of the centers."""
        c = np.asarray(self.centers, dtype=float).mean(axis=0)
        rel = x[:, :3] - c[None, :]
        r = np.linalg.norm(rel, axis=1)
        out = np.zeros_like(x)
        out[:, :3] = rel / r[:, None]
        return out


@dataclass(frozen=True)
class Schwarzschild(GeometryBackend):
    mass: float = 1.0
    id: str = field(default="schwarzschild", init=False)
    cyclic_axes = (3,)
    alf = True

    def __post_init__(self):
        if not self.mass > 0:
            raise DescriptorError("mass-positive", f"mass {self.mass}")
        _check_lengths((self.mass,))

    @property
    def params(self) -> dict:
        return {"mass": self.mass, "circle_period": 8 * math.pi * self.mass}

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        m = self.mass
        X, Y, th = x[:, 0], x[:, 1], x[:, 2]
        r = 2 * m + X * X + Y * Y
        q = 8 * m / r
        g = np.zeros((x.shape[0], 4, 4))
        g[:, 0, 0] = 8 * m + 4 * X * X - q * Y * Y
        g[:, 1, 1] = 8 * m + 4 * Y * Y - q * X * X
        g[:, 0, 1] = g[:, 1, 0] = (4 + q) * X * Y
        g[:, 2, 2] = r * r
        g[:, 3, 3] = (r * np.sin(th)) ** 2
        return g

    def fd_scale(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        u = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
        # disc block varies on the scale sqrt(r); angular block on sin(theta)
        disc = 0.5 * np.sqrt(2 * self.mass + u * u) / (1.0 + 0.25 * u)
        pole = np.abs(np.sin(x[:, 2]))
        return np.minimum(disc, pole)

    def check_points(self, x, margin) -> None:
        x = np.atleast_2d(x)
        margin = np.broadcast_to(np.asarray(margin, dtype=float), (x.shape[0],))
        low = x[:, 2] - margin
        high = x[:, 2] + margin
        if np.any(low <= 0) or np.any(high >= math.pi):
            raise ChartError("pole-excluded",
                             f"theta within {np.max(margin):.2e} of a pole")

    def geometry_scale(self) -> float:
        return 2 * self.mass

    def sample_points(self, count: int) -> np.ndarray:
        t = np.arange(count, dtype=float)
        u = math.sqrt(self.mass) * (0.0 + 2.2 * ((0.07 + 0.61 * t) % 1.0))
        ang = 2 * math.pi * ((0.23 + 0.37 * t) % 1.0)
        th = 0.5 + (math.pi - 1.0) * ((0.47 + 0.23 * t) % 1.0)
        ph = 2 * math.pi * ((0.11 + 0.53 * t) % 1.0)
        return np.stack([u * np.cos(ang), u * np.sin(ang), th, ph], axis=1)

    def reduction(self, resolution: int, cutoff: float | None):
        # spherically symmetric and rotation-invariant in the disc: the
        # radial coordinate u = |(X, Y)| carries everything
        m = self.mass
        u_max = math.sqrt(cutoff - 2.0 * m)

        def embed(u):
            pts = np.stack([u, np.zeros_like(u), np.full_like(u, 1.1),
                            np.full_like(u, 0.8)], axis=1)
            r = 2.0 * m + u * u
            return pts, 64.0 * math.pi ** 2 * m * u * r * r

        edges = quad.graded_edges(0.0, u_max, 3 * resolution,
                                  first_width=0.2 * math.sqrt(2.0 * m))
        return [Segment((edges,), 8, embed, self)], u_max

    def truncation_surface(self, rho: float, theta: np.ndarray):
        """Area sphere r = rho at polar angles `theta`; same returns as
        MultiTaubNut.truncation_surface with tangents along (theta, psi,
        phi), psi the angle of the disc."""
        u = math.sqrt(rho - 2.0 * self.mass)
        n = len(theta)
        pts = np.stack([np.full(n, u), np.zeros(n), theta, np.full(n, 0.3)],
                       axis=1)
        jac = np.zeros((n, 4, 3))
        jac[:, 2, 0] = 1.0               # d/dtheta
        jac[:, 1, 1] = u                 # d/dpsi along the disc circle at psi = 0
        jac[:, 3, 2] = 1.0               # d/dphi
        return pts, jac, (2.0 * math.pi) ** 2

    def level_gradient(self, x: np.ndarray) -> np.ndarray:
        """Chart gradient of the truncation level function u^2 = r - 2m."""
        out = np.zeros_like(x)
        out[:, 0] = 2.0 * x[:, 0]
        out[:, 1] = 2.0 * x[:, 1]
        return out

