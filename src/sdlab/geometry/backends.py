"""Chart-based metric backends for the built-in four-manifolds.

Every backend evaluates its metric on batches of chart points (shape
(n, 4) -> (n, 4, 4)); all higher geometry is finite differences on top of
these evaluations, so the metric functions are kept branch-free and
vectorized.  Each writes one contiguous row per component
(`_component_rows`) and returns the (n, 4, 4) view of those rows, which
the curvature kernel reads back as rows.  `chart_scales` gives the
kernel, in one pass, each point's step scale and its clearance from the
chart's excluded set (poles, Taub-NUT centres and Dirac strings).

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
  z < z_a}; it and the centers themselves are the excluded set.  The
  strings are pure gauge: a backend is built with every string down, and
  only `facing_away` makes a copy with some strings up; `gauges` sorts
  an integral's nodes by the copy facing away from each.  The fiber
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
ALF backends (``alf = True``) add a chart point's ``radius``, capped like
rho and the cutoff, its exact gradient and Hessian, and the truncation
surface radius = rho that ``boundary`` works on: one level function.
Each also states its ``topology``, the descriptor data the geometry fixes.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .. import _lazy
from ..errors import AccuracyError, DescriptorError, DomainError
from . import quadrature as quad

np = _lazy("numpy")

# half-separation below which `MultiTaubNut.reduction` merges two centres
# into one of charge 2, and below which `topology` calls them coincident
_COINCIDENT = 1e-9
# half-separation over mass below which the mass-graded mesh misses a pair
_CLOSE = 3e-3


def _component_rows(n: int):
    """A zeroed (16, n) buffer whose row 4i + j holds g_ij at n points, and
    the (n, 4, 4) view of it that `metric` returns: each component is one
    contiguous row write."""
    rows = np.zeros((16, n))
    return rows, rows.T.reshape(n, 4, 4)


def _check_lengths(lengths, coords=()) -> None:
    """Each length in [1e-30, 1e30] and each coordinate within 1e30, else
    `length-range`: the invariants scale as L^-4 and the volumes as L^4."""
    if not (all(1e-30 <= v <= 1e30 for v in lengths)
            and all(abs(c) <= 1e30 for c in coords)):
        raise DescriptorError(
            "length-range", f"lengths {tuple(lengths)} must lie in [1e-30, "
            f"1e30] and coordinates {tuple(coords)} within 1e30")


class Segment(namedtuple("Segment", "edges order embed backend")):
    """One piece of a symmetry-reduced volume integral.

    `edges` holds the panel edges of each axis of a tensor-product mesh
    and `order` the Gauss order per panel.
    `embed` maps the flattened mesh coordinates, one array per axis, to
    chart points (n, 4) of `backend` and the reduced volume weight (n,).
    """

    __slots__ = ()


def _hashable(value):
    """`value` with each list or tuple in it a tuple, all the way down."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_hashable, value))
    return value


class GeometryBackend:
    """Common backend interface; subclasses fill in the metric, the chart
    scales and the symmetry reduction.

    A backend is immutable once its constructor returns.  Two backends are
    equal, and hash alike, when they are of one class with equal `params`,
    the identity that their cache keys use."""

    id: str = ""
    # ChartError slug for points too near the chart's excluded set
    excluded = ""
    # infinite volume truncated at a cutoff, with a truncation boundary
    alf = False
    # chart coordinates the metric never reads; derivatives along them vanish
    cyclic_axes: tuple[int, ...] = ()
    # the `ManifoldDescriptor` fields the geometry fixes, as plain data
    topology: dict

    @property
    def params(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.params == other.params

    def __hash__(self):
        return hash((type(self), _hashable(list(self.params.items()))))

    def __setattr__(self, name, _value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name}")

    __delattr__ = __setattr__

    def metric(self, x: np.ndarray) -> np.ndarray:
        """Batch metric, (n, 4) -> (n, 4, 4), positive definite and
        exactly symmetric: the view `_component_rows` returns."""
        raise NotImplementedError

    def chart_scales(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(step_scale, clearance) at (n, 4) points, in one pass: the scale
        of which finite-difference steps are a small fraction, and the
        coordinate distance to the excluded set (inf if there is none)."""
        raise NotImplementedError

    def geometry_scale(self) -> float:
        """Single length scale used by cutoff preconditions; only ALF
        backends define it, as compact ones have no cutoff."""
        raise NotImplementedError

    def facing_away(self, x) -> "GeometryBackend":
        """This metric in the gauge whose artifacts lie farthest from x."""
        return self

    def gauges(self, x: np.ndarray) -> list:
        """(copy, rows) pairs that cover the (n, 4) points x: each copy is
        the `facing_away` of every point in its rows, a slice or indices."""
        return [(self, slice(None))]

    def reduction(self, resolution: int, cutoff: float | None):
        """Symmetry reduction of the volume integral: (segments, tail_at).

        `resolution` scales every panel count.  ALF backends integrate up
        to `cutoff` and return the first-axis coordinate `tail_at` of the
        last segment where a fitted power-law tail takes over; compact
        backends return None.
        """
        raise NotImplementedError


class FlatTorus(GeometryBackend):
    id = "flat-torus"
    cyclic_axes = (0, 1, 2, 3)
    # T^4: b1 = 4, and the Hodge star splits b2 = 6 into 3 + 3
    topology = {"kind": "compact", "b0": 1, "b1": 4, "bplus_l2": 3,
                "bminus_l2": 3}

    def __init__(self, radii=(1.0, 1.0, 1.0, 1.0)):
        if len(radii) != 4:
            raise DescriptorError("radii-shape", f"need 4 radii: {radii}")
        if any(not r > 0 for r in radii):
            raise DescriptorError("radii-positive", f"torus radii {radii}")
        _check_lengths(radii)
        self.__dict__["radii"] = radii

    @property
    def params(self) -> dict:
        return {"radii": list(self.radii)}

    def metric(self, x: np.ndarray) -> np.ndarray:
        rows, g = _component_rows(np.atleast_2d(x).shape[0])
        for i, r in enumerate(self.radii):
            rows[5 * i] = r * r
        return g

    def chart_scales(self, x: np.ndarray):
        n = np.atleast_2d(x).shape[0]
        return np.full(n, 1.0), np.full(n, np.inf)  # periodic, nothing excluded

    def volume(self) -> float:
        return (2 * math.pi) ** 4 * math.prod(self.radii)

    def reduction(self, resolution: int, cutoff: float | None):
        # homogeneous: one Gauss node of weight 1 on [0, 1] has the volume
        def embed(s):
            return np.full((len(s), 4), 0.25), np.full(len(s), self.volume())
        return [Segment(((0.0, 1.0),), 1, embed, self)], None


class RoundS4(GeometryBackend):
    id = "round-s4"
    excluded = "pole-excluded"
    topology = {"kind": "compact", "b0": 1, "b1": 0, "bplus_l2": 0,
                "bminus_l2": 0}

    def __init__(self, a: float = 1.0):
        if not a > 0:
            raise DescriptorError("radius-positive", f"sphere radius {a}")
        _check_lengths((a,))
        self.__dict__["a"] = a

    @property
    def params(self) -> dict:
        return {"a": self.a}

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        a2 = self.a * self.a
        s_chi = np.sin(x[:, 0]) ** 2
        s_th = np.sin(x[:, 1]) ** 2
        s_ph = np.sin(x[:, 2]) ** 2
        rows, g = _component_rows(x.shape[0])
        rows[0] = a2
        rows[5] = a2 * s_chi
        rows[10] = a2 * s_chi * s_th
        rows[15] = a2 * s_chi * s_th * s_ph
        return g

    def chart_scales(self, x: np.ndarray):
        x = np.atleast_2d(x)
        dist = np.minimum.reduce([np.sin(x[:, 0]), np.sin(x[:, 1]), np.sin(x[:, 2])])
        polar = x[:, :3]  # chi, theta and phi, with poles at 0 and pi
        return (np.clip(np.abs(dist), 1e-12, None),
                np.min(np.minimum(polar, math.pi - polar), axis=1))

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


class MultiTaubNut(GeometryBackend):
    id = "multi-taub-nut"
    excluded = "string-excluded"
    alf = True
    cyclic_axes = (3,)

    def __init__(self, mass: float = 0.5, centers=((0.0, 0.0, 0.0),)):
        if not mass > 0:
            raise DescriptorError("mass-positive", f"NUT mass {mass}")
        if not centers:
            raise DescriptorError("centers-nonempty", "need at least one center")
        if any(len(c) != 3 for c in centers):
            raise DescriptorError("centers-shape", "need 3 coordinates per center")
        _check_lengths((mass,), [x for c in centers for x in c])
        # string_signs: +1 hangs a Dirac string below its centre, -1 above;
        # a pure gauge, all +1 but on the copies that `facing_away` makes
        self.__dict__.update(mass=mass, centers=centers,
                             string_signs=(1,) * len(centers))

    @property
    def topology(self) -> dict:
        # b-_L2 = n (Hausel, Hunsicker and Mazzeo, Duke Math. J. 122, 2004);
        # the neck, a lens space, has H^1 = 0.  Coincident centres make an
        # orbifold point, which no integer descriptor states; so do centres
        # closer than `reduction` tells apart
        n = len(self.centers)
        if any(math.dist(p, q) < 2 * _COINCIDENT for i, p in
               enumerate(self.centers) for q in self.centers[:i]):
            raise DescriptorError("centers-coincident",
                                  f"centers {self.centers}: an orbifold point")
        return {"kind": "alf", "b0": 1, "b1": 0, "bplus_l2": 0,
                "bminus_l2": n, "b0_D": "derive", "b1_D": "derive",
                "h1_neck_trivial": True}

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
        rows, g = _component_rows(x.shape[0])
        inv_v = 1.0 / V
        rows[0] = V + wx * wx * inv_v
        rows[5] = V + wy * wy * inv_v
        rows[10] = V
        rows[1] = rows[4] = wx * wy * inv_v
        rows[3] = rows[12] = wx * inv_v
        rows[7] = rows[13] = wy * inv_v
        rows[15] = inv_v
        return g

    def facing_away(self, x) -> "MultiTaubNut":
        """The copy whose strings all point away from chart point x (its z
        decides): down from each centre at or below it, up from each centre
        above it, so that the nearest excluded point is a centre."""
        nut = MultiTaubNut(self.mass, self.centers)
        object.__setattr__(nut, "string_signs", tuple(
            1 if x[2] >= c[2] else -1 for c in self.centers))
        return nut

    def gauges(self, x: np.ndarray) -> list:
        # a point's gauge is fixed by how many centres lie at or below it
        below = sum(x[:, 2] >= c[2] for c in self.centers)
        groups = (np.flatnonzero(below == k)
                  for k in range(len(self.centers) + 1))
        return [(self.facing_away(x[rows[0]]), rows) for rows in groups
                if len(rows)]

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

    def chart_scales(self, x: np.ndarray):
        d = self._excluded_distance(x)
        return np.minimum(0.25 * d, 2.0 * self.mass), d

    def geometry_scale(self) -> float:
        # the spread of the centres about their centroid, the point the
        # truncation surface is centred on, so translation changes nothing
        return self.mass + max(map(self.radius, self.centers))

    def centroid(self) -> tuple[float, ...]:
        """The mean of the centres, on which the truncation sphere sits."""
        return tuple(sum(v) / len(self.centers) for v in zip(*self.centers))

    def radius(self, x) -> float:
        """Distance of a chart point from the centroid of the centres: the
        level function of `truncation_surface`."""
        return math.dist(x[:3], self.centroid())

    def _on_axis(self) -> None:
        """Axisymmetric reductions need the centers on one vertical axis."""
        c = np.asarray(self.centers, dtype=float)
        if np.ptp(c[:, 0]) > 1e-12 or np.ptp(c[:, 1]) > 1e-12:
            raise DomainError("reduction-needs-axis",
                              "axisymmetric reduction needs centers on a "
                              "shared vertical axis")

    def reduction(self, resolution: int, cutoff: float | None):
        if len(self.centers) == 1:
            return self._radial(resolution, cutoff, self.centers[0], 1)
        if len(self.centers) != 2:
            raise DomainError("reduction-unsupported",
                              "no symmetry reduction beyond 2 centers")
        self._on_axis()
        (x0, y0, z0), (x1, y1, z1) = self.centers
        zc = 0.5 * (z0 + z1)
        c = 0.5 * abs(z0 - z1)
        if c < _COINCIDENT:
            return self._radial(resolution, cutoff, (x0, y0, zc), 2)
        m = self.mass
        if c < _CLOSE * m:
            raise AccuracyError("centers-too-close", f"half-separation {c:g} "
                                f"below {_CLOSE:g} x the mass {m:g}")
        fiber = self.fiber_period()
        # the ball R <= 2c about the centroid, in prolate spheroidal
        # coordinates with foci at the centres: with r_lo and r_up the
        # distances from the lower and the upper one, sigma = (r_lo +
        # r_up)/2c and tau = (r_lo - r_up)/2c, so that both are linear,
        # c(sigma -+ tau), and the integrand is smooth up to the centres,
        # which lie on the mesh's edges.  sigma runs from 1 to the sphere
        # R = 2c, sigma_max(tau) = sqrt(5 - tau^2), as 1 + s (sigma_max - 1)
        def ball(s, tau):
            span = np.sqrt(5.0 - tau * tau) - 1.0
            sigma = 1.0 + s * span
            rho = c * np.sqrt((sigma * sigma - 1.0) * (1.0 - tau * tau))
            pts = np.stack([x0 + rho, np.full_like(rho, y0),
                            zc + c * sigma * tau,
                            np.full_like(rho, 0.25 * fiber)], axis=1)
            # V dvol = (c^3 (sigma^2 - tau^2) + 2 m c^2 sigma) dsigma dtau dphi
            vol = c ** 3 * (sigma * sigma - tau * tau) + 2.0 * m * c * c * sigma
            return pts, 2.0 * fiber * 2.0 * math.pi * vol * span

        # the shell 2c <= R <= cutoff, polar about the centroid in the
        # phi = 0 half-plane, upper half doubled
        def shell(rho, theta):
            st, ct = np.sin(theta), np.cos(theta)
            pts = np.stack([x0 + rho * st, np.full_like(rho, y0),
                            zc + rho * ct,
                            np.full_like(rho, 0.25 * fiber)], axis=1)
            d0 = np.sqrt(rho * rho + c * c - 2.0 * rho * c * ct)
            d1 = np.sqrt(rho * rho + c * c + 2.0 * rho * c * ct)
            V = 1.0 + m / d0 + m / d1
            return pts, 2.0 * fiber * 2.0 * math.pi * V * rho * rho * st

        # tau in [0, 1] is the upper half, doubled; both ball axes are graded
        # toward the upper centre's corner s = 0, tau = 1
        panels = -(-3 * resolution // 2)
        corner = 0.3 * m / c
        return [Segment((quad.graded_edges(0.0, 1.0, panels, corner),
                         quad.graded_edges(1.0, 0.0, panels, corner)),
                        8, ball, self),
                Segment((quad.graded_edges(2.0 * c, cutoff, panels, c),
                         quad.uniform_edges(0.0, 0.5 * math.pi, resolution)),
                        8, shell, self)], cutoff

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
        """The sphere `radius` = rho about the centroid of the centers, at
        polar angles `theta` in the phi = 0 half-plane.

        Returns the points (n, 4), the tangents d(point)/d(theta, phi, t)
        (n, 4, 3) and the product of the two symmetry-circle lengths.
        """
        self._on_axis()
        c = self.centroid()
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

    def radius_derivatives(self, x: np.ndarray):
        """Chart gradient (n, 4) and Hessian (n, 4, 4) of `radius` at (n, 4)
        points: e = (x - c)/r and (I - e e^T)/r on the spatial block."""
        rel = x[:, :3] - np.asarray(self.centroid())
        r = np.linalg.norm(rel, axis=1)[:, None, None]
        unit = rel / r[:, 0]
        grad, hess = np.zeros_like(x), np.zeros((len(x), 4, 4))
        grad[:, :3] = unit
        hess[:, :3, :3] = (np.eye(3) - unit[:, :, None] * unit[:, None]) / r
        return grad, hess


class Schwarzschild(GeometryBackend):
    id = "schwarzschild"
    excluded = "pole-excluded"
    cyclic_axes = (3,)
    alf = True
    # b+-_L2 = 1 (Etesi and Hausel, J. Geom. Phys. 37, 2001); the neck
    # S^2 x S^1 has H^1 = Z, so `derive` cannot give b1_D
    topology = {"kind": "alf", "b0": 1, "b1": 0, "bplus_l2": 1,
                "bminus_l2": 1, "b0_D": "derive", "b1_D": "derive",
                "h1_neck_trivial": False}

    def __init__(self, mass: float = 1.0):
        if not mass > 0:
            raise DescriptorError("mass-positive", f"mass {mass}")
        _check_lengths((mass,))
        self.__dict__["mass"] = mass

    @property
    def params(self) -> dict:
        return {"mass": self.mass, "circle_period": 8 * math.pi * self.mass}

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        m = self.mass
        X, Y, th = x[:, 0], x[:, 1], x[:, 2]
        r = 2 * m + X * X + Y * Y
        q = 8 * m / r
        rows, g = _component_rows(x.shape[0])
        rows[0] = 8 * m + 4 * X * X - q * Y * Y
        rows[5] = 8 * m + 4 * Y * Y - q * X * X
        rows[1] = rows[4] = (4 + q) * X * Y
        rows[10] = r * r
        rows[15] = (r * np.sin(th)) ** 2
        return g

    def chart_scales(self, x: np.ndarray):
        x = np.atleast_2d(x)
        u = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
        # disc block varies on the scale sqrt(r); angular block on sin(theta)
        disc = 0.5 * np.sqrt(2 * self.mass + u * u) / (1.0 + 0.25 * u)
        pole = np.abs(np.sin(x[:, 2]))
        return np.minimum(disc, pole), np.minimum(x[:, 2], math.pi - x[:, 2])

    def geometry_scale(self) -> float:
        return 2 * self.mass

    def radius(self, x) -> float:
        """Area radius 2m + X^2 + Y^2 of a chart point: the level function
        of `truncation_surface`."""
        return 2 * self.mass + x[0] * x[0] + x[1] * x[1]

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
        """Area sphere `radius` = rho at polar angles `theta`; same returns as
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

    def radius_derivatives(self, x: np.ndarray):
        """Chart gradient (2X, 2Y, 0, 0) (n, 4) and Hessian diag(2, 2, 0, 0)
        (n, 4, 4) of `radius` at (n, 4) points."""
        grad = np.zeros_like(x)
        grad[:, :2] = 2.0 * x[:, :2]
        return grad, np.broadcast_to(np.diag([2.0, 2.0, 0.0, 0.0]),
                                     (len(x), 4, 4))

