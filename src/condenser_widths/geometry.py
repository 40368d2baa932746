"""Closed-form Green functions, capacities, and curve sampling for model condensers.

The plate E is a closed disk or a segment; D denotes the complement of E in the
extended plane.  All Green quantities are evaluated through the conformal map
``phi`` of D onto the exterior of the unit disk:

  disk(c, r):     phi(z) = (z - c) / r
  segment(a, b):  phi(z) = w + sqrt(w^2 - 1),  w = (2z - a - b) / (b - a),
                  branch chosen so |phi| >= 1 off the segment.

With that map, g(z, infinity) = log|phi(z)| and

  g(z, t) = log|1 - phi(z) * conj(phi(t))| - log|phi(z) - phi(t)|,

both clamped to 0 on E (the convention used throughout: potentials of measures
with mass on E stay well defined).  The identity

  |1 - phi_z * conj(phi_t)|^2 - |phi_z - phi_t|^2 = (|phi_z|^2 - 1)(|phi_t|^2 - 1)

turns the pair kernel into one logarithm in real arithmetic,

  g(z, t) = log1p(s_z * s_t / |phi_z - phi_t|^2) / 2,   s = |phi|^2 - 1,

and clamping s to 0 on E gives the clamp of g with no mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentPole, GeometryValidationError, UnsupportedCurve

TWO_PI = 2.0 * np.pi
# the kernel's s_z * s_t overflows once |phi| on the curve passes DBL_MAX^(1/4)
_G_INF_MAX = np.log(np.finfo(float).max) / 4.0
_ROW_BLOCK = 64  # rows of a green_matrix built at a time


def _check_finite(what: str, *numbers):
    if not all(np.isfinite(v) for v in numbers):
        raise GeometryValidationError(f"{what} must be finite")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class EDomain:
    """The plate E: a closed disk or a real segment."""

    kind: str  # "disk" or "segment"
    center: complex = 0j
    radius: float = 0.0
    a: float = 0.0
    b: float = 0.0

    @staticmethod
    def disk(center: complex, radius: float) -> "EDomain":
        if radius <= 0:
            raise GeometryValidationError("disk radius must be positive")
        _check_finite("disk center and radius", center, radius)
        return EDomain(kind="disk", center=complex(center), radius=float(radius))

    @staticmethod
    def segment(a: float, b: float) -> "EDomain":
        if not b > a:
            raise GeometryValidationError("segment requires b > a")
        _check_finite("segment endpoints", a, b)
        return EDomain(kind="segment", a=float(a), b=float(b))

    @property
    def midpoint(self) -> complex:
        """The disk center, or the segment midpoint."""
        if self.kind == "disk":
            return complex(self.center)
        return complex(0.5 * (self.a + self.b))

    def to_json_dict(self):
        if self.kind == "disk":
            return {"kind": "disk", "center": [self.center.real, self.center.imag],
                    "radius": self.radius}
        return {"kind": "segment", "a": self.a, "b": self.b}

    @staticmethod
    def from_json_dict(d) -> "EDomain":
        if d["kind"] == "disk":
            return EDomain.disk(complex(d["center"][0], d["center"][1]), d["radius"])
        if d["kind"] == "segment":
            return EDomain.segment(d["a"], d["b"])
        raise GeometryValidationError(f"unknown E domain kind {d['kind']!r}")


@dataclass(frozen=True)
class CurveSpec:
    """The outer Jordan curve, parameterized over [0, 2*pi).

    Every kind is star-shaped about its center (a circle or an ellipse is
    convex; a polar table has r > 0 at increasing angles), so it cannot
    self-intersect and contains() has a closed form.
    """

    kind: str  # "circle", "ellipse" or "polar"
    center: complex = 0j
    radius: float = 0.0
    semi_axes: tuple = (0.0, 0.0)
    rotation: float = 0.0
    polar_angles: tuple = ()
    polar_radii: tuple = ()

    @staticmethod
    def circle(center: complex, radius: float) -> "CurveSpec":
        if radius <= 0:
            raise GeometryValidationError("circle radius must be positive")
        _check_finite("circle center and radius", center, radius)
        return CurveSpec(kind="circle", center=complex(center), radius=float(radius))

    @staticmethod
    def ellipse(center: complex, semi_axes, rotation: float = 0.0) -> "CurveSpec":
        sa = (float(semi_axes[0]), float(semi_axes[1]))
        if min(sa) <= 0:
            raise GeometryValidationError("ellipse semi-axes must be positive")
        _check_finite("ellipse center, semi-axes and rotation", center, *sa, rotation)
        return CurveSpec(kind="ellipse", center=complex(center), semi_axes=sa,
                         rotation=float(rotation))

    @staticmethod
    def polar(center: complex, angles, radii) -> "CurveSpec":
        ang = tuple(float(t) for t in angles)
        rad = tuple(float(r) for r in radii)
        if len(ang) != len(rad) or len(ang) < 4:
            raise GeometryValidationError("polar table needs >= 4 (angle, radius) samples")
        if min(rad) <= 0:
            raise GeometryValidationError("polar radii must be positive")
        _check_finite("polar center, angles and radii", center, *ang, *rad)
        if any(ang[i + 1] <= ang[i] for i in range(len(ang) - 1)):
            raise GeometryValidationError("polar angles must be strictly increasing")
        if ang[-1] - ang[0] >= TWO_PI:
            # the periodic interpolation table closes at angles[0] + 2*pi
            raise GeometryValidationError("polar angles must span less than 2*pi")
        return CurveSpec(kind="polar", center=complex(center),
                         polar_angles=ang, polar_radii=rad)

    # -- parameterization --------------------------------------------------

    def point(self, t):
        """Curve point(s) at parameter(s) t in [0, 2*pi)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            return self.center + self.radius * np.exp(1j * t)
        if self.kind == "ellipse":
            a, b = self.semi_axes
            return self.center + np.exp(1j * self.rotation) * (a * np.cos(t) + 1j * b * np.sin(t))
        if self.kind == "polar":
            return self.center + self.radius_at(t) * np.exp(1j * t)
        raise UnsupportedCurve(f"unknown curve kind {self.kind!r}")

    def velocity(self, t):
        """dz/dt at parameter(s) t.  A polar curve interpolates its radius
        linearly, so r' is the slope of the table segment that holds t (the
        segment that starts there, at a table angle): dz/dt = (r' + i r) e^{it}."""
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            return 1j * self.radius * np.exp(1j * t)
        if self.kind == "ellipse":
            a, b = self.semi_axes
            return np.exp(1j * self.rotation) * (-a * np.sin(t) + 1j * b * np.cos(t))
        if self.kind == "polar":
            ang = np.append(self.polar_angles, self.polar_angles[0] + TWO_PI)
            slope = np.diff(np.append(self.polar_radii, self.polar_radii[0])) / np.diff(ang)
            seg = np.searchsorted(ang, np.mod(t - ang[0], TWO_PI) + ang[0], side="right") - 1
            r = self.radius_at(t)
            return (slope[np.minimum(seg, slope.size - 1)] + 1j * r) * np.exp(1j * t)
        raise UnsupportedCurve(f"unknown curve kind {self.kind!r}")

    def radius_at(self, phi):
        """Distance from the center to the curve along the ray at angle(s) phi."""
        phi = np.asarray(phi, dtype=float)
        if self.kind == "circle":
            return np.full(phi.shape, self.radius)
        if self.kind == "ellipse":
            a, b = self.semi_axes
            psi = phi - self.rotation
            return a * b / np.hypot(b * np.cos(psi), a * np.sin(psi))
        if self.kind == "polar":
            ang = np.asarray(self.polar_angles)
            rad = np.asarray(self.polar_radii)
            # periodic linear interpolation of the radius table
            ext_ang = np.concatenate([ang, [ang[0] + TWO_PI]])
            ext_rad = np.concatenate([rad, [rad[0]]])
            return np.interp(np.mod(phi - ang[0], TWO_PI) + ang[0], ext_ang, ext_rad)
        raise UnsupportedCurve(f"unknown curve kind {self.kind!r}")

    def contains(self, z):
        """True where z lies strictly inside the curve: |z - center| < r(arg(z - center))."""
        d = np.asarray(z, dtype=complex) - self.center
        return np.abs(d) < self.radius_at(np.angle(d))

    def to_json_dict(self):
        if self.kind == "circle":
            return {"kind": "circle", "center": [self.center.real, self.center.imag],
                    "radius": self.radius}
        if self.kind == "ellipse":
            return {"kind": "ellipse", "center": [self.center.real, self.center.imag],
                    "semi_axes": list(self.semi_axes), "rotation": self.rotation}
        return {"kind": "polar", "center": [self.center.real, self.center.imag],
                "angles": list(self.polar_angles), "radii": list(self.polar_radii)}

    @staticmethod
    def from_json_dict(d) -> "CurveSpec":
        if d["kind"] == "circle":
            return CurveSpec.circle(complex(d["center"][0], d["center"][1]), d["radius"])
        if d["kind"] == "ellipse":
            return CurveSpec.ellipse(complex(d["center"][0], d["center"][1]),
                                     d["semi_axes"], d.get("rotation", 0.0))
        if d["kind"] == "polar":
            return CurveSpec.polar(complex(d["center"][0], d["center"][1]),
                                   d["angles"], d["radii"])
        raise GeometryValidationError(f"unknown curve kind {d['kind']!r}")


@dataclass(frozen=True)
class CurveSamples:
    """Equispaced-parameter samples of a curve."""

    params: np.ndarray
    points: np.ndarray


def sample_curve(gamma: CurveSpec, n: int) -> CurveSamples:
    """Sample n points at equispaced parameters."""
    if n < 4:
        raise GeometryValidationError("sample_curve needs n >= 4")
    t = TWO_PI * np.arange(n) / n
    return CurveSamples(params=t, points=gamma.point(t))


# ---------------------------------------------------------------------------
# conformal map and Green functions


def phi_exterior(e: EDomain, z):
    """Conformal map of D onto {|w| > 1}; |phi| <= 1 marks points of E."""
    z = np.asarray(z, dtype=complex)
    if e.kind == "disk":
        return (z - e.center) / e.radius
    w = (2.0 * z - (e.a + e.b)) / (e.b - e.a)
    s = np.sqrt(w * w - 1.0)
    plus, minus = w + s, w - s
    return np.where(np.abs(plus) >= np.abs(minus), plus, minus)


def series_terms(rho: float, limit: int) -> int:
    """Terms K of a series sum_k (c_k / k) v^k, |v| = 1, whose |c_k| is at
    most rho^k per unit mass, or 0 where the caller's direct sum is used.

    K is the fewest terms whose tail bound rho^(K+1) / ((K+1)(1 - rho))
    falls below 2^-53.  It is 0 for rho >= 1, where the series does not
    converge, and when K >= limit, where it costs no less than the direct sum.
    """
    if rho >= 1.0:
        return 0
    k = np.arange(1, limit)
    tail = rho ** (k + 1) / ((k + 1) * (1.0 - rho))
    fits = np.flatnonzero(tail <= 2.0 ** -53)
    return int(k[fits[0]]) if fits.size else 0


def green_pole_infinity(e: EDomain, z):
    """g(z, infinity) for D, continuous, equal to 0 on E."""
    az = np.abs(phi_exterior(e, z))
    with np.errstate(divide="ignore"):
        g = np.log(np.maximum(az, 1.0))
    if np.ndim(z) == 0:
        return float(g)
    return g


def kernel_parts(phi):
    """(Re phi, Im phi, s) for kernel_from_phi, s = |phi|^2 - 1 clamped to 0
    on the plate."""
    x, y = phi.real, phi.imag
    return x, y, np.maximum(x * x + y * y - 1.0, 0.0)


def kernel_from_phi(phi_z, phi_t):
    """Green kernel from precomputed phi values; broadcasts like numpy.

    g = log1p(s_z * s_t / |phi_z - phi_t|^2) / 2 with s from kernel_parts (see
    the module docstring).  An argument on the plate has s = 0, so its kernel
    is 0 from the product itself; no mask is needed.  Returns +inf where the
    arguments coincide off the plate and 0 where they coincide on it.
    """
    xz, yz, sz = kernel_parts(np.asarray(phi_z))
    xt, yt, st = kernel_parts(np.asarray(phi_t))
    dx = xz - xt
    dy = yz - yt
    d2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 0.5 * np.log1p(sz * st / d2)
    # the only NaN is 0 / 0, at a coincidence on the plate; fmax keeps every other value
    return np.fmax(val, 0.0)


def green_matrix(phi_rows, phi_cols):
    """g over every (row, column) pair of two point sets, from phi at the
    points: the one Green-kernel matrix builder of the package.

    It is built _ROW_BLOCK rows at a time, so no kernel temporary outgrows a
    row block.  kernel_from_phi's +inf for a point paired with itself off the
    plate becomes 0 (on a validated condenser every other entry is finite), so
    a product w @ green_matrix(phi, phi) holds, at each point, the potential
    of the others.
    """
    out = np.empty((phi_rows.size, phi_cols.size))
    for lo in range(0, phi_rows.size, _ROW_BLOCK):
        rows = out[lo:lo + _ROW_BLOCK]
        rows[:] = kernel_from_phi(phi_rows[lo:lo + _ROW_BLOCK, None], phi_cols[None, :])
        rows[np.isinf(rows)] = 0.0
    return out


def green_kernel(e: EDomain, z, t):
    """g(z, t), the Green function of D with pole at t, clamped to 0 on E.

    z may be an array; t is a single pole.  Raises CoincidentPole when z and t
    coincide (within 1e-14) outside E.
    """
    t = complex(t)
    pz = phi_exterior(e, z)
    pt = complex(phi_exterior(e, t))
    if abs(pt) > 1.0:
        close = np.abs(np.asarray(z, dtype=complex) - t) <= 1e-14
        if np.any(close & (np.abs(pz) > 1.0)):
            raise CoincidentPole(f"green_kernel pole at z = t = {t}")
    val = kernel_from_phi(pz, pt)
    if np.ndim(z) == 0:
        return float(val)
    return val


def green_exterior_gamma(gamma: CurveSpec, z):
    """Green function of the unbounded component outside a circular curve."""
    if gamma.kind != "circle":
        raise UnsupportedCurve("exterior Green function implemented for circles only")
    z = np.asarray(z, dtype=complex)
    val = np.log(np.abs(z - gamma.center) / gamma.radius)
    if np.any(val < -1e-9):
        raise GeometryValidationError("green_exterior_gamma called at a point inside the curve")
    out = np.maximum(val, 0.0)
    if np.ndim(z) == 0:
        return float(out)
    return out


def log_capacity(e: EDomain) -> float:
    """Logarithmic capacity: r for a disk, (b - a)/4 for a segment."""
    if e.kind == "disk":
        return e.radius
    return (e.b - e.a) / 4.0


# ---------------------------------------------------------------------------
# plate sampling


def boundary_samples(e: EDomain, n: int) -> np.ndarray:
    """n samples of the plate boundary, in parameter order.

    For a segment the grid includes both endpoints and the midpoint; n is
    bumped to the next odd value so the midpoint is hit exactly.
    """
    if n < 3:
        raise GeometryValidationError("boundary_samples needs n >= 3")
    if e.kind == "disk":
        t = TWO_PI * np.arange(n) / n
        return e.center + e.radius * np.exp(1j * t)
    if n % 2 == 0:
        n += 1
    x = np.linspace(e.a, e.b, n)
    return x.astype(complex)


def interior_spots(e: EDomain, n: int = 64) -> np.ndarray:
    """Deterministic interior probe points (empty for a segment)."""
    if e.kind != "disk":
        return np.empty(0, dtype=complex)
    rings = max(1, int(round(np.sqrt(n))))
    per = max(1, n // rings)
    radii = e.radius * (np.arange(rings) + 1.0) / (rings + 1.0)
    angles = TWO_PI * np.arange(per) / per
    pts = (e.center + radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    return pts[:n]


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Condenser:
    """A validated plate/curve pair (E, Gamma) with E inside the curve."""

    e_domain: EDomain
    gamma: CurveSpec
    validated: bool = field(default=False, compare=False)

    def validate(self, samples: int = 4096) -> "Condenser":
        """Run the sampled geometric checks; raises GeometryValidationError on failure.

        Gamma is star-shaped (see CurveSpec), so E lies inside it when every
        plate sample passes Gamma.contains; g(., inf) on the curve samples
        must be positive (Gamma misses E) and below the kernel's overflow scale.
        """
        curve = sample_curve(self.gamma, samples).points

        g = green_pole_infinity(self.e_domain, curve)
        if np.min(g) <= 0.0:
            raise GeometryValidationError(
                "winding/positivity check failed: Gamma touches or intersects E "
                "(min over curve samples of g(.,inf) is not positive)")
        if np.max(g) >= _G_INF_MAX:
            raise GeometryValidationError(
                f"scale check failed: max over curve samples of g(.,inf) is {np.max(g):.6g} "
                f">= {_G_INF_MAX:.6g}, where the Green kernel would be non-finite")

        plate = np.append(self.e_domain.midpoint, boundary_samples(self.e_domain, samples))
        outside = ~self.gamma.contains(plate)
        if np.any(outside):
            raise GeometryValidationError(
                f"inside check failed: E sample {plate[np.argmax(outside)]} "
                "does not lie inside Gamma")

        return Condenser(self.e_domain, self.gamma, validated=True)

    def to_json_dict(self):
        return {"e": self.e_domain.to_json_dict(), "gamma": self.gamma.to_json_dict()}

    @staticmethod
    def from_json_dict(d) -> "Condenser":
        return Condenser(EDomain.from_json_dict(d["e"]), CurveSpec.from_json_dict(d["gamma"]))


def concentric_condenser(radius_e: float = 1.0, rho: float = float(np.e)) -> Condenser:
    """Unit-style pair: E = disk(0, radius_e), Gamma the level curve |z| = radius_e * rho."""
    return Condenser(EDomain.disk(0j, radius_e),
                     CurveSpec.circle(0j, radius_e * rho)).validate()


def offset_condenser() -> Condenser:
    """The running example: E the closed unit disk, Gamma the circle |z - 1| = 3."""
    return Condenser(EDomain.disk(0j, 1.0), CurveSpec.circle(1 + 0j, 3.0)).validate()
