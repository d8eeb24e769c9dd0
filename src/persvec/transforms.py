"""Maps from diagram points to complex roots.

Each transform sends a point (u, v) with u <= v to one complex number.
Three are provided, registered in ``TRANSFORMS`` under the single-letter
tokens used by the CLI and the index file format:

* ``R`` (:func:`embed_raw`): u + iv, the plane as-is.
* ``S`` (:func:`embed_radial`): same direction as u + iv, but the modulus
  becomes (v - u) / sqrt(2), i.e. the distance from the diagonal.  The
  diagonal itself collapses to 0.
* ``T`` (:func:`embed_winding`): same modulus as ``S``, but the angle is
  the point's distance from the origin (plus a fixed quarter-turn
  offset), so moving outward along the diagonal direction winds around 0.

``S`` and ``T`` both vanish on the diagonal, which makes the resulting
coefficient vectors stable against low-persistence noise; ``R`` does not.

The scalar maps are the one implementation: :func:`transform_diagram`
and the database pass in :mod:`persvec.coefficients` call them once per
point, so every root is the scalar map's float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .diagram import _exact_multiplicity, _merged, _readonly

_SQRT2 = math.sqrt(2.0)


def _finite_roots(values: np.ndarray) -> np.ndarray:
    """The finite-root rule: an array of root ``values`` is returned if every one is finite."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"non-finite root {complex(values[np.argmin(finite)])}")
    return values


@dataclass(frozen=True)
class ComplexRoot:
    """One complex root with a multiplicity under the diagrams' rule, stored as an int."""

    value: complex
    multiplicity: int = 1

    def __post_init__(self) -> None:
        _finite_roots(np.array([self.value]))
        if not (multiplicity := _exact_multiplicity(self.multiplicity)):
            raise ValueError(f"multiplicity {self.multiplicity!r} is not an integer "
                             "from 1 to 2**63 - 1")
        object.__setattr__(self, "multiplicity", multiplicity)


class ComplexRootList:
    """Multiset of complex roots as read-only columns: ``values`` (complex128)
    and ``multiplicities`` (int64), one entry per distinct root, sorted by
    (real, imag).

    Exactly equal roots merge on construction, summing multiplicities and
    keeping the first value seen (0.0 and -0.0 parts merge), so equal
    multisets compare equal.  ``width`` counts roots with multiplicity; it
    is the degree of the polynomial having these roots.  ``roots`` builds
    :class:`ComplexRoot` objects on demand.
    """

    __slots__ = ("values", "multiplicities")

    def __init__(self, roots: Iterable[ComplexRoot] = ()) -> None:
        roots = tuple(roots)
        values = np.array([r.value for r in roots], dtype=complex)
        multiplicities = np.array([r.multiplicity for r in roots], np.int64)
        re, im, multiplicities = _merged((values.real, values.imag), multiplicities)
        values = re.astype(complex)
        values.imag = im
        self.values, self.multiplicities = map(_readonly, (values, multiplicities))

    @property
    def roots(self) -> tuple[ComplexRoot, ...]:
        return tuple(map(ComplexRoot, self.values.tolist(), self.multiplicities.tolist()))

    @property
    def width(self) -> int:
        return sum(self.multiplicities.tolist())

    def expand(self) -> list[complex]:
        """Roots repeated by multiplicity, in sorted order."""
        return np.repeat(self.values, self.multiplicities).tolist()

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexRootList):
            return NotImplemented
        return (np.array_equal(self.values, other.values)
                and np.array_equal(self.multiplicities, other.multiplicities))


def _check_point(u: float, v: float) -> None:
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"non-finite point ({u}, {v})")
    if u > v:
        raise ValueError(f"point ({u}, {v}) lies below the diagonal")


def embed_raw(u: float, v: float) -> complex:
    """Identity embedding: (u, v) becomes u + iv."""
    _check_point(u, v)
    return complex(u, v)


def embed_radial(u: float, v: float) -> complex:
    """Keep the direction of u + iv, set the modulus to (v - u) / sqrt(2).

    The origin has no direction; (0, 0) maps to 0, which is also the
    limit along the diagonal.  The root's parts are at most |u| and |v|,
    so every point has a finite root: where hypot(u, v) or v - u leaves
    the float range, the scale factor, which does not change when u and
    v are scaled together, is taken from (u/4, v/4).
    """
    _check_point(u, v)
    alpha = math.hypot(u, v)
    if alpha == 0.0:
        return 0j
    gap, denom = v - u, alpha * _SQRT2
    if math.isinf(gap) or math.isinf(denom):
        gap, denom = v / 4 - u / 4, math.hypot(u / 4, v / 4) * _SQRT2
    scale = gap / denom
    return complex(scale * u, scale * v)


def embed_winding(u: float, v: float) -> complex:
    """Modulus (v - u) / sqrt(2); angle = distance from origin + pi/4.

    Written out: (v - u) / 2 * ((cos a - sin a) + i (cos a + sin a))
    with a = hypot(u, v), which equals (v - u)/2 * (1 + i) * e^{ia}.
    Unlike :func:`embed_radial` this map is continuous at the origin but
    identifies points whose distances from the origin differ by 2*pi at
    equal diagonal gap.  A point whose distance from the origin or whose
    root leaves the float range raises ValueError.
    """
    _check_point(u, v)
    alpha = math.hypot(u, v)
    if math.isfinite(alpha):
        half_gap = (v - u) / 2.0
        c, s = math.cos(alpha), math.sin(alpha)
        z = complex(half_gap * (c - s), half_gap * (c + s))
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return z
    raise ValueError(f"point ({u}, {v}) lies too far from the origin for a finite T root")


TRANSFORMS: dict[str, Callable[[float, float], complex]] = {
    "R": embed_raw,
    "S": embed_radial,
    "T": embed_winding,
}


def get_transform(kind: str) -> Callable[[float, float], complex]:
    try:
        return TRANSFORMS[kind]
    except KeyError:
        raise ValueError(
            f"unknown transform {kind!r}, expected one of {sorted(TRANSFORMS)}"
        ) from None


def transform_point(kind: str, u: float, v: float) -> complex:
    return get_transform(kind)(u, v)


def _roots(kind: str, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The complex ``kind`` roots of the points (u, v), one scalar-map call each, in order."""
    return np.fromiter(map(get_transform(kind), u.tolist(), v.tolist()), complex, len(u))


def transform_diagram(diagram, kind: str) -> ComplexRootList:
    """Map every diagram point to a root, carrying multiplicities.

    Distinct points that land on exactly the same complex value merge,
    so the list's width never exceeds (and normally equals) the
    diagram's total multiplicity.  A point with no root raises the
    map's ValueError, at the first such point in (birth, death) order.
    """
    z = _roots(kind, diagram.births, diagram.deaths)
    return ComplexRootList(map(ComplexRoot, z.tolist(), diagram.multiplicities.tolist()))
