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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ComplexRoot:
    """One complex root with a positive integer multiplicity."""

    value: complex
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise ValueError(f"non-finite root {self.value}")
        if not isinstance(self.multiplicity, int) or self.multiplicity < 1:
            raise ValueError(
                f"multiplicity must be a positive integer, got {self.multiplicity}"
            )


@dataclass(frozen=True)
class ComplexRootList:
    """Multiset of complex roots.

    Roots with exactly equal values are merged on construction (summing
    multiplicities) and the result is sorted by (real, imag) so equal
    multisets compare equal.  ``width`` counts roots with multiplicity;
    it is the degree of the polynomial having these roots.
    """

    roots: tuple[ComplexRoot, ...] = ()

    def __post_init__(self) -> None:
        merged: dict[complex, int] = {}
        for r in self.roots:
            merged[r.value] = merged.get(r.value, 0) + r.multiplicity
        ordered = sorted(merged.items(), key=lambda kv: (kv[0].real, kv[0].imag))
        object.__setattr__(
            self, "roots", tuple(ComplexRoot(v, m) for v, m in ordered)
        )

    @property
    def width(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def expand(self) -> list[complex]:
        """Roots repeated by multiplicity, in sorted order."""
        out: list[complex] = []
        for r in self.roots:
            out.extend([r.value] * r.multiplicity)
        return out

    def __len__(self) -> int:
        return len(self.roots)


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
    limit along the diagonal.
    """
    _check_point(u, v)
    alpha = math.hypot(u, v)
    if alpha == 0.0:
        return 0j
    scale = (v - u) / (alpha * _SQRT2)
    return complex(scale * u, scale * v)


def embed_winding(u: float, v: float) -> complex:
    """Modulus (v - u) / sqrt(2); angle = distance from origin + pi/4.

    Written out: (v - u) / 2 * ((cos a - sin a) + i (cos a + sin a))
    with a = hypot(u, v), which equals (v - u)/2 * (1 + i) * e^{ia}.
    Unlike :func:`embed_radial` this map is continuous at the origin but
    identifies points whose distances from the origin differ by 2*pi at
    equal diagonal gap.
    """
    _check_point(u, v)
    alpha = math.hypot(u, v)
    half_gap = (v - u) / 2.0
    c, s = math.cos(alpha), math.sin(alpha)
    return complex(half_gap * (c - s), half_gap * (c + s))


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


def transform_diagram(diagram, kind: str) -> ComplexRootList:
    """Map every diagram point to a root, carrying multiplicities.

    Distinct points that land on exactly the same complex value merge,
    so the list's width never exceeds (and normally equals) the
    diagram's total multiplicity.
    """
    fn = get_transform(kind)
    columns = (diagram.births.tolist(), diagram.deaths.tolist(), diagram.multiplicities.tolist())
    return ComplexRootList(tuple(ComplexRoot(fn(u, v), m) for u, v, m in zip(*columns)))
