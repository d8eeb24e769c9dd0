import math
import random

import mpmath
import pytest

from persvec.coefficients import embed_diagrams
from persvec.diagram import PersistenceDiagram
from persvec.transforms import (
    TRANSFORMS,
    ComplexRoot,
    ComplexRootList,
    embed_radial,
    embed_raw,
    embed_winding,
    get_transform,
    transform_diagram,
    transform_point,
)

SQRT2 = math.sqrt(2.0)


def test_raw_embedding_values():
    assert embed_raw(0.0, 2.0) == 2j
    assert embed_raw(1.5, 4.0) == 1.5 + 4j
    assert embed_raw(-1.0, 1.0) == -1 + 1j


def test_radial_embedding_hand_value():
    # (0, 2): direction straight up, modulus 2/sqrt(2) = sqrt(2)
    z = embed_radial(0.0, 2.0)
    assert abs(z - complex(0.0, SQRT2)) < 1e-12


def test_winding_embedding_hand_value():
    # (0, pi/2): distance from origin is pi/2, so cos - sin = -1 and
    # cos + sin = 1 up to rounding; half-gap is pi/4.
    z = embed_winding(0.0, math.pi / 2)
    want = (math.pi / 4) * complex(-1.0, 1.0)
    assert abs(z - want) < 1e-12


def test_modulus_law():
    rng = random.Random(3)
    for _ in range(200):
        u = rng.uniform(-3, 3)
        v = u + rng.uniform(0, 4)
        gap = (v - u) / SQRT2
        assert abs(abs(embed_radial(u, v)) - gap) < 1e-12
        assert abs(abs(embed_winding(u, v)) - gap) < 1e-12


def test_diagonal_collapses_to_zero():
    for u in (-2.0, 0.0, 0.5, 3.0):
        assert embed_radial(u, u) == 0
        assert embed_winding(u, u) == 0
    assert embed_radial(0.0, 0.0) == 0  # special-cased: no direction at origin


def test_below_diagonal_rejected():
    for fn in (embed_raw, embed_radial, embed_winding):
        with pytest.raises(ValueError):
            fn(2.0, 1.0)
        with pytest.raises(ValueError):
            fn(math.nan, 1.0)


def test_raw_injective_on_samples():
    rng = random.Random(11)
    seen = set()
    for _ in range(500):
        u = rng.uniform(0, 1)
        v = u + rng.uniform(1e-6, 1)
        seen.add(embed_raw(u, v))
    assert len(seen) == 500


def test_winding_identifies_gap_preserving_shifts():
    # Two distinct points with the same diagonal gap whose distances from
    # the origin differ by exactly 2*pi map (nearly) together.
    u1, v1 = 3.0, 4.0  # distance 5, gap 1
    target = 5.0 + 2 * math.pi
    u2 = (-1.0 + math.sqrt(2 * target * target - 1.0)) / 2.0
    v2 = u2 + 1.0
    assert abs(math.hypot(u2, v2) - target) < 1e-9
    z1, z2 = embed_winding(u1, v1), embed_winding(u2, v2)
    assert (u1, v1) != (u2, v2)
    assert abs(z1 - z2) < 1e-8
    # the radial map keeps them apart (well beyond float noise)
    assert abs(embed_radial(u1, v1) - embed_radial(u2, v2)) > 1e-3


def test_root_list_merges_and_sorts():
    rl = ComplexRootList(
        (
            ComplexRoot(1 + 2j, 2),
            ComplexRoot(0j),
            ComplexRoot(1 + 2j, 3),
        )
    )
    assert len(rl) == 2
    assert rl.roots == (ComplexRoot(0j, 1), ComplexRoot(1 + 2j, 5))
    assert rl.width == 6
    assert rl.expand() == [0j, 1 + 2j, 1 + 2j, 1 + 2j, 1 + 2j, 1 + 2j]


def test_root_validation():
    with pytest.raises(ValueError):
        ComplexRoot(complex(math.inf, 0))
    with pytest.raises(ValueError):
        ComplexRoot(1j, 0)


def test_transform_diagram_preserves_width():
    d = PersistenceDiagram.from_pairs([(0, 1, 2), (0.25, 0.75), (0.5, 1.0, 3)])
    for kind in ("R", "S", "T"):
        rl = transform_diagram(d, kind)
        assert rl.width == d.total_multiplicity() == 6


def test_transform_diagram_carries_multiplicity():
    d = PersistenceDiagram.from_pairs([(0, 2, 4)])
    rl = transform_diagram(d, "R")
    assert rl.roots == (ComplexRoot(2j, 4),)


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown transform"):
        get_transform("Q")
    with pytest.raises(ValueError):
        transform_point("", 0, 1)


def test_transform_point_dispatch():
    assert transform_point("R", 0, 2) == 2j
    assert transform_point("S", 0, 2) == embed_radial(0, 2)
    assert transform_point("T", 0, 2) == embed_winding(0, 2)


def test_root_list_keeps_the_first_signed_zero_it_sees():
    rl = ComplexRootList((ComplexRoot(complex(-0.0, 1.0)), ComplexRoot(complex(0.0, 1.0), 2)))
    assert [math.copysign(1.0, z.real) for z in rl.expand()] == [-1.0] * 3
    assert rl == ComplexRootList((ComplexRoot(1j, 3),)) == rl  # -0.0 == 0.0 both ways
    assert rl != ComplexRootList((ComplexRoot(1j, 2),))
    assert rl != ComplexRootList((ComplexRoot(1j), ComplexRoot(2j, 2)))
    assert ComplexRootList().width == 0 and ComplexRootList().expand() == []


GRID = [-1.7e308, -1e308, -1e300, -1.5, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0,
        2.0, 1e300, 1e308, 1.5e308, 1.7e308]


def test_scalar_maps_give_a_finite_root_or_name_the_far_point():
    # every root in the package comes from these maps, point by point, and the
    # database pass relies on them raising nothing but T's far-point error
    pairs = [(u, v) for u in GRID for v in GRID if u <= v]
    pairs += [(x, math.nextafter(x, math.inf)) for x in GRID]  # next to the diagonal
    rng = random.Random(8)
    pairs += [(u, u + rng.uniform(0, 4)) for u in (rng.uniform(-3, 3) for _ in range(2000))]
    for kind, scalar in TRANSFORMS.items():
        for u, v in pairs:
            try:
                z = scalar(u, v)
            except ValueError as e:
                assert kind == "T", (kind, u, v)
                assert str(e) == f"point ({u}, {v}) lies too far from the origin for a finite T root"
                continue
            assert type(z) is complex and math.isfinite(z.real) and math.isfinite(z.imag), (kind, u, v)


@pytest.mark.parametrize("u, v", [
    (1e308, 1.5e308), (-1e308, 1e308), (-1.7e308, 1.7e308), (0.0, 1.7e308),
    (-1.79e308, -1e308), (1.6e308, 1.79e308), (-1.79e308, 1.79e308), (5e-324, 1.7e308),
])
def test_radial_root_of_a_far_point_is_its_formula(u, v):
    # (v - u) / sqrt(2) * (u + iv) / hypot(u, v), at 50 digits; a part below
    # the normal range is off by at most the smallest subnormal, 5e-324
    z = embed_radial(u, v)
    with mpmath.workdps(50):
        mu, mv = mpmath.mpf(u), mpmath.mpf(v)
        scale = (mv - mu) / (mpmath.sqrt(2) * mpmath.sqrt(mu * mu + mv * mv))
        for got, exact in ((z.real, scale * mu), (z.imag, scale * mv)):
            assert abs(mpmath.mpf(got) - exact) <= 1e-15 * abs(exact) + 5e-324, (u, v, z)


def test_winding_rejects_a_far_point_naming_it():
    for u, v in ((1e308, 1.5e308), (-1e308, 1e308)):
        message = f"point ({u}, {v}) lies too far from the origin for a finite T root"
        with pytest.raises(ValueError) as scalar:
            embed_winding(u, v)
        with pytest.raises(ValueError) as mapped:
            transform_diagram(PersistenceDiagram.from_pairs([(0, 1), (u, v)]), "T")
        assert str(scalar.value) == str(mapped.value) == message
    # two far points: both paths name the first in (birth, death) order
    d = PersistenceDiagram.from_pairs([(1e308, 1.5e308), (0, 1), (-1e308, 1e308)])
    message = "point (-1e+308, 1e+308) lies too far from the origin for a finite T root"
    for call in (lambda: transform_diagram(d, "T"), lambda: embed_diagrams([d], "T", 3)):
        with pytest.raises(ValueError) as far:
            call()
        assert str(far.value) == message
