import cmath
import itertools
import math
import random

import mpmath
import pytest

from persvec.coefficients import (
    CoefficientVector,
    default_coefficient_count,
    elementary_symmetric,
    embed_diagram,
    embed_roots,
)
from persvec.diagram import PersistenceDiagram
from persvec.transforms import ComplexRoot, ComplexRootList, transform_diagram


def esp_bruteforce(roots, count):
    """Sum over all j-subsets of the product of their elements."""
    out = []
    for j in range(1, count + 1):
        total = 0j
        for combo in itertools.combinations(roots, j):
            total += math.prod(combo)
        out.append(total)
    return tuple(out)


def rootlist(*values):
    return ComplexRootList(tuple(ComplexRoot(complex(v)) for v in values))


def test_real_roots_hand_value():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    assert elementary_symmetric([1, 2, 3], 3) == (6 + 0j, 11 + 0j, 6 + 0j)


def test_conjugate_pair_hand_value():
    # (t - i)(t + i) = t^2 + 1
    assert elementary_symmetric([1j, -1j], 2) == (0j, 1 + 0j)


def test_zeros_kill_higher_terms():
    assert elementary_symmetric([1, 2, 0, 0], 4) == (3 + 0j, 2 + 0j, 0j, 0j)


def test_embed_diagram_hand_values():
    d = PersistenceDiagram.from_pairs([(0, 2), (1, 3)])
    vec = embed_diagram(d, "R", width=2, count=2)
    assert vec.coefficients == (1 + 5j, -6 + 2j)
    assert vec.width == 2
    single = embed_diagram(PersistenceDiagram.from_pairs([(0, 2)]), "R", 1, 1)
    assert single.coefficients == (2j,)
    empty = embed_diagram(PersistenceDiagram(), "R", width=5, count=3)
    assert empty.coefficients == (0j, 0j, 0j)


def test_against_bruteforce():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randrange(0, 9)
        roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        # sprinkle in exact zeros so the skip path is exercised
        for _ in range(rng.randrange(0, 3)):
            roots.insert(rng.randrange(0, len(roots) + 1), 0j)
        count = rng.randrange(0, len(roots) + 2)
        got = elementary_symmetric(roots, count)
        want = esp_bruteforce(roots, count)
        assert len(got) == count
        for g, w in zip(got, want):
            assert cmath.isclose(g, w, rel_tol=1e-10, abs_tol=1e-10)


def test_order_invariance():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randrange(1, 51)
        roots = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        count = rng.randrange(1, 7)
        base = elementary_symmetric(roots, count)
        shuffled = roots[:]
        rng.shuffle(shuffled)
        again = elementary_symmetric(shuffled, count)
        for g, w in zip(base, again):
            assert cmath.isclose(g, w, rel_tol=1e-10, abs_tol=1e-12)


def test_padding_never_changes_values():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(0, 7)
        roots = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        count = rng.randrange(0, 5)
        plain = elementary_symmetric(roots, count)
        for extra in (0, 1, 13, 3 * n + 50):
            assert elementary_symmetric(roots + [0j] * extra, count) == plain


def test_counts_beyond_support_are_zero():
    assert elementary_symmetric([2 + 0j], 3) == (2 + 0j, 0j, 0j)
    assert elementary_symmetric([], 2) == (0j, 0j)


def test_embed_roots_validates_width_and_count():
    rl = rootlist(1, 2, 3)
    assert embed_roots(rl, 3, 2).coefficients == (6 + 0j, 11 + 0j)
    assert embed_roots(rl, 5, 5).coefficients == (6 + 0j, 11 + 0j, 6 + 0j, 0j, 0j)
    assert embed_roots(ComplexRootList(), 2, 2).coefficients == (0j, 0j)
    with pytest.raises(ValueError, match="cannot pad"):
        embed_roots(rl, 2, 1)
    with pytest.raises(ValueError, match="count"):
        embed_roots(rl, 3, 0)
    with pytest.raises(ValueError, match="count"):
        embed_roots(rl, 3, 4)


def test_default_count_is_floor_sqrt():
    assert default_coefficient_count(1) == 1
    assert default_coefficient_count(9) == 3
    assert default_coefficient_count(10) == 3
    assert default_coefficient_count(16) == 4
    assert default_coefficient_count(24) == 4
    with pytest.raises(ValueError):
        default_coefficient_count(0)


def test_float_coefficients_match_mpmath_on_a_mid_size_diagram():
    # 1000 points, k = 31: every float64 e_j of R, S and T lies within a
    # relative 1e-14 of the same recurrence run at 40 significant digits
    # (measured here: at most 1.3e-15 for R, 6.3e-16 for S, 1.9e-15 for
    # T; 5.8e-15 on a 9,985-point mesh diagram), while |e_31| is about
    # 3e54 for R and 1e22 for T.
    rng = random.Random(61)
    pts = []
    for _ in range(1000):
        birth = rng.uniform(0, 0.9)
        pts.append((birth, birth + rng.uniform(1e-4, 0.1) * rng.choice([1, 1, 1, 5])))
    diagram = PersistenceDiagram.from_pairs(pts)
    count = default_coefficient_count(diagram.total_multiplicity())
    for kind in "RST":
        roots = list(transform_diagram(diagram, kind).expand())
        got = elementary_symmetric(roots, count)
        with mpmath.workdps(40):
            exact = [mpmath.mpc(1)] + [mpmath.mpc(0)] * count
            for seen, z in enumerate(roots, start=1):
                z = mpmath.mpc(z.real, z.imag)
                for j in range(min(seen, count), 0, -1):
                    exact[j] += z * exact[j - 1]
            errors = [abs(mpmath.mpc(g.real, g.imag) - e) / abs(e) for g, e in zip(got, exact[1:])]
        assert max(errors) < 1e-14, (kind, max(errors))


def test_overflow_reports_lowest_bad_coefficient():
    # e_1 = 4e200 is fine, e_2 = 6e400 is not representable
    with pytest.raises(OverflowError, match="coefficient 2"):
        elementary_symmetric([1e200 + 0j] * 4, 4)


def test_non_finite_root_rejected():
    with pytest.raises(ValueError):
        elementary_symmetric([complex(math.inf, 0)], 1)
    with pytest.raises(ValueError):
        elementary_symmetric([complex(0, math.nan)], 1)


def test_embed_roots_defaults_and_padding():
    rl = ComplexRootList((ComplexRoot(1 + 1j), ComplexRoot(2 - 1j, 2)))
    vec = embed_roots(rl, width=16)
    assert vec.count == 4
    assert vec.width == 16
    # identical values at any padding width
    wider = embed_roots(rl, width=160, count=4)
    assert wider.coefficients == vec.coefficients
    with pytest.raises(ValueError):
        embed_roots(rl, width=2)  # narrower than the root list itself


def test_truncate():
    vec = CoefficientVector((1j, 2j, 3j), width=9)
    cut = vec.truncate(2)
    assert cut.coefficients == (1j, 2j)
    assert cut.width == 9
    assert vec.truncate(3) == vec
    with pytest.raises(ValueError):
        vec.truncate(4)
    with pytest.raises(ValueError):
        vec.truncate(0)


def test_vector_validation():
    with pytest.raises(ValueError):
        CoefficientVector((complex(math.inf, 0),), width=4)
    with pytest.raises(ValueError):
        CoefficientVector((1j,), width=-1)
    with pytest.raises(ValueError):
        CoefficientVector((), width=3)  # at least one coefficient
    with pytest.raises(ValueError):
        CoefficientVector((1j, 2j), width=1)  # more coefficients than width
