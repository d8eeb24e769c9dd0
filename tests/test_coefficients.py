import cmath
import itertools
import math
import random
import tracemalloc

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persvec import coefficients
from persvec.coefficients import (
    CoefficientVector,
    _overflow,
    _prefix_esp,
    default_coefficient_count,
    elementary_symmetric,
    embed_diagram,
    embed_diagrams,
    embed_roots,
)
from persvec.diagram import PersistenceDiagram
from persvec.transforms import TRANSFORMS, ComplexRoot, ComplexRootList, transform_diagram


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
    with pytest.raises(ValueError, match="^count must be non-negative, got -1$"):
        elementary_symmetric([2 + 0j], -1)


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


@pytest.mark.parametrize("root", [complex(math.inf, 0), complex(0, math.nan), complex(-math.inf, math.nan)])
def test_every_entry_point_keeps_one_finite_root_rule(root):
    calls = {
        "ComplexRoot": lambda: ComplexRoot(root, 2),
        "elementary_symmetric": lambda: elementary_symmetric([1j, 0j, root, complex(math.nan, 0)], 2),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"non-finite root {root}", name


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


# ------------------------------------------------ the kernel against its oracle


def scalar_esp(roots, count):
    """The scalar recurrence the kernel reproduces bit for bit: for each nonzero
    root z in order, e_j += z * e_{j-1} for j descending."""
    coeffs = [0j] * (count + 1)
    coeffs[0] = 1 + 0j
    seen = 0
    for z in roots:
        if z == 0:
            continue
        seen += 1
        for j in range(min(seen, count), 0, -1):
            coeffs[j] += z * coeffs[j - 1]
    for j in range(1, count + 1):
        if not cmath.isfinite(coeffs[j]):
            raise OverflowError(f"coefficient {j} overflowed the float range")
    return tuple(coeffs[1:])


def dict_merged(pairs):
    """(value, multiplicity) pairs merged by a dict keyed by value, which keeps the
    first value seen, sorted by (real, imag) and expanded by multiplicity."""
    merged = {}
    for z, m in pairs:
        merged[z] = merged.get(z, 0) + m
    ordered = sorted(merged.items(), key=lambda kv: (kv[0].real, kv[0].imag))
    return [z for z, m in ordered for _ in range(m)]


def bits(values):
    """Exact floats of complex values, sign of zero included."""
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


def outcome(fn, *args):
    """Bits of fn's coefficients, or the type and text of the error it raised."""
    try:
        result = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return bits(result.coefficients if isinstance(result, CoefficientVector) else result)


PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 5e-324, 1e-200, 1e200, -1e200, 1e308]),
    st.floats(-4, 4),
)
ROOTS = st.lists(st.builds(complex, PARTS, PARTS), max_size=14)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.lists(ROOTS, min_size=1, max_size=6), st.integers(0, 18))
def test_kernel_is_the_scalar_loop_bit_for_bit(rows, count):
    # one row at a time through the public function ...
    for row in rows:
        assert outcome(elementary_symmetric, row, count) == outcome(scalar_esp, row, count)
    # ... and all rows at once, zero-padded at the row end to the longest
    nonzero = [[z for z in row if z != 0] for row in rows]
    width = max(map(len, nonzero))
    block = np.zeros((len(rows), width), dtype=complex)
    for i, row in enumerate(nonzero):
        block[i, : len(row)] = row
    got = _prefix_esp(block.real.copy(), block.imag.copy(), count)
    for i, row in enumerate(rows):
        failure = _overflow(got[i])
        got_row = bits(got[i]) if failure is None else (OverflowError, str(failure))
        assert got_row == outcome(scalar_esp, row, count)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.builds(complex, PARTS, PARTS), st.integers(1, 3)), max_size=10),
       st.integers(1, 12))
def test_root_list_merges_as_a_dict_and_embeds_as_the_loop(pairs, count):
    roots = ComplexRootList(ComplexRoot(z, m) for z, m in pairs)
    expanded = dict_merged(pairs)
    assert bits(roots.expand()) == bits(expanded)
    width = max(roots.width, count)
    assert outcome(embed_roots, roots, width, count) == outcome(scalar_esp, expanded, count)


COORDS = [-2.0, -1e-310, -0.0, 0.0, 1e-300, 0.25, 0.5, 1.0, 3.0, 1e150]


@st.composite
def diagram_lists(draw):
    """1-6 diagrams of 0-12 points from a small coordinate pool (so points and
    roots repeat), multiplicities 1-3, now and then a point far out."""
    diagrams = []
    for _ in range(draw(st.integers(1, 6))):
        pts = []
        for _ in range(draw(st.integers(0, 12))):
            u = draw(st.sampled_from(COORDS))
            v = u + draw(st.sampled_from([5e-324, 1e-9, 0.25, 1.0, 2.0, 1e100]))
            if v > u:  # 1e150 + 1e-9 rounds back to 1e150
                pts.append((u, v, draw(st.integers(1, 3))))
        if draw(st.integers(0, 9)) == 0:
            pts.append((1e308, 1.5e308, 1))
        diagrams.append(PersistenceDiagram.from_pairs(pts))
    return diagrams


def former_embed_diagrams(diagrams, kind, width, count):
    """Diagram by diagram as embedding worked before the array pass: scalar map
    per point, dict merge, scalar loop; the first diagram to fail raises."""
    fn = TRANSFORMS[kind]
    vectors = []
    for d in diagrams:
        pairs = [(fn(p.birth, p.death), p.multiplicity) for p in d.points]
        vectors.append(scalar_esp(dict_merged(pairs), count))
    return [z for vec in vectors for z in vec]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(diagram_lists(), st.sampled_from("RST"), st.none() | st.integers(-1, 41),
       st.none() | st.integers(0, 12), st.sampled_from([6, 1 << 16]))
def test_database_pass_equals_diagram_by_diagram(diagrams, kind, count, cramped, budget):
    """The one pass gives the per-diagram calls' vectors or first error; a ``cramped``
    width may lie below some diagram's size, and ``count`` may lie outside [1, width]."""
    width = max(40, *(d.total_multiplicity() for d in diagrams)) if cramped is None else cramped

    def one_pass():
        with mock.patch.object(coefficients, "_BLOCK_ELEMENTS", budget):
            vectors = embed_diagrams(diagrams, kind, width, count)
        assert all(vec.width == width for vec in vectors)
        return [z for vec in vectors for z in vec.coefficients]

    def one_by_one():
        return [z for d in diagrams for z in embed_diagram(d, kind, width, count).coefficients]

    want = outcome(one_by_one)
    assert outcome(one_pass) == want
    if cramped is None and (count is None or 1 <= count <= width):  # the scalar oracle agrees
        k = math.isqrt(width) if count is None else count
        assert outcome(former_embed_diagrams, diagrams, kind, width, k) == want


def test_database_pass_edge_cases():
    empty, single = PersistenceDiagram(), PersistenceDiagram.from_pairs([(0, 2)])
    assert embed_diagrams([], "R", 3) == []
    assert [v.coefficients for v in embed_diagrams([empty, single], "R", 4, 3)] == [
        (0j, 0j, 0j), (2j, 0j, 0j)]
    with pytest.raises(ValueError, match="cannot pad width 2 down to 1"):
        embed_diagrams([PersistenceDiagram.from_pairs([(0, 1, 2)])], "R", 1)
    with pytest.raises(ValueError, match="count"):
        embed_diagrams([single], "R", 1, 2)
    # zero roots, +-0 parts and equal roots stay unmerged in the pass's rows and
    # change no bit; (-2, 0) and (0, 2) have one T root
    tiny = PersistenceDiagram.from_pairs(
        [(0.0, 5e-324), (-1e-310, -1e-310 + 5e-324), (-0.0, 0.25), (-2.0, 0.0), (0.0, 2.0)])
    database = [tiny, single, tiny]
    for kind in "RST":
        assert [bits(v.coefficients) for v in embed_diagrams(database, kind, 5, 5)] == [
            bits(embed_diagram(d, kind, 5, 5).coefficients) for d in database]


def test_empty_database_pass_raises_its_own_error():
    # with no diagram to replay a failed pass on, the pass's error is raised
    with pytest.raises(ValueError, match="^width must be a positive integer, got 0$"):
        embed_diagrams([], "T", 0)


def test_database_pass_holds_one_block_at_a_time():
    """300 diagrams of 600 points span several kernel blocks; the pass's peak stays
    within a few block-sized arrays, where one complex array of all 180,000 roots
    would alone take 2.9 MB."""
    rng = np.random.default_rng(0)
    births = [rng.uniform(0, 1, 600) for _ in range(300)]
    diagrams = [PersistenceDiagram(b, b + rng.uniform(0, 1, 600)) for b in births]
    assert len(list(coefficients._blocks([600] * 300))) >= 3
    tracemalloc.start()
    try:
        embed_diagrams(diagrams, "T", 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 16 * coefficients._BLOCK_ELEMENTS  # six complex arrays of one block


FAR = (1e308, 1.5e308)  # hypot overflows: no finite T root
THREE = PersistenceDiagram.from_pairs([(0, 1), (0, 2), (0, 3)])


@pytest.mark.parametrize(
    "diagrams, width, count, message",
    [
        # a bad point in the first diagram comes before a later diagram's width
        ([PersistenceDiagram.from_pairs([FAR]), THREE], 2, 1, "lies too far from the origin"),
        # ... and before the count, as in the per-diagram call
        ([PersistenceDiagram.from_pairs([FAR, (0, 1), (0, 2)])], 3, 5, "lies too far from the origin"),
        # a too wide first diagram comes before the count
        ([THREE], 2, 5, "cannot pad width 3 down to 2"),
    ],
)
def test_database_pass_raises_the_first_per_diagram_error(diagrams, width, count, message):
    for embed in (lambda: embed_diagrams(diagrams, "T", width, count),
                  lambda: [embed_diagram(d, "T", width, count) for d in diagrams]):
        with pytest.raises(ValueError, match=message):
            embed()


@pytest.mark.parametrize(
    "embed",
    [
        lambda: embed_roots(transform_diagram(THREE, "T"), 2, 1),
        lambda: embed_diagram(THREE, "T", 2, 1),
        lambda: embed_diagrams([PersistenceDiagram(), THREE, THREE], "T", 2, 1),
    ],
    ids=["embed_roots", "embed_diagram", "embed_diagrams"],
)
def test_every_entry_point_keeps_one_width_rule(embed):
    with pytest.raises(ValueError) as exc:
        embed()
    assert str(exc.value) == "cannot pad width 3 down to 2"
