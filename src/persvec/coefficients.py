"""Coefficient vectors: elementary symmetric polynomials of complex roots.

A root multiset of width M determines a degree-M monic polynomial; its
coefficients (up to sign) are the elementary symmetric polynomials
e_1 .. e_M of the roots.  A fingerprint keeps only the first ``count``
of them, by default floor(sqrt(M)).

Root lists of different sizes are compared by zero-padding the shorter
one up to a common width M before taking coefficients.  Zeros leave
every e_j unchanged (a product containing 0 is 0), so padding never
alters the values, only the nominal degree.  Padding up to ``width`` is
therefore never built.

Cost model: one kernel, :func:`_prefix_esp`, computes every vector.  It
loops over j = 1 .. count and, per j, does numpy work over one block of
diagrams at a time, so a database costs about count array passes over
its roots, one scalar map call per point and the memory of one block.
Its values are bit for bit those of the scalar loop ``e_j += z * e_{j-1}``,
which the tests keep as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .transforms import ComplexRootList, _finite_roots, _roots, transform_diagram


@dataclass(frozen=True)
class CoefficientVector:
    """First ``count`` elementary symmetric values of a width-M root multiset.

    ``coefficients[j-1]`` holds e_j; the trivial e_0 = 1 is not stored.
    ``width`` is the padded degree M the vector was computed at; two
    vectors are only comparable at equal width and count, and a vector
    always keeps 1 <= count <= width.
    """

    coefficients: tuple[complex, ...]
    width: int

    def __post_init__(self) -> None:
        width = _positive_width(self.width)
        coeffs = tuple(complex(c) for c in self.coefficients)
        _check_count(len(coeffs), width)
        for j, c in enumerate(coeffs, start=1):
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"coefficient {j} is not finite: {c}")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "width", width)

    @property
    def count(self) -> int:
        return len(self.coefficients)

    def truncate(self, count: int) -> "CoefficientVector":
        """Drop trailing coefficients, keeping the first ``count``."""
        _check_count(count, self.count)
        return CoefficientVector(self.coefficients[:count], self.width)


def _positive_width(width) -> int:
    """The width rule: a positive integer (numpy integers too, bools not), returned as an int."""
    width = width.item() if isinstance(width, np.generic) else width
    if type(width) is not int or width < 1:
        raise ValueError(f"width must be a positive integer, got {width!r}")
    return width


def _check_count(count: int | None, limit: int) -> int:
    """The count rule: from 1 to ``limit`` coefficients; None is floor(sqrt(limit)), the default."""
    count = math.isqrt(limit) if count is None else count
    if not 1 <= count <= limit:
        raise ValueError(f"count must be between 1 and {limit}, got {count}")
    return count


def _check_shape(shape: tuple[int, int], vec: CoefficientVector) -> None:
    """The one-shape rule: vectors compare only at one (width, count) ``shape``."""
    if (vec.width, vec.count) != shape:
        raise ValueError(f"mixed (width, count) shapes {shape} vs {(vec.width, vec.count)}")


def default_coefficient_count(width: int) -> int:
    """floor(sqrt(width)): the default number of coefficients to keep."""
    return _check_count(None, _positive_width(width))


# roots per kernel block: bounds the kernel's memory whatever the database's size
_BLOCK_ELEMENTS = 1 << 16


def _prefix_esp(re: np.ndarray, im: np.ndarray, count: int) -> np.ndarray:
    """(e_1, ..., e_count) of each row's roots re + i*im, as a (rows, count) complex array.

    e_j over a row's first s roots is the running sum of z * e_{j-1} over
    its first s-1: one cumsum per part per j, started from +0.0.  The
    product is written out as CPython's complex product, and cumsum adds
    in sequence, so each value is bit for bit the scalar loop's over the
    row in order.  A term of +-0.0 changes no bit of a sum started at
    +0.0, which is never -0.0; so zero roots anywhere in a row (padding
    too) and the signs of zero parts of any root change no bit either.
    Overflow leaves non-finite values, which stay non-finite.
    """
    rows, width = re.shape
    out = np.zeros((rows, count), dtype=complex)
    prev_re, prev_im = np.ones((rows, width)), np.zeros((rows, width))  # E_{j-1}(s-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(min(count, width)):
            acc_re, acc_im = np.zeros((rows, width + 1)), np.zeros((rows, width + 1))
            np.subtract(re * prev_re, im * prev_im, out=acc_re[:, 1:])
            np.add(re * prev_im, im * prev_re, out=acc_im[:, 1:])
            np.cumsum(acc_re, axis=1, out=acc_re)
            np.cumsum(acc_im, axis=1, out=acc_im)
            out.real[:, j], out.imag[:, j] = acc_re[:, -1], acc_im[:, -1]
            prev_re, prev_im = acc_re[:, :-1], acc_im[:, :-1]
    return out


def _overflow(coeffs: np.ndarray) -> OverflowError | None:
    """The error naming a vector's lowest non-finite coefficient; None if every one is finite."""
    bad = np.flatnonzero(~np.isfinite(coeffs))
    return OverflowError(f"coefficient {bad[0] + 1} overflowed the float range") if len(bad) else None


def elementary_symmetric(roots: Iterable[complex], count: int) -> tuple[complex, ...]:
    """Return (e_1, ..., e_count) of the given plain root values.

    Zero roots are skipped; they contribute nothing to any e_j.  Raises
    OverflowError naming the lowest coefficient that left the finite
    float range.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    z = _finite_roots(np.fromiter(roots, dtype=complex))
    z = z[z != 0]
    coeffs = _prefix_esp(z.real[None], z.imag[None], count)[0]
    if (failure := _overflow(coeffs)) is not None:
        raise failure
    return tuple(coeffs.tolist())


def _check_width(size: int, width: int) -> None:
    """The width rule: ``size`` roots zero-pad to ``width`` only if size <= width."""
    if size > width:
        raise ValueError(f"cannot pad width {size} down to {width}")


def embed_roots(roots: ComplexRootList, width: int, count: int | None = None) -> CoefficientVector:
    """Coefficient vector of a root list zero-padded to ``width``.

    ``count`` defaults to floor(sqrt(width)) and must lie in [1, width].
    """
    width = _positive_width(width)
    _check_width(roots.width, width)
    count = _check_count(count, width)
    z = np.repeat(roots.values, roots.multiplicities)
    return CoefficientVector(elementary_symmetric(z, count), width)


def embed_diagram(diagram, kind: str, width: int, count: int | None = None) -> CoefficientVector:
    """Diagram -> roots under transform ``kind`` -> padded coefficient vector.

    ``width`` must be at least the diagram's total multiplicity; in a
    database it is the largest diagram's size, so every model embeds
    into vectors of one common shape.
    """
    return embed_roots(transform_diagram(diagram, kind), width, count)


def _blocks(sizes: list[int]):
    """Cut ascending sizes into [start, end) runs whose largest is at most twice the
    smallest and whose rows times largest stays within ``_BLOCK_ELEMENTS``."""
    start = 0
    for end in range(1, len(sizes) + 1):
        if (end == len(sizes) or sizes[end] > 2 * sizes[start]
                or (end + 1 - start) * sizes[end] > _BLOCK_ELEMENTS):
            yield start, end
            start = end


def embed_diagrams(diagrams, kind: str, width: int, count: int | None = None) -> list[CoefficientVector]:
    """``[embed_diagram(d, kind, width, count) for d in diagrams]`` in one array pass.

    The vectors are the per-diagram calls'.  One block of diagrams of
    similar size at a time goes through the kernel, one row per diagram:
    its roots from the scalar map, sorted by (real, imag) as in
    :class:`ComplexRootList` but neither merged nor rid of zeros (see
    :func:`_prefix_esp`), and zero-padded at the row end.  A pass that
    fails anywhere is redone diagram by diagram, so the error raised is
    the one the per-diagram calls raise first.
    """
    diagrams = list(diagrams)
    try:
        return _embed_pass(diagrams, kind, width, count)
    except (ValueError, OverflowError):
        for d in diagrams:
            embed_diagram(d, kind, width, count)  # raises the per-diagram calls' first error
        raise


def _embed_pass(diagrams: list, kind: str, width: int, count: int | None) -> list[CoefficientVector]:
    width = _positive_width(width)
    count = _check_count(count, width)
    sizes = [d.total_multiplicity() for d in diagrams]
    _check_width(max(sizes, default=0), width)
    order = np.argsort(sizes, kind="stable")
    coeffs = np.zeros((len(diagrams), count), dtype=complex)
    for i, j in _blocks([sizes[k] for k in order]):
        block = np.zeros((j - i, sizes[order[j - 1]]), dtype=complex)
        for row, k in zip(block, order[i:j]):
            d = diagrams[k]
            z = _roots(kind, d.births, d.deaths)
            o = np.lexsort((z.imag, z.real))  # ComplexRootList's order, equal roots unmerged
            row[: sizes[k]] = np.repeat(z[o], d.multiplicities[o])
        coeffs[order[i:j]] = _prefix_esp(block.real, block.imag, count)
    # the map raises for a point with no root, CoefficientVector for an overflow's
    # non-finite values, in size order; the replay names the first in input order
    return [CoefficientVector(tuple(row), width) for row in coeffs.tolist()]
