"""Torus grids: full tensor grids, multi-index sets, dyadic sparse grids.

Nodes live on the period cell [0, 2pi) with per-dimension counts N_r and
spacing 2pi/N_r.  Sparse grids at level ``l`` in dimension ``d`` are unions
of anisotropic dyadic grids with 2^{n_r} points per dimension over all
multi-indices with |n| = l + d - 1; the combination technique assembles the
matching signed sum of full-grid approximants.

Sparse-grid nodes are int64 position words: the row-major flat index of
the node in the finest (2^L)^d grid, with L the sparse level.  Node j_r of
a component grid with 2^{n_r} points per dimension sits at finest index
j_r 2^{L - n_r}, so a node shared by several grids has one word.  Words
are deduplicated by sorting, and their ascending order is the lexicographic
order of the node coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "FullGridSpec",
    "SparseGridSpec",
    "CombinationTerm",
    "full_grid_nodes",
    "multi_indices_with_sum",
    "combination_terms",
    "combination_grid_words",
    "check_sparse_grid_size",
    "sparse_grid_points",
    "sparse_grid_nodes",
    "sparse_grid_count_formula",
]

FULL_GRID_MAX_POINTS = 2**26
SPARSE_GRID_MAX_POINTS = 2**24

TWO_PI = 2.0 * math.pi

@dataclass(frozen=True)
class FullGridSpec:
    """Tensor grid with counts[r] equispaced nodes per dimension."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(n) for n in self.counts)
        if not counts:
            raise ValueError("need at least one dimension")
        if any(n < 2 for n in counts):
            raise ValueError(f"every count must be >= 2, got {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def dims(self) -> int:
        return len(self.counts)

    @property
    def size(self) -> int:
        return reduce(lambda a, b: a * b, self.counts, 1)

    def axis(self, r: int) -> np.ndarray:
        """Node coordinates 2 pi j / N_r along dimension r."""
        n = self.counts[r]
        return TWO_PI * np.arange(n) / n


@dataclass(frozen=True)
class SparseGridSpec:
    """Dyadic sparse grid at refinement ``level`` in ``dims`` dimensions."""

    level: int
    dims: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")


@dataclass(frozen=True)
class CombinationTerm:
    """One signed anisotropic component of the combination technique."""

    coeff: int
    index: tuple[int, ...]
    grid: FullGridSpec


def full_grid_nodes(spec: FullGridSpec) -> np.ndarray:
    """All nodes as an array of shape (prod N_r, dims), lexicographic order."""
    if spec.size > FULL_GRID_MAX_POINTS:
        raise ValueError(
            f"grid of {spec.size} points exceeds the {FULL_GRID_MAX_POINTS} guard"
        )
    axes = [spec.axis(r) for r in range(spec.dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def multi_indices_with_sum(total: int, d: int) -> list[tuple[int, ...]]:
    """All d-tuples of integers >= 1 summing to ``total``, lexicographic."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if total < d:
        return []
    if d == 1:
        return [(total,)]
    out: list[tuple[int, ...]] = []
    for first in range(1, total - d + 2):
        out.extend((first,) + rest for rest in multi_indices_with_sum(total - first, d - 1))
    return out


def combination_terms(spec: SparseGridSpec) -> list[CombinationTerm]:
    """Signed anisotropic grids of the combination technique.

    For j = 0..d-1, every multi-index with |n| = level + j contributes the
    coefficient (-1)^(d-1) (-1)^j C(d-1, j); levels whose index set is
    empty (|n| < d) are skipped.  In one dimension this degenerates to the
    single full grid with coefficient +1.
    """
    d = spec.dims
    sign = (-1) ** (d - 1)
    out: list[CombinationTerm] = []
    for j in range(d):
        coeff = sign * (-1) ** j * math.comb(d - 1, j)
        for index in multi_indices_with_sum(spec.level + j, d):
            grid = FullGridSpec(tuple(2**n for n in index))
            out.append(CombinationTerm(coeff=coeff, index=index, grid=grid))
    return out


def combination_grid_words(index: tuple[int, ...], level: int) -> np.ndarray:
    """Position words of the grid with 2^{n_r} nodes per dimension.

    Returns an int64 array of shape (2^{n_0}, ..., 2^{n_{d-1}}) whose entry
    at node (j_0, ..., j_{d-1}) is sum_r (j_r << (level - n_r)) << (level
    (d - 1 - r)), the node's flat index in the finest (2^level)^d grid.
    """
    d = len(index)
    words = np.zeros((1,) * d, dtype=np.int64)
    for r, n in enumerate(index):
        pos = np.arange(2**n, dtype=np.int64) << (level - n + level * (d - 1 - r))
        words = words + pos.reshape(tuple(2**n if i == r else 1 for i in range(d)))
    return words


def check_sparse_grid_size(spec: SparseGridSpec) -> None:
    """Raise ValueError if the sparse grid is too large to enumerate.

    Its position words must fit in 62 bits, and its node count (from
    :func:`sparse_grid_count_formula`) must not exceed
    ``SPARSE_GRID_MAX_POINTS``.
    """
    if spec.level * spec.dims > 62:
        raise ValueError("sparse grid position words exceed 62 bits")
    expected = sparse_grid_count_formula(spec)
    if expected > SPARSE_GRID_MAX_POINTS:
        raise ValueError(
            f"sparse grid of {expected} points exceeds the "
            f"{SPARSE_GRID_MAX_POINTS} guard"
        )


def sparse_grid_points(spec: SparseGridSpec) -> np.ndarray:
    """Sorted, distinct position words of the sparse grid's nodes.

    Only |n| = level + d - 1 grids are enumerated: every coarser grid of
    the combination is nested inside one of them.
    """
    check_sparse_grid_size(spec)
    diagonal = multi_indices_with_sum(spec.level + spec.dims - 1, spec.dims)
    # each grid's words ascend in C order, so a stable sort (timsort) only
    # merges runs; np.unique's sort is ~40x slower here at d=2, level 15
    words = np.sort(
        np.concatenate(
            [combination_grid_words(index, spec.level).ravel() for index in diagonal]
        ),
        kind="stable",
    )
    return words[np.concatenate(([True], words[1:] != words[:-1]))]


def sparse_grid_nodes(spec: SparseGridSpec, words: np.ndarray) -> np.ndarray:
    """Torus coordinates of position words, shape (len(words), dims).

    Dividing by a power of two is exact, so each coordinate is the same
    float as the node's coordinate on every full grid that holds it.
    """
    shifts = spec.level * np.arange(spec.dims - 1, -1, -1, dtype=np.int64)
    j = (words[:, None] >> shifts) & (2**spec.level - 1)
    return TWO_PI * j / 2**spec.level


def sparse_grid_count_formula(spec: SparseGridSpec) -> int:
    """Closed-form cardinality of the sparse grid (exact integers).

    (-1)^(d-1) sum_j (-1)^j C(d-1, j) sum_{|n| = level+j} 2^{|n|}, where the
    inner sum has C(level+j-1, d-1) equal contributions.
    """
    d = spec.dims
    total = 0
    for j in range(d):
        n_indices = math.comb(spec.level + j - 1, d - 1)
        total += (-1) ** j * math.comb(d - 1, j) * n_indices * 2 ** (spec.level + j)
    return (-1) ** (d - 1) * total
