"""Seeded distribution sampling with counter-based stream splitting.

Every random draw derives from (seed, index) through SHA-256, so sweeps are
reproducible regardless of evaluation order or parallelism.
"""

from __future__ import annotations

import hashlib
import random
from itertools import product
from typing import Iterator, Sequence

from .entropy import SourceDistribution


def split_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"dicbound:{seed}:{index}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def dirichlet_table(rng: random.Random, size: int) -> list[float]:
    """Flat Dirichlet draw: normalized unit exponentials."""
    draws = [rng.expovariate(1.0) for _ in range(size)]
    total = sum(draws)
    if total <= 0.0:  # vanishing chance; keep the sampler total
        return [1.0 / size] * size
    return [d / total for d in draws]


def sample_product_distribution(sizes: Sequence[int], seed: int, index: int) -> SourceDistribution:
    """Per-source flat-Dirichlet product distribution for sample ``index``."""
    rng = split_rng(seed, index)
    return SourceDistribution("product", sizes, [dirichlet_table(rng, s) for s in sizes])


def region_distribution_stream(sizes: Sequence[int], seed: int) -> Iterator[SourceDistribution]:
    """The sweep used for region sampling: uniform first, then every point
    mass in lexicographic order, then seeded Dirichlet draws."""
    yield SourceDistribution.uniform(sizes)
    for point in product(*(range(s) for s in sizes)):
        yield SourceDistribution.point_mass(sizes, point)
    index = 0
    while True:
        yield sample_product_distribution(sizes, seed, index)
        index += 1
