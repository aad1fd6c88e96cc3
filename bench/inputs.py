"""Seeded benchmark inputs, written from the array definitions.

This module never imports ``mapda``: the inputs and the expected figures
the checks compare against must not change when the package changes, and
the time spent here is part of ``setup_s``.

Grids are lists of rows; an entry is 0 for a star or a positive slot id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

STAR = 0


@dataclass(frozen=True)
class ArrayInput:
    """One generated array plus the figures its construction guarantees."""

    grid: tuple  # F rows of K entries, 0 = star
    antennas: int  # L the construction is valid at
    min_antennas: int  # smallest L at which C4 holds

    @property
    def rows(self):
        return len(self.grid)

    @property
    def cols(self):
        return len(self.grid[0])

    @property
    def stars_per_col(self):
        return sum(1 for row in self.grid if row[0] == STAR)

    @property
    def slots(self):
        return max(e for row in self.grid for e in row)

    @property
    def t(self):
        return Fraction(self.cols * self.stars_per_col, self.rows)

    @property
    def sum_dof(self):
        return Fraction(self.cols * (self.rows - self.stars_per_col), self.slots)

    @property
    def packets(self):
        """Integer cells K(F-Z): the packets one delivery carries."""
        return self.cols * (self.rows - self.stars_per_col)

    def text(self):
        """The array file format: header 'L K F Z S', then the rows."""
        lines = [f"{self.antennas} {self.cols} {self.rows} {self.stars_per_col} {self.slots}"]
        lines += [" ".join("*" if e == STAR else str(e) for e in row) for row in self.grid]
        return "\n".join(lines) + "\n"


def t_subset(users, cached):
    """Rows are the t-subsets of [1..K] in lexicographic order; entry (T, k)
    is a star iff k in T, else the lexicographic rank of T + {k}."""
    rank = {
        sub: i + 1 for i, sub in enumerate(combinations(range(1, users + 1), cached + 1))
    }
    grid = tuple(
        tuple(
            STAR if k in sub else rank[tuple(sorted(sub + (k,)))]
            for k in range(1, users + 1)
        )
        for sub in combinations(range(1, users + 1), cached)
    )
    return ArrayInput(grid, antennas=1, min_antennas=1)


def circulant(users, cached):
    """K x K grid: column k has stars in rows k..k+t-1 (mod K), and slot
    (f - k - t) mod K + 1 elsewhere; valid on K-t antennas."""
    grid = tuple(
        tuple(
            STAR if (f - k) % users < cached else (f - k - cached) % users + 1
            for k in range(1, users + 1)
        )
        for f in range(1, users + 1)
    )
    return ArrayInput(grid, antennas=users - cached, min_antennas=users - cached)


def replicate(base, copies):
    """Horizontal concatenation of copies; antennas scale with copies."""
    return ArrayInput(
        tuple(row * copies for row in base.grid),
        antennas=base.antennas * copies,
        min_antennas=base.min_antennas * copies,
    )


def isomorph(base, rng):
    """Seeded row and column permutation with slot relabelling.

    All three maps preserve C1-C4, the profile and deliverability, so the
    expected figures of ``base`` hold for the result.
    """
    rows = list(range(base.rows))
    cols = list(range(base.cols))
    labels = list(range(1, base.slots + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(labels)
    relabel = [STAR] + labels
    grid = tuple(tuple(relabel[base.grid[f][k]] for k in cols) for f in rows)
    return ArrayInput(grid, antennas=base.antennas, min_antennas=base.min_antennas)


def vandermonde_nodes(users, rng):
    """Distinct positive nodes drawn from [2, users + 5], in random order.

    The narrow range keeps the entry sizes, and so the cost of exact
    arithmetic, nearly the same from seed to seed.
    """
    return rng.sample(range(2, users + 6), users)


def vandermonde_text(antennas, nodes):
    """Channel fixture h[l, k] = node_k ** l.  With distinct positive nodes
    every square submatrix is nonsingular, so every slot system is generic."""
    lines = [f"{antennas} {len(nodes)}"]
    lines += [" ".join(str(node**l) for node in nodes) for l in range(antennas)]
    return "\n".join(lines) + "\n"


# The nine operating points of the paper's comparison table (K, M/N, L).
PUBLISHED_POINTS = (
    (20, Fraction(1, 5), 4),
    (20, Fraction(2, 5), 5),
    (50, Fraction(1, 5), 5),
    (50, Fraction(3, 10), 5),
    (100, Fraction(1, 20), 5),
    (100, Fraction(1, 5), 10),
    (150, Fraction(3, 50), 10),
    (150, Fraction(1, 10), 15),
    (150, Fraction(1, 5), 15),
)


def points_text(points):
    return "".join(f"{k} {ratio} {l}\n" for k, ratio, l in points)


def request_seeds(rng, count):
    """Per-request seeds for --seed (channel, library and demands)."""
    return [rng.randrange(2**31) for _ in range(count)]
