"""Brick-wall embedding of the hexagonal lattice.

Sites live on a rows x cols grid. A site is Top when (row + col) is even,
Bot otherwise. Top sites carry their third leg downward, Bot sites upward,
so vertical bonds join (r, c)-(r+1, c) exactly when (r + c) is even.
Horizontal bonds join all column neighbours. Every site therefore has three
leg directions (LEFT, RIGHT, VERT) of which at most three are attached;
unattached directions dangle at the patch boundary.

Wires of the protocol run from the right edge to the left edge, so the
RIGHT leg of a site faces the input side and the LEFT leg the output side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import product
from typing import Iterator

import numpy as np

MAX_SITES = 1_000_000


class SiteKind(IntEnum):
    TOP = 0
    BOT = 1


class Leg(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    VERT = "vert"


Site = tuple[int, int]


@dataclass(frozen=True, order=True)
class Bond:
    """Unordered pair of neighbouring sites, stored in row-major order."""

    a: Site
    b: Site


class HexLattice:
    """Finite brick-wall patch with the fixed bond rule."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("lattice dimensions must be positive")
        if rows * cols > MAX_SITES:
            raise ValueError("lattice too large")
        self.rows = rows
        self.cols = cols
        self._bond_table: tuple[np.ndarray, np.ndarray] | None = None
        self._neighbor_table: tuple[tuple[int, int, int], ...] | None = None

    # -- geometry ---------------------------------------------------------

    def sites(self) -> Iterator[Site]:
        """Every site in row-major order."""
        return product(range(self.rows), range(self.cols))

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols

    def site_index(self, site: Site) -> int:
        r, c = site
        return r * self.cols + c

    def contains(self, site: Site) -> bool:
        r, c = site
        return 0 <= r < self.rows and 0 <= c < self.cols

    def kind(self, site: Site) -> SiteKind:
        r, c = site
        return SiteKind.TOP if (r + c) % 2 == 0 else SiteKind.BOT

    def neighbor(self, site: Site, leg: Leg) -> Site | None:
        """Neighbour reached through ``leg``, or None when the leg dangles."""
        r, c = site
        if leg is Leg.LEFT:
            c -= 1
        elif leg is Leg.RIGHT:
            c += 1
        else:
            r += 1 if (r + c) % 2 == 0 else -1  # Top stems point down
        return (r, c) if 0 <= r < self.rows and 0 <= c < self.cols else None

    def leg_between(self, site: Site, other: Site) -> Leg:
        for leg in Leg:
            if self.neighbor(site, leg) == other:
                return leg
        raise ValueError(f"{site} and {other} are not neighbours")

    def bond_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Site indices (a, b) of both ends of every bond, built once.

        Bonds run in row-major order of their first site, its horizontal
        bond before its vertical one; ``a`` is always the smaller index.
        The arrays are read-only.
        """
        if self._bond_table is None:
            index = np.arange(self.n_sites, dtype=np.intp)
            r, c = np.divmod(index, self.cols)
            ends = np.stack([index + 1, index + self.cols], axis=1)
            present = np.stack(
                [c + 1 < self.cols, (r + 1 < self.rows) & ((r + c) % 2 == 0)],
                axis=1,
            )
            a = np.broadcast_to(index[:, None], ends.shape)[present]
            b = ends[present]
            a.flags.writeable = b.flags.writeable = False
            self._bond_table = (a, b)
        return self._bond_table

    def neighbor_table(self) -> tuple[tuple[int, int, int], ...]:
        """Site index behind each leg of every site, built once.

        Row ``i`` belongs to site index ``i`` and holds one entry per
        ``Leg`` in enum order (LEFT, RIGHT, VERT); -1 marks a dangling leg.
        The rows are tuples so that searches written as Python loops read
        plain ints, and the table cannot be changed.
        """
        if self._neighbor_table is None:
            index = np.arange(self.n_sites, dtype=np.intp)
            r, c = np.divmod(index, self.cols)
            stem = np.where((r + c) % 2 == 0, self.cols, -self.cols)
            table = np.stack(
                [
                    np.where(c > 0, index - 1, -1),
                    np.where(c + 1 < self.cols, index + 1, -1),
                    np.where(
                        (0 <= index + stem) & (index + stem < self.n_sites),
                        index + stem,
                        -1,
                    ),
                ],
                axis=1,
            )
            self._neighbor_table = tuple(map(tuple, table.tolist()))
        return self._neighbor_table

    def bond_sites(self, picked=slice(None)) -> list[tuple[Site, Site]]:
        """End sites of the ``picked`` bonds of ``bond_table()``, in order.

        ``picked`` is a boolean mask or an index array; the default takes
        every bond.
        """
        a, b = self.bond_table()
        cols = self.cols
        return [
            (divmod(i, cols), divmod(j, cols))
            for i, j in zip(a[picked].tolist(), b[picked].tolist())
        ]

    def bonds(self) -> list[Bond]:
        return [Bond(a, b) for a, b in self.bond_sites()]

    def __repr__(self) -> str:
        return f"HexLattice({self.rows}x{self.cols})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HexLattice)
            and self.rows == other.rows
            and self.cols == other.cols
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols))


def build_lattice(rows: int, cols: int) -> HexLattice:
    """Construct a brick-wall patch; rejects non-positive or oversized dims."""
    return HexLattice(rows, cols)


def ket_role(kind: SiteKind, leg: Leg) -> bool:
    """True when the leg carries a ket index (LEFT always, VERT on Bot).

    RIGHT legs and Top vertical legs carry bra indices. Bonds always pair a
    bra with a ket: horizontal bonds pair RIGHT (bra) with LEFT (ket), and
    vertical bonds pair a Top stem (bra) with the Bot stem below it (ket).
    """
    if leg is Leg.LEFT:
        return True
    if leg is Leg.RIGHT:
        return False
    return kind is SiteKind.BOT
