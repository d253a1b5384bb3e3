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
from typing import Iterator

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

    # -- geometry ---------------------------------------------------------

    def sites(self) -> Iterator[Site]:
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)

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
            n = (r, c - 1)
        elif leg is Leg.RIGHT:
            n = (r, c + 1)
        else:
            n = (r + 1, c) if self.kind(site) is SiteKind.TOP else (r - 1, c)
        return n if self.contains(n) else None

    def leg_between(self, site: Site, other: Site) -> Leg:
        for leg in Leg:
            if self.neighbor(site, leg) == other:
                return leg
        raise ValueError(f"{site} and {other} are not neighbours")

    def bonds(self) -> list[Bond]:
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                if c + 1 < self.cols:
                    out.append(Bond((r, c), (r, c + 1)))
                if r + 1 < self.rows and (r + c) % 2 == 0:
                    out.append(Bond((r, c), (r + 1, c)))
        return out

    def incident(self, site: Site) -> list[tuple[Leg, Site]]:
        """Attached legs as (leg, neighbour) pairs."""
        out = []
        for leg in Leg:
            n = self.neighbor(site, leg)
            if n is not None:
                out.append((leg, n))
        return out

    def degree(self, site: Site) -> int:
        return len(self.incident(site))

    def dangling(self) -> list[tuple[Site, Leg]]:
        """All (site, leg) pairs whose leg leaves the patch."""
        out = []
        for site in self.sites():
            for leg in Leg:
                if self.neighbor(site, leg) is None:
                    out.append((site, leg))
        return out

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
