"""Stage 1 of the protocol: the polarizing round and matched bonds.

Exact mode draws the axis of every site from the true joint distribution
by chain-rule sampling on the double layer; IID mode draws axes
uniformly and independently, the approximation used for large-lattice
routing studies (single-site marginals are exactly uniform; only weak
inter-site correlations are dropped).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .contraction import BoundaryTermination, chain_rule_sample
from .lattice import Bond, HexLattice, Site
from .tensors import AXES


class SampleMode(str, Enum):
    EXACT = "exact"
    IID = "iid"


@dataclass(frozen=True)
class AxisAssignment:
    """The polarizing axis of every site."""

    axes: dict[Site, str]

    def __getitem__(self, site: Site) -> str:
        return self.axes[site]

    def validate(self, lattice: HexLattice) -> None:
        missing = [s for s in lattice.sites() if s not in self.axes]
        if missing:
            raise ValueError(f"assignment missing sites {missing[:4]}")
        bad = [a for a in self.axes.values() if a not in AXES]
        if bad:
            raise ValueError(f"unknown axes {set(bad)}")

    def to_json(self, lattice: HexLattice) -> dict:
        self.validate(lattice)
        return {
            "rows": lattice.rows,
            "cols": lattice.cols,
            "axes": [
                [self.axes[(r, c)] for c in range(lattice.cols)]
                for r in range(lattice.rows)
            ],
        }


def stage1_sample(
    lattice: HexLattice,
    term: BoundaryTermination | None,
    mode: SampleMode | str,
    rng_seed: int,
) -> AxisAssignment:
    """Polarize every site and return the sampled axes."""
    mode = SampleMode(mode)
    if mode is SampleMode.IID:
        rng = np.random.default_rng(rng_seed)
        sites = list(lattice.sites())
        draws = rng.integers(0, 3, size=len(sites))
        return AxisAssignment({s: AXES[d] for s, d in zip(sites, draws)})
    steps = chain_rule_sample(lattice, term, rng_seed)
    return AxisAssignment({s.site: s.outcome for s in steps})


def matched_bonds(
    lattice: HexLattice, assignment: AxisAssignment
) -> frozenset[Bond]:
    """Bonds whose endpoints were polarized along the same axis."""
    assignment.validate(lattice)
    return frozenset(
        b for b in lattice.bonds() if assignment[b.a] == assignment[b.b]
    )
