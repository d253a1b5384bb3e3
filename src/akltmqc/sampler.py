"""Stage 1 of the protocol: the polarizing round and matched bonds.

Exact mode draws the axis of every site from the true joint distribution
by chain-rule sampling on the double layer; IID mode draws axes
uniformly and independently, the approximation used for large-lattice
routing studies (single-site marginals are exactly uniform; only weak
inter-site correlations are dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .contraction import BoundaryTermination, chain_rule_sample
from .lattice import Bond, HexLattice, Site
from .tensors import AXES


_AXIS_CODE = {a: i for i, a in enumerate(AXES)}


class SampleMode(str, Enum):
    EXACT = "exact"
    IID = "iid"


@dataclass(frozen=True)
class AxisAssignment:
    """The polarizing axis of every site."""

    axes: dict[Site, str]
    _codes: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __getitem__(self, site: Site) -> str:
        return self.axes[site]

    def codes(self, lattice: HexLattice) -> np.ndarray:
        """Index into ``AXES`` of every site's axis, in row-major order.

        Validates the assignment on the first call for a lattice shape and
        keeps the read-only int8 array for later calls.
        """
        shape = (lattice.rows, lattice.cols)
        codes = self._codes.get(shape)
        if codes is None:
            sites = list(lattice.sites())
            missing = [s for s in sites if s not in self.axes]
            if missing:
                raise ValueError(f"assignment missing sites {missing[:4]}")
            bad = set(self.axes.values()).difference(AXES)
            if bad:
                raise ValueError(f"unknown axes {bad}")
            axes = map(self.axes.__getitem__, sites)
            codes = np.fromiter(map(_AXIS_CODE.__getitem__, axes), np.int8)
            codes.flags.writeable = False
            self._codes[shape] = codes
        return codes

    def validate(self, lattice: HexLattice) -> None:
        self.codes(lattice)

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
        draws = rng.integers(0, 3, size=len(sites)).tolist()
        return AxisAssignment({s: AXES[d] for s, d in zip(sites, draws)})
    steps = chain_rule_sample(lattice, term, rng_seed)
    return AxisAssignment({s.site: s.outcome for s in steps})


def matched_mask(
    lattice: HexLattice, assignment: AxisAssignment
) -> np.ndarray:
    """Which bonds of ``lattice.bond_table()`` join two same-axis sites."""
    codes = assignment.codes(lattice)
    a, b = lattice.bond_table()
    return codes[a] == codes[b]


def matched_bonds(
    lattice: HexLattice, assignment: AxisAssignment
) -> frozenset[Bond]:
    """Bonds whose endpoints were polarized along the same axis."""
    mask = matched_mask(lattice, assignment)
    return frozenset(Bond(a, b) for a, b in lattice.bond_sites(mask))
