"""Stage 1 of the protocol: the polarizing round and matched bonds.

Exact mode draws the axis of every site from the true joint distribution
by chain-rule sampling on the double layer; IID mode draws axes
uniformly and independently, the approximation used for large-lattice
routing studies (single-site marginals are exactly uniform; only weak
inter-site correlations are dropped).
"""

from __future__ import annotations

from collections.abc import Mapping
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


@dataclass(frozen=True, eq=False)
class AxisAssignment:
    """The polarizing axis of every site of a ``rows`` x ``cols`` patch.

    ``code_array`` holds each site's index into ``AXES``, in row-major
    order, as a read-only int8 array; it is the whole assignment.
    """

    rows: int
    cols: int
    code_array: np.ndarray = field(repr=False)

    @classmethod
    def from_codes(
        cls, lattice: HexLattice, codes: np.ndarray
    ) -> AxisAssignment:
        """The assignment whose row-major ``AXES`` indices are ``codes``."""
        codes = np.array(codes, dtype=np.int8)
        codes.flags.writeable = False
        return cls(lattice.rows, lattice.cols, codes)

    @classmethod
    def from_axes(
        cls, lattice: HexLattice, axes: Mapping[Site, str]
    ) -> AxisAssignment:
        """The assignment of ``axes`` (site -> axis), which must give every
        site of ``lattice`` one of ``AXES``."""
        sites = list(lattice.sites())
        missing = [s for s in sites if s not in axes]
        if missing:
            raise ValueError(f"assignment missing sites {missing[:4]}")
        bad = set(axes.values()).difference(AXES)
        if bad:
            raise ValueError(f"unknown axes {bad}")
        return cls.from_codes(lattice, [_AXIS_CODE[axes[s]] for s in sites])

    def __getitem__(self, site: Site) -> str:
        r, c = site
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise KeyError(site)
        return AXES[self.code_array[r * self.cols + c]]

    def codes(self, lattice: HexLattice) -> np.ndarray:
        """``code_array``, once ``lattice`` is checked to be this patch."""
        if (lattice.rows, lattice.cols) != (self.rows, self.cols):
            raise ValueError(
                f"assignment of a {self.rows}x{self.cols} patch on a "
                f"{lattice.rows}x{lattice.cols} lattice"
            )
        return self.code_array

    def to_json(self, lattice: HexLattice) -> dict:
        grid = self.codes(lattice).reshape(self.rows, self.cols).tolist()
        return {
            "rows": lattice.rows,
            "cols": lattice.cols,
            "axes": [[AXES[k] for k in row] for row in grid],
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
        draws = rng.integers(0, 3, size=lattice.n_sites)
        return AxisAssignment.from_codes(lattice, draws)
    steps = chain_rule_sample(lattice, term, rng_seed)  # row-major
    codes = [_AXIS_CODE[s.outcome] for s in steps]
    return AxisAssignment.from_codes(lattice, codes)


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
