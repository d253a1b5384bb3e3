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
from itertools import product

import numpy as np

from .contraction import BoundaryTermination, chain_rule_sample
from .lattice import Bond, HexLattice, Site
from .tensors import AXES


_AXIS_CODE = {a: i for i, a in enumerate(AXES)}


class SampleMode(str, Enum):
    EXACT = "exact"
    IID = "iid"


class _CodedAxes(Mapping):
    """Read-only site -> axis view of a row-major list of ``AXES`` indices."""

    def __init__(self, rows: int, cols: int, codes: list[int]):
        self._rows, self._cols, self._codes = rows, cols, codes

    def __getitem__(self, site: Site) -> str:
        r, c = site
        if not (0 <= r < self._rows and 0 <= c < self._cols):
            raise KeyError(site)
        return AXES[self._codes[r * self._cols + c]]

    def __iter__(self):
        return product(range(self._rows), range(self._cols))

    def __len__(self) -> int:
        return self._rows * self._cols


@dataclass(frozen=True)
class AxisAssignment:
    """The polarizing axis of every site."""

    axes: Mapping[Site, str]
    _codes: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def from_codes(
        cls, lattice: HexLattice, codes: np.ndarray
    ) -> AxisAssignment:
        """The assignment whose row-major ``AXES`` indices are ``codes``.

        ``codes`` (one entry 0, 1 or 2 per site) becomes the cached code
        array for the lattice's shape, and ``axes`` reads each site's axis
        off it, so neither is rebuilt from the other.
        """
        codes = codes.astype(np.int8)
        codes.flags.writeable = False
        shape = (lattice.rows, lattice.cols)
        out = cls(_CodedAxes(*shape, codes.tolist()))
        out._codes[shape] = codes
        return out

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
        draws = rng.integers(0, 3, size=lattice.n_sites)
        return AxisAssignment.from_codes(lattice, draws)
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
