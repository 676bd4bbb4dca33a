"""Fermion-to-qubit encodings on an open 3D cubic lattice.

Three encodings are provided:

* ``jw``: plain Jordan-Wigner with one qubit per fermionic mode, numbered
  by ``mode_index``.
* ``vc``: locality-preserving encoding with two auxiliary modes (mu, nu) per
  site, six qubits per site.  Hopping along y (z) is dressed with the product
  of auxiliary Majorana operators i*mu(i)*mubar(j) (i*nu(i)*nubar(j)) so the
  Z strings cancel and the image stays geometrically local.  The code space
  is fixed by one stabilizer per directed path edge.  One walk makes both
  path sets: a boustrophedon through each x-y (y-z) plane in columns along
  y (z), so every y (z) bond is a mu (nu) path edge.
* ``compact``: per-species edge/vertex construction with face ancillas,
  stacked four times (one independent copy per species).  Only
  parity-preserving composites (hopping, number) are representable.

The raster order walks each x-y plane in an x-major boustrophedon and stacks
planes along z, so x-neighbors are always adjacent in the 1D mode order.
Species order within a site: up-proton, down-proton, up-neutron, down-neutron.

Images are made with ``PauliSum.from_masks``, and a hopping image is
written from its masks; the ladder composition in
``tests/pauli_reference.py`` checks each bit for bit.  No string is built
until an image is read.  The vc path-edge operators are built once per layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (DimensionError, GeometryError, UnsupportedOperatorError,
                     check_count)
from .fock import ANNIHILATE, CREATE, NUMBER, FermionSum, FermionTerm
from .pauli import PauliString, PauliSum, multiply

N_SPECIES = 4

# intra-site qubit offsets in the VC encoding
_VC_MU = 4
_VC_NU = 5


@dataclass(frozen=True)
class LatticeSpec:
    """Open cubic lattice: site extents per axis and spacing in fm."""

    Lx: int
    Ly: int
    Lz: int
    a_L: float

    def __post_init__(self):
        for name in ("Lx", "Ly", "Lz"):
            object.__setattr__(self, name, check_count(
                getattr(self, name), f"extent {name}", 1, GeometryError))
        if not self.a_L > 0:
            raise GeometryError(f"lattice spacing must be positive, got {self.a_L}")

    @property
    def n_sites(self) -> int:
        return self.Lx * self.Ly * self.Lz

    def contains(self, site: tuple[int, int, int]) -> bool:
        x, y, z = site
        return 0 <= x < self.Lx and 0 <= y < self.Ly and 0 <= z < self.Lz

    def raster_index(self, site: tuple[int, int, int]) -> int:
        """Position of a site along the snaking 1D ordering."""
        x, y, z = site
        if not self.contains(site):
            raise GeometryError(f"site {site} outside lattice")
        row_x = x if y % 2 == 0 else self.Lx - 1 - x
        return z * self.Lx * self.Ly + y * self.Lx + row_x

    def site_at(self, raster: int) -> tuple[int, int, int]:
        if not 0 <= raster < self.n_sites:
            raise GeometryError(f"raster index {raster} out of range")
        z, rem = divmod(raster, self.Lx * self.Ly)
        y, row_x = divmod(rem, self.Lx)
        x = row_x if y % 2 == 0 else self.Lx - 1 - row_x
        return (x, y, z)

    def sites(self):
        """All sites in raster order."""
        for r in range(self.n_sites):
            yield self.site_at(r)

    def bonds(self):
        """Nearest-neighbor bonds, site-major: per site in raster order,
        emit its +x, +y, +z neighbors (when present)."""
        for site in self.sites():
            x, y, z = site
            for axis, other in enumerate(((x + 1, y, z), (x, y + 1, z), (x, y, z + 1))):
                if self.contains(other):
                    yield site, other, axis

    def bond_axis(self, site_i, site_j) -> int:
        """Axis (0, 1, 2) of a nearest-neighbor pair; rejects non-neighbors."""
        if not (self.contains(site_i) and self.contains(site_j)):
            raise GeometryError(f"site outside lattice: {site_i}, {site_j}")
        diffs = [abs(a - b) for a, b in zip(site_i, site_j)]
        if sorted(diffs) != [0, 0, 1]:
            raise GeometryError(f"sites {site_i} and {site_j} are not nearest neighbors")
        return diffs.index(1)


def mode_index(lattice: LatticeSpec, site, species: int) -> int:
    """The mode of (site, species): sites in raster order, species within."""
    return N_SPECIES * lattice.raster_index(site) + species


def _path_edges(lat: LatticeSpec, axis: int) -> list[tuple[int, int]]:
    """Directed raster edges of the paths covering every bond along ``axis``
    (1: y, one mu path per x-y plane; 2: z, one nu path per y-z plane).
    Each path walks its plane in columns along ``axis``, alternating
    direction."""
    shift = axis - 1  # (column, row, plane) axes are (x, y, z) rotated
    extents = (lat.Lx, lat.Ly, lat.Lz)
    n_cols, n_rows, n_planes = extents[shift:] + extents[:shift]
    edges = []
    for plane in range(n_planes):
        walk = []
        for col in range(n_cols):
            rows = range(n_rows) if col % 2 == 0 else range(n_rows - 1, -1, -1)
            for row in rows:
                cell = (col, row, plane)
                walk.append(lat.raster_index(cell[3 - shift:] + cell[:3 - shift]))
        edges.extend(zip(walk, walk[1:]))
    return edges


class QubitLayout:
    """Site/role -> qubit index map for one encoding on one lattice."""

    def __init__(self, encoding: str, lattice: LatticeSpec):
        if encoding not in ("jw", "vc", "compact"):
            raise ValueError(f"unknown encoding {encoding!r}")
        self.encoding = encoding
        self.lattice = lattice
        n = lattice.n_sites
        if encoding == "jw":
            self.total_qubits = 4 * n
        elif encoding == "vc":
            self.total_qubits = 6 * n
            # the operator of each path edge keyed by its two raster
            # indices, per bond axis it dresses: a y bond can be both a mu
            # and a nu edge
            self._dressings = {
                axis: {frozenset(edge): _vc_edge(self, which, *edge)
                       for edge in _path_edges(lattice, axis)}
                for axis, which in ((1, "mu"), (2, "nu"))}
        else:
            # four stacked single-species codes, 2.5 qubits per mode budgeted
            self._block = math.ceil(2.5 * n)
            self.total_qubits = 4 * self._block
            self._faces = {f: k for k, f in enumerate(_colored_faces(lattice))}

    def qubit(self, site: tuple[int, int, int], species: int) -> int:
        """Qubit holding the occupation of (site, species)."""
        if not 0 <= species < N_SPECIES:
            raise DimensionError(f"species index {species} out of range")
        if self.encoding == "jw":
            return mode_index(self.lattice, site, species)
        r = self.lattice.raster_index(site)
        if self.encoding == "vc":
            return 6 * r + species
        return species * self._block + r

    def face_qubit(self, species: int, face) -> int:
        if self.encoding != "compact":
            raise UnsupportedOperatorError("face ancillas exist only in the compact encoding")
        return species * self._block + self.lattice.n_sites + self._faces[face]


def _colored_faces(lat: LatticeSpec):
    """Faces carrying an ancilla: anchor parity (x+y+z) even, checkerboard.

    A face is (orientation, x, y, z) with (x, y, z) its minimum corner.
    """
    out = []
    for z in range(lat.Lz):
        for y in range(lat.Ly):
            for x in range(lat.Lx):
                if (x + y + z) % 2 != 0:
                    continue
                if x + 1 < lat.Lx and y + 1 < lat.Ly:
                    out.append(("xy", x, y, z))
                if x + 1 < lat.Lx and z + 1 < lat.Lz:
                    out.append(("xz", x, y, z))
                if y + 1 < lat.Ly and z + 1 < lat.Lz:
                    out.append(("yz", x, y, z))
    return out


def _edge_faces(site, axis):
    """The four faces that would contain the bond from ``site`` along
    ``axis``, whether or not the lattice has them."""
    x, y, z = site
    if axis == 0:
        return [("xy", x, y, z), ("xy", x, y - 1, z), ("xz", x, y, z), ("xz", x, y, z - 1)]
    if axis == 1:
        return [("xy", x, y, z), ("xy", x - 1, y, z), ("yz", x, y, z), ("yz", x, y, z - 1)]
    return [("xz", x, y, z), ("xz", x - 1, y, z), ("yz", x, y, z), ("yz", x, y - 1, z)]


# ---------------------------------------------------------------------------
# ladder operators


def _jw_ladder(n_qubits: int, mode: int, kind: str) -> PauliSum:
    z_string = (1 << mode) - 1
    bit = 1 << mode
    sign = 1j if kind == ANNIHILATE else -1j
    return PauliSum.from_masks(n_qubits, [(0.5, bit, z_string, 0),
                                          (0.5 * sign, bit, z_string | bit, 0)])


def _number(n_qubits: int, mode: int) -> PauliSum:
    return PauliSum.from_masks(n_qubits, [(0.5, 0, 0, 0),
                                          (-0.5, 0, 1 << mode, 0)])


def _vc_majorana(layout: QubitLayout, site, which: str, barred: bool) -> PauliString:
    """Jordan-Wigner Majorana on the site's mu or nu qubit: X there (Y when
    barred) and Z on every qubit below it."""
    bit = 1 << (layout.qubit(site, 0) + (_VC_NU if which == "nu" else _VC_MU))
    return PauliString(layout.total_qubits, bit,
                       (bit - 1) | (bit if barred else 0))


def _vc_edge(layout: QubitLayout, which: str, ra: int, rb: int) -> PauliString:
    """i * maj(a) * majbar(b) for the directed path edge from raster a to b."""
    lat = layout.lattice
    prod = multiply(_vc_majorana(layout, lat.site_at(ra), which, barred=False),
                    _vc_majorana(layout, lat.site_at(rb), which, barred=True))
    return PauliString(prod.n_qubits, prod.x_mask, prod.z_mask, prod.phase + 1)


def encode_ladder(layout: QubitLayout, site, species: int, kind: str) -> PauliSum:
    """Image of a single creation/annihilation operator."""
    if kind not in (CREATE, ANNIHILATE):
        raise ValueError(f"kind must be {CREATE!r} or {ANNIHILATE!r}")
    if not 0 <= species < N_SPECIES:
        raise DimensionError(f"species index {species} out of range")
    if layout.encoding == "compact":
        raise UnsupportedOperatorError(
            "compact encoding represents only parity-preserving composites")
    # a vc ladder is the Jordan-Wigner one on its occupation qubit: its Z
    # string covers every qubit below, auxiliaries included
    return _jw_ladder(layout.total_qubits, layout.qubit(site, species), kind)


def encode_number(layout: QubitLayout, site, species: int) -> PauliSum:
    """(1 - Z)/2 on the occupation qubit, identical in all encodings."""
    return _number(layout.total_qubits, layout.qubit(site, species))


def encode_hopping(layout: QubitLayout, site_i, site_j, species: int) -> PauliSum:
    """Image of adag(i) a(j) + adag(j) a(i) for one species, written from
    its masks: (XX + YY)/2 times the Z string between or the face factor."""
    lat = layout.lattice
    axis = lat.bond_axis(site_i, site_j)
    ri, rj = lat.raster_index(site_i), lat.raster_index(site_j)
    if ri > rj:
        site_i, site_j = site_j, site_i
    qi = layout.qubit(site_i, species)
    qj = layout.qubit(site_j, species)
    ends = (1 << qi) | (1 << qj)
    n = layout.total_qubits
    if layout.encoding == "compact":
        # -(i/2) E(i,j) (V(j) - V(i)) reduces to (XX + YY)/2 times Z on
        # the ancillas of the coloured faces that exist
        faces = 0
        for face in _edge_faces(site_i, axis):
            if face in layout._faces:
                faces |= 1 << layout.face_qubit(species, face)
        return PauliSum.from_masks(n, [(0.5, ends, faces, 0),
                                       (0.5, ends, faces | ends, 0)])
    between = (1 << qj) - (1 << (qi + 1))  # the qubits strictly between
    bare = PauliSum.from_masks(n, [(0.5, ends, between | ends, 0),
                                   (0.5, ends, between, 0)])
    if layout.encoding == "vc" and axis != 0:
        # i * maj(i) * majbar(j): every y (z) bond is a mu (nu) path edge
        bare = bare * PauliSum.from_string(
            1.0, layout._dressings[axis][frozenset((ri, rj))])
    return bare


def vc_stabilizers(layout: QubitLayout) -> list[PauliString]:
    """One stabilizer i*maj(a)*majbar(b) per directed path edge."""
    if layout.encoding != "vc":
        raise UnsupportedOperatorError("stabilizers are defined for the vc encoding only")
    return [edge for dressings in layout._dressings.values()
            for edge in dressings.values()]


def encode_fermion_sum(layout: QubitLayout, h: FermionSum) -> PauliSum:
    """Encode a whole fermionic operator; modes are numbered by mode_index.

    Only the jw layout is supported here (the oracle comparison path); vc
    needs the dressed bond-level builders and compact has no ladder images.
    """
    if layout.encoding != "jw":
        raise UnsupportedOperatorError("direct operator encoding is jw-only")
    n = layout.total_qubits
    if h.n_modes != n:
        raise DimensionError(f"operator has {h.n_modes} modes, layout {n} qubits")
    return PauliSum.from_masks(n, [(c, x, z, 0) for term in h.terms
                                   for (x, z), c in _jw_term(n, term).masks.items()])


def _jw_term(n_qubits: int, term: FermionTerm) -> PauliSum:
    """Jordan-Wigner image of one canonical fermion term."""
    acc = PauliSum.from_masks(n_qubits, [(term.weight, 0, 0, 0)])
    for mode, kind in term.factors:
        acc = acc * (_number(n_qubits, mode) if kind == NUMBER
                     else _jw_ladder(n_qubits, mode, kind))
    return acc
