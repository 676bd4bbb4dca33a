"""Reference compositions for the Pauli algebra and the encoders.

``canonical`` sums (coefficient, string) pairs the way a canonical sum is
defined, with no code from ``nuceft.pauli`` but the validating
``PauliString``; ``pairwise`` builds a product or a bracket from
``multiply``, one term pair at a time, and sums it so.  Both keep the
validated strings they build, where a ``PauliSum`` stores only its mask map
and builds its strings when read.  The encoder functions compose their
images from ``canonical`` and ``pairwise`` alone: a hopping image, which
``nuceft.encodings`` writes from its masks, is composed here from the
ladder images (jw, vc) or the edge and vertex operators (compact), each
intermediate sum dropping its zeros.  ``exact_terms``
compares two sums bit for bit.  The lattice geometry (qubit layout, path
edges, faces) is read from ``nuceft.encodings``: only the Pauli
composition is independent.
"""

from types import SimpleNamespace

from nuceft.encodings import _VC_MU, _VC_NU, _edge_faces, _path_edges
from nuceft.fock import ANNIHILATE, CREATE, NUMBER
from nuceft.pauli import PauliString, multiply


def exact_terms(p):
    """Terms with each coefficient as its repr, so signed zeros count."""
    return [(repr(c), s) for c, s in p.terms]


def canonical(n_qubits, terms):
    """The canonical sum of (coeff, string) pairs: per (x_mask, z_mask),
    coeff * i**phase accumulated from 0 in input order, then zero
    coefficients dropped, each string built with phase 0."""
    combined = {}
    for coeff, s in terms:
        key = (s.x_mask, s.z_mask)
        combined[key] = combined.get(key, 0) + coeff * 1j ** s.phase
    return SimpleNamespace(n_qubits=n_qubits, terms=tuple(
        (c, PauliString(n_qubits, x, z)) for (x, z), c in combined.items()
        if c != 0))


def pairwise(a, b, keep=None):
    """The product ab, or with ``keep`` (False for commuting pairs, True
    for anticommuting ones) ab - ba or ab + ba, built pair by pair from
    multiply, a-major."""
    if keep is None:
        prods = [(ca * cb, multiply(sa, sb))
                 for ca, sa in a.terms for cb, sb in b.terms]
    else:
        prods = [(2 * ca * cb, multiply(sa, sb))
                 for ca, sa in a.terms for cb, sb in b.terms
                 if (not sa.commutes_with(sb)) == keep]
    return canonical(a.n_qubits, prods)


def plus(a, b):
    return canonical(a.n_qubits, a.terms + b.terms)


def scaled(scalar, a):
    return canonical(a.n_qubits, [(scalar * c, s) for c, s in a.terms])


def jw_ladder(n_qubits, mode, kind):
    z_string = (1 << mode) - 1
    bit = 1 << mode
    x_part = PauliString(n_qubits, bit, z_string)
    y_part = PauliString(n_qubits, bit, z_string | bit)
    sign = 1j if kind == ANNIHILATE else -1j
    return canonical(n_qubits, [(0.5, x_part), (0.5 * sign, y_part)])


def number(n_qubits, mode):
    return canonical(n_qubits, [(0.5, PauliString.identity(n_qubits)),
                                (-0.5, PauliString(n_qubits, 0, 1 << mode))])


def encode_ladder(layout, site, species, kind):
    return jw_ladder(layout.total_qubits, layout.qubit(site, species), kind)


def encode_number(layout, site, species):
    return number(layout.total_qubits, layout.qubit(site, species))


def vc_majorana(layout, site, which, barred):
    bit = 1 << (layout.qubit(site, 0) + (_VC_NU if which == "nu" else _VC_MU))
    return PauliString(layout.total_qubits, bit,
                       (bit - 1) | (bit if barred else 0))


def vc_edge(layout, which, ra, rb):
    lat = layout.lattice
    prod = multiply(vc_majorana(layout, lat.site_at(ra), which, barred=False),
                    vc_majorana(layout, lat.site_at(rb), which, barred=True))
    return PauliString(prod.n_qubits, prod.x_mask, prod.z_mask, prod.phase + 1)


def vc_stabilizers(layout):
    return [vc_edge(layout, which, ra, rb)
            for axis, which in ((1, "mu"), (2, "nu"))
            for ra, rb in _path_edges(layout.lattice, axis)]


def aux_dressing(layout, site_i, site_j, axis):
    which = "mu" if axis == 1 else "nu"
    lat = layout.lattice
    ends = {lat.raster_index(site_i), lat.raster_index(site_j)}
    (edge,) = [e for e in _path_edges(lat, axis) if set(e) == ends]
    return canonical(layout.total_qubits,
                     [(1.0, vc_edge(layout, which, *edge))])


def compact_edge(layout, site_i, site_j, species, axis):
    qi = layout.qubit(site_i, species)
    qj = layout.qubit(site_j, species)
    n = layout.total_qubits
    p_mask = 0
    for face in _edge_faces(site_i, axis):
        if face in layout._faces:
            p_mask |= 1 << layout.face_qubit(species, face)
    return canonical(n, [(1.0, PauliString(n, (1 << qi) | (1 << qj),
                                           (1 << qj) | p_mask))])


def encode_hopping(layout, site_i, site_j, species):
    lat = layout.lattice
    axis = lat.bond_axis(site_i, site_j)
    if lat.raster_index(site_i) > lat.raster_index(site_j):
        site_i, site_j = site_j, site_i
    if layout.encoding == "compact":
        edge = compact_edge(layout, site_i, site_j, species, axis)
        n = layout.total_qubits
        v_i = canonical(n, [(1.0, PauliString(n, 0, 1 << layout.qubit(site_i, species)))])
        v_j = canonical(n, [(1.0, PauliString(n, 0, 1 << layout.qubit(site_j, species)))])
        return scaled(-0.5j, pairwise(edge, plus(v_j, scaled(-1, v_i))))
    create_i = encode_ladder(layout, site_i, species, CREATE)
    annih_i = encode_ladder(layout, site_i, species, ANNIHILATE)
    create_j = encode_ladder(layout, site_j, species, CREATE)
    annih_j = encode_ladder(layout, site_j, species, ANNIHILATE)
    bare = plus(pairwise(create_i, annih_j), pairwise(create_j, annih_i))
    if layout.encoding == "vc" and axis != 0:
        bare = pairwise(bare, aux_dressing(layout, site_i, site_j, axis))
    return bare


def jw_term(n, term):
    acc = canonical(n, [(term.weight, PauliString.identity(n))])
    for mode, kind in term.factors:
        acc = pairwise(acc, number(n, mode) if kind == NUMBER
                       else jw_ladder(n, mode, kind))
    return acc


def encode_fermion_sum(layout, h):
    n = layout.total_qubits
    return canonical(n, [pair for term in h.terms
                         for pair in jw_term(n, term).terms])
