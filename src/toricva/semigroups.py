"""Hilbert bases of pointed cones, exact throughout.

The Hilbert basis of a pointed cone is the unique minimal generating set
of the semigroup of its lattice points.  `hilbert_basis` takes one of two
paths, each doing work in proportion to what it returns.

A full-dimensional cone of rank 2 has its basis in closed form
(Cox-Little-Schenck, Toric Varieties, 10.2; Oda, Convex Bodies and
Algebraic Geometry, 1.6).  A unimodular U takes its rays to e_2 and
(d, -k) with 0 <= k < d, and there the basis is u_0 = e_2, u_1 = e_1,
u_{i+1} = b_i u_i - u_{i-1}, for b_1, b_2, ... the Hirzebruch-Jung
continued fraction of d/k.  Its length comes first, from the regular
continued fraction of d/k in O(log d) steps, and a basis of more than
`MAX_BASIS_ELEMENTS` elements is refused before any of it is built.  The
path certifies what it emits: det U = +-1, every consecutive pair is a
lattice basis, every b_i is at least 2, and the sequence ends at U times
the second ray.

Every other cone is triangulated, and the lattice points of the half-open
fundamental parallelepiped of every simplicial piece, with the rays, are
the candidates.  The parallelepiped points come from the two linalg
kernels: the Hermite reduction `hermite_int` lists one lattice point per
class modulo the piece's generators, and the piece's integer inverse (den
times the left inverse, from `cones.piece_inverse`: the cone's own when
the piece is the whole simplicial cone) reduces each into the
parallelepiped in integer arithmetic.  The candidates are visited in order
of their level sum on the facet normals, a positive grading, and each is
kept unless a basis element found before it lies below it on every normal.
A piece has as many parallelepiped points as its lattice index, so
`hilbert_basis` sums those indices first and refuses a cone that needs
more than `MAX_PARALLELEPIPED_POINTS`.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import le, mul

from .cones import Cone, piece_inverse, triangulate
from .linalg import Vec, hermite_int, lattice_index


def _parallelepiped_points(gens: tuple[Vec, ...], inverse) -> list[Vec]:
    """Lattice points of {sum a_i g_i : 0 <= a_i < 1} for independent g_i.

    With W = P @ [T; 0] (the g_i as columns, T upper triangular with
    diagonal t), the lattice points of the span are P @ (Z^k, 0) and the g_i
    span P @ (T Z^k, 0).  T is triangular, so the box 0 <= y_i < |t_i| meets
    every class of Z^k modulo T Z^k once, and the points P @ (y, 0) meet
    every class modulo the g_i once.  Taking the fractional parts of each
    one's coordinates in the g_i moves it into the parallelepiped.  Full-
    and lower-dimensional pieces go the same way.
    """
    n = gens[0].rank
    k = len(gens)
    amb = gens[0].ambient
    w = [[g.coords[i] for g in gens] for i in range(n)]
    p_mat, t = hermite_int(w)
    dets = [abs(x) for x in t]
    vol = prod(dets)
    if vol == 0:
        raise ValueError("generators are linearly dependent")
    # `inverse` is (den * L, den), an integer matrix for L the left inverse
    # of W: den times the fractional parts of the coordinates is
    # den * L @ z modulo den.
    w_inv, den = inverse
    out = []
    for y in product(*[range(d) for d in dets]):
        z = [sum(map(mul, row[:k], y)) for row in p_mat]
        frac = [sum(map(mul, row, z)) % den for row in w_inv]
        x = [sum(map(mul, frac, row)) for row in w]
        if any(xi % den for xi in x):
            raise RuntimeError("internal: reduced representative is not a lattice point")
        out.append(Vec(tuple(xi // den for xi in x), amb))
    if len(set(out)) != vol:
        raise RuntimeError("internal: parallelepiped point count is off")
    return out


# The most elements a rank-2 basis may have, counted before any is built.
# A cone like (0, 1), (10^30, 1) has 10^30 + 1 of them.
MAX_BASIS_ELEMENTS = 10_000

# The most parallelepiped points the reduction enumerates for any other
# cone, summed over its simplicial pieces: a cone that needs 1,000 or more
# is refused before any work starts.
MAX_PARALLELEPIPED_POINTS = 999


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(x, y) with a x + b y = 1, for coprime a and b."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return x0 * a, y0 * a  # a is the gcd, +-1


def _basis_length(d: int, k: int) -> int:
    """Length of the Hilbert basis of Cone(e_2, d e_1 - k e_2) for coprime
    0 <= k < d: 2 + a_2 + a_4 + ... (+ 1 when m is odd) for the regular
    continued fraction d/k = [a_1; a_2, ..., a_m], and 2 when d = 1."""
    count, m = 2, 0
    while k:
        a, d, k = d // k, k, d % k
        m += 1
        if m % 2 == 0:
            count += a
    return count + m % 2


def _hj_sequence(d: int, k: int) -> tuple[list[tuple[int, int]], list[int]]:
    """u_0 = e_2, u_1 = e_1, u_{i+1} = b_i u_i - u_{i-1}, with the b_i
    ceil(d_i / k_i) of the Hirzebruch-Jung expansion of d/k, and the b_i."""
    seq = [(0, 1), (1, 0)]
    coeffs = []
    while k:
        b = -(-d // k)
        (x0, y0), (x1, y1) = seq[-2], seq[-1]
        seq.append((b * x1 - x0, b * y1 - y0))
        coeffs.append(b)
        d, k = k, b * k - d
    return seq, coeffs


def _certify_rank2(det_u: int, seq, coeffs, end: tuple[int, int]) -> None:
    """Check that the closed form is the Hilbert basis: U is unimodular,
    consecutive elements form lattice bases, the sequence is convex and it
    ends at the image of the second ray."""
    if det_u not in (1, -1):
        raise RuntimeError("internal: the rank-2 frame is not unimodular")
    if any(x1 * y0 - y1 * x0 != 1 for (x0, y0), (x1, y1) in zip(seq, seq[1:])):
        raise RuntimeError("internal: consecutive rank-2 basis elements are not a lattice basis")
    if any(b < 2 for b in coeffs):
        raise RuntimeError("internal: a continued-fraction coefficient is below 2")
    if seq[-1] != end:
        raise RuntimeError("internal: the rank-2 basis does not end at the second ray")


def _rank2_basis(c: Cone) -> list[Vec]:
    """The closed form for a full-dimensional cone of rank 2."""
    (a, b), (p, q) = c.rays[0].coords, c.rays[1].coords
    # U has rows w, with w . ray_0 = 0 and d = w . ray_1 > 0, and s, with
    # s . ray_0 = 1 and s . ray_1 = -k, shifted by a multiple of w.
    w = (b, -a) if b * p - a * q > 0 else (-b, a)
    d = w[0] * p + w[1] * q
    x, y = _bezout(a, b)
    t = x * p + y * q
    k = -t % d
    shift = -(t + k) // d
    s = (x + shift * w[0], y + shift * w[1])
    count = _basis_length(d, k)
    if count > MAX_BASIS_ELEMENTS:
        raise ValueError(f"the Hilbert basis has {count} elements, more than {MAX_BASIS_ELEMENTS}")
    seq, coeffs = _hj_sequence(d, k)
    det_u = w[0] * s[1] - w[1] * s[0]
    _certify_rank2(det_u, seq, coeffs, (d, -k))
    # U^{-1} = det U * [[s_1, -w_1], [-s_0, w_0]], as det U = 1 / det U.
    amb = c.ambient
    return [
        Vec((det_u * (s[1] * u - w[1] * v), det_u * (w[0] * v - s[0] * u)), amb)
        for u, v in seq
    ]


def _reduced_basis(c: Cone) -> list[Vec]:
    """The degree-ordered reduction of the parallelepiped candidates."""
    pieces = triangulate(c)
    count = sum(lattice_index([g.coords for g in simplex]) for simplex in pieces)
    if count > MAX_PARALLELEPIPED_POINTS:
        raise ValueError(
            f"the Hilbert basis needs {count} parallelepiped points, "
            f"more than {MAX_PARALLELEPIPED_POINTS}"
        )
    cands = set(c.rays)
    for simplex in pieces:
        points = _parallelepiped_points(simplex, piece_inverse(c, simplex))
        cands.update(x for x in points if not x.is_zero)
    # h - s lies in c exactly when s is at most h on every facet normal,
    # since both lie in c's span; then s has the smaller level sum unless
    # s = h, so only candidates visited earlier can reduce h.
    normals = [f.coords for f in c.facet_normals]
    graded = []
    for h in cands:
        levels = [sum(map(mul, f, h.coords)) for f in normals]
        graded.append((sum(levels), h.coords, levels, h))
    graded.sort(key=lambda entry: entry[:2])
    basis = []
    for _, _, top, h in graded:
        if not any(all(map(le, levels, top)) for levels, _ in basis):
            basis.append((top, h))
    return [h for _, h in basis]


def hilbert_basis(c: Cone) -> tuple[Vec, ...]:
    """Minimal generating set of the lattice points of a pointed cone,
    sorted by coordinates."""
    basis = _rank2_basis(c) if c.rank == 2 and c.is_full_dim else _reduced_basis(c)
    return tuple(sorted(basis, key=lambda v: v.coords))
