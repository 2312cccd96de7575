"""Reference implementations that the tests compare the library against.

The library reads the Harder-Narasimhan filtration and its properties
off one subrepresentation lattice.  The HN oracles here take the
textbook route instead: they build every quotient as a representation of
its own and enumerate it afresh.

The library's Kempf search runs a dynamic program over interned PAV
block stacks, each carrying its score square in integers from the stack
below it.  The Kempf oracles walk every chain one by one and score each
on its filtration graph in Fractions, with a pool-adjacent-violators
fit and a b-weighted score of their own; sequence_search keys the same
dynamic program on whole label sequences instead of stacks.

The HN-type counting oracle counts representations of each HN type by
Reineke's closed form, from the quiver, the dimension vector, the
stability parameters and q alone, knowing neither route.

The library enumerates subrepresentations by a join over per-arrow
closure masks, and it decides closure, there and in is_subrep, by
mapping each basis row of a source space into the target space.  The
enumeration oracles filter the whole product of the per-vertex subspace
lists instead, and subreps_by_product builds each arrow's image span by
Gaussian elimination and tests that it lies in the target.  The
flag-counting oracles give, in closed form and summed over every
representation, the number of subreps of each dimension vector, the
number of nested pairs U1 <= U2 of each pair of dimension vectors, which
checks the containment table, and the number of chains 0 < U1 < ... < M
of each strictly increasing sequence of dimension vectors, which checks
the inclusion DAG of the Kempf search.

The library's Kempf search runs on the exact quotient of the inclusion
DAG: the subreps with one dimension vector and one multiset of
predecessor classes form a class, and each class edge carries its
count.  chain_dag lists every strict inclusion by pairwise sub_contains
instead, and strictly_below reads the node-level lists off the
containment masks; the library walks set bits byte by byte, and
bits_by_bin walks the characters of bin().

The library sorts subrepresentations by their dimension vector and the
index of each space in its vertex's canonical list.  The order oracle
compares the dimension vector and the RREF bytes of every space instead.

The library tests membership in a subspace by one dot product per
non-pivot column.  The membership oracle reduces the vector against the
RREF basis row by row instead.

The representation-level helpers (restriction, quotient, preimage, the
seesaw check, the reparameterization of theta and the refinement
domination check) serve only these oracles and the tests, so they live
here and not in the library.  So do Gaussian elimination (rref), the
span of a list of vectors, the image of a subspace under a matrix, the
matrix product, the zero and identity matrices, the sum of two
subspaces, the zero and full subspaces and those of a representation,
and the exact Galois number of subspaces of F_p^n, against which the
enumeration's budget check is tested.

The duality relation needs no oracle of either route: dual gives M* on
the opposite quiver at -theta, and annihilator the annihilator of a
subspace, with which each route's filtration of M* is predicted from
its filtration of M.  Nor does the direct-sum relation: direct_sum gives
M (+) N, whose filtration type each route must give as the slope-ordered
merge of those of M and N.  Nor does the change-of-basis relation: act
gives g . M for g in the product of GL(d_v), with inverse over F_p built
on rref, and each route's filtration of g . M is g applied to its
filtration of M.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

from quiverstab import (
    Filtration,
    HNReport,
    InvalidSubrepresentationError,
    Matrix,
    Quiver,
    Representation,
    StabilityParams,
    SubrepLattice,
    Subrepresentation,
    Subspace,
    TheoremContradictionError,
    contains,
    enumerate_subspaces,
    is_semistable,
    kempf,
    max_destabilizing,
    sigma_of,
    slope,
    sub_contains,
    theta_of,
)


def reduce(s, vec) -> tuple:
    """Residual of vec after reduction against the RREF basis of the
    subspace s; it is zero exactly when vec lies in s."""
    p = s.field.p
    v = [x % p for x in vec]
    for row, piv in zip(s.basis, s.pivots):
        c = v[piv]
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return tuple(v)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b of two matrices over one F_p."""
    if a.ncols != b.nrows or a.field != b.field:
        raise ValueError("shape or field mismatch in matmul")
    p = a.field.p
    cols = list(zip(*b.rows)) if b.rows else [()] * b.ncols
    rows = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
        for row in a.rows
    )
    return Matrix(a.field, a.nrows, b.ncols, rows)


def rref(m: Matrix) -> Matrix:
    """Unique reduced row echelon form; zero rows are kept at the bottom."""
    p = m.field.p
    rows = [list(r) for r in m.rows]
    pivot_row = 0
    for col in range(m.ncols):
        if pivot_row >= m.nrows:
            break
        found = next((r for r in range(pivot_row, m.nrows) if rows[r][col] % p), None)
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        inv = pow(rows[pivot_row][col], -1, p)
        pivot = rows[pivot_row] = [(x * inv) % p for x in rows[pivot_row]]
        for r in range(m.nrows):
            if r != pivot_row and (factor := rows[r][col] % p):
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], pivot)]
        pivot_row += 1
    return Matrix(m.field, m.nrows, m.ncols, tuple(tuple(r) for r in rows))


def span(field, ambient: int, vectors) -> Subspace:
    """The subspace of F_p^ambient spanned by vectors, by elimination."""
    m = rref(Matrix.from_rows(field, vectors, ncols=ambient))
    return Subspace(field, ambient, tuple(r for r in m.rows if any(r)))


def apply(m: Matrix, s: Subspace) -> Subspace:
    """Image of the subspace s under the linear map m."""
    if m.ncols != s.ambient or m.field != s.field:
        raise ValueError("matrix/subspace shape or field mismatch")
    return span(m.field, m.nrows, [m.apply_to(v) for v in s.basis])


def closed_by_images(m: Representation, spaces: dict) -> bool:
    """True iff every arrow's image of the space at its source, built by
    elimination, lies in the space at its target."""
    return all(
        contains(spaces[tgt], apply(mat, spaces[src]))
        for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps)
    )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """a + b, spanned by the two bases together."""
    if a.field != b.field or a.ambient != b.ambient:
        raise ValueError("subspaces live in different ambient spaces")
    return span(a.field, a.ambient, list(a.basis) + list(b.basis))


def zero_matrix(field, nrows: int, ncols: int) -> Matrix:
    return Matrix(field, nrows, ncols, tuple((0,) * ncols for _ in range(nrows)))


def identity_matrix(field, n: int) -> Matrix:
    return Matrix(
        field, n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    )


def zero_subspace(field, ambient: int) -> Subspace:
    return Subspace(field, ambient, ())


def full_subspace(field, ambient: int) -> Subspace:
    return Subspace(field, ambient, identity_matrix(field, ambient).rows)


def full_spaces(m: Representation) -> dict:
    return {v: full_subspace(m.field, m.dims[v]) for v in m.quiver.vertices}


def zero_spaces(m: Representation) -> dict:
    return {v: zero_subspace(m.field, m.dims[v]) for v in m.quiver.vertices}


def subspace_count(n: int, p: int) -> int:
    """Number of subspaces of F_p^n of every dimension, exact: the
    Galois number G_n, by G_0 = 1, G_1 = 2 and
    G_{k+1} = 2 G_k + (p^k - 1) G_{k-1}."""
    if n == 0:
        return 1
    prev, cur, pk = 1, 2, 1
    for _k in range(1, n):
        pk *= p
        prev, cur = cur, 2 * cur + (pk - 1) * prev
    return cur


def every_rep(q, field, dims):
    """Every representation of q over field with dims (in vertex order),
    one per choice of all matrix entries."""
    d = dict(zip(q.vertices, dims))
    shapes = [(d[tgt], d[src]) for src, tgt in q.arrows]
    entries = [range(field.p)] * sum(r * c for r, c in shapes)
    for flat in itertools.product(*entries):
        maps, k = [], 0
        for r, c in shapes:
            rows = tuple(tuple(flat[k + i * c : k + (i + 1) * c]) for i in range(r))
            maps.append(Matrix(field, r, c, rows))
            k += r * c
        yield Representation(q, field, d, tuple(maps))


def _grassmannian(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n: ordered bases of a
    subspace over ordered bases of F_q^k."""
    num = den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    return num // den


def _flag_count(quiver, dims, flag, q: int) -> int:
    """The number of pairs (M, U^1 <= ... <= U^k), M a representation of
    dimension dims over F_q and U^r subreps of M of dimension flag[r - 1]:
    prod_v (flags of those dims in F_q^(d_v)) * q^(sum over arrows i -> j,
    r = 1..k+1 of (e^r_i - e^(r-1)_i) e^r_j), e^0 = 0 and e^(k+1) = dims.
    In a basis adapted to the flag at every vertex, an arrow i -> j
    preserves it iff it sends layer r at i into U^r_j, which leaves
    (e^r_i - e^(r-1)_i) e^r_j free entries per layer.  Loops (i = j) are
    arrows like any other."""
    at = {v: k for k, v in enumerate(quiver.vertices)}
    layers = [(0,) * len(dims), *flag, tuple(dims)]
    count = 1
    for lo, hi in zip(layers[1:], layers[2:]):
        for n, k in zip(hi, lo):
            count *= _grassmannian(n, k, q)
    free = sum(
        (e[at[i]] - e0[at[i]]) * e[at[j]]
        for e0, e in zip(layers, layers[1:])
        for i, j in quiver.arrows
    )
    return count * q**free


def subrep_counts_by_formula(quiver, dims, q: int) -> dict:
    """For each dimension vector e <= dims (tuples in vertex order), the
    number of pairs (M, U), M a representation of dimension dims over F_q
    and U a subrepresentation of M of dimension e:
    prod_v [d_v choose e_v]_q * q^(sum over arrows i -> j of
    e_i e_j + (d_i - e_i) d_j), the flags of _flag_count with k = 1."""
    return {
        e: _flag_count(quiver, dims, (e,), q)
        for e in itertools.product(*(range(d + 1) for d in dims))
    }


def containment_pairs_by_formula(quiver, dims, q: int) -> dict:
    """For each pair (e1, e2) of dimension vectors e1 <= e2 <= dims, the
    number of triples (M, U1, U2), M a representation of dimension dims
    over F_q and U1 <= U2 subreps of M of dimensions e1 and e2:
    prod_v [d_v choose e2_v]_q [e2_v choose e1_v]_q * q^(sum over arrows
    i -> j of e1_i e1_j + (e2_i - e1_i) e2_j + (d_i - e2_i) d_j), the flags
    of _flag_count with k = 2."""
    out = {}
    for e2 in itertools.product(*(range(d + 1) for d in dims)):
        for e1 in itertools.product(*(range(d + 1) for d in e2)):
            out[e1, e2] = _flag_count(quiver, dims, (e1, e2), q)
    return out


def strict_chain_counts_by_formula(quiver, dims, q: int) -> dict:
    """For each strictly increasing sequence of dimension vectors
    0 < e1 < ... < ek < dims (tuples in vertex order; the sequence of the
    e's, possibly empty), the number of pairs (M, chain), M a
    representation of dimension dims over F_q and 0 < U1 < ... < Uk < M a
    chain of subreps with those dimension vectors: the flags of
    _flag_count, since subreps with different dimension vectors are
    nested only strictly."""
    top = tuple(dims)
    zero = (0,) * len(top)
    out = {}

    def extend(seq, e):
        if e == top:
            out[seq[:-1]] = _flag_count(quiver, dims, seq[:-1], q)
            return
        for nxt in itertools.product(*(range(a, d + 1) for a, d in zip(e, top))):
            if nxt != e:
                extend(seq + (nxt,), nxt)

    if top != zero:
        extend((), zero)
    return out


def canonical_key(sub: Subrepresentation):
    """The canonical order of subrepresentations: the dimension vector in
    vertex order, then the flattened RREF basis at every vertex."""
    order = sub.parent.quiver.vertices
    return (
        tuple(sub.spaces[v].dim for v in order),
        tuple(tuple(itertools.chain(*sub.spaces[v].basis)) for v in order),
    )


def subreps_by_product(m):
    """Every subrepresentation of m in canonical order: the product of
    the per-vertex subspace lists, each candidate kept iff every arrow's
    image span lies in the target space."""
    order = m.quiver.vertices
    lists = [enumerate_subspaces(m.dims[v], m.field) for v in order]
    out = []
    for combo in itertools.product(*lists):
        spaces = dict(zip(order, combo))
        if closed_by_images(m, spaces):
            out.append(Subrepresentation._closed(m, spaces))
    out.sort(key=canonical_key)
    return out


def submodules_by_product(m):
    """Every submodule of the Kronecker module m, a representation of a
    Kronecker quiver, in canonical order: the product of the subspace
    lists of V and W, each pair kept iff every arrow sends each basis row
    of the V-part into the W-part."""
    pairs = itertools.product(
        enumerate_subspaces(m.dims["v0"], m.field),
        enumerate_subspaces(m.dims["v1"], m.field),
    )
    out = [
        Subrepresentation._closed(m, {"v0": a, "v1": b})
        for a, b in pairs
        if all(
            b.contains_vector(mat.apply_to(row))
            for mat in m.arrow_maps
            for row in a.basis
        )
    ]
    out.sort(key=canonical_key)
    return out


def reparam_theta(params: StabilityParams, a: int, b: int) -> StabilityParams:
    """theta -> a*theta + b*sigma with a >= 1; sigma unchanged."""
    if a < 1:
        raise ValueError("a must be a positive integer")
    theta = {v: a * params.theta[v] + b * params.sigma[v] for v in params.theta}
    return StabilityParams(theta, dict(params.sigma))


def dual(m: Representation, params: StabilityParams):
    """(M*, params*): M* lives on the opposite quiver, each map
    transposed, and params* is -theta with the same sigma.  The
    subreps of M* are the annihilators of the subreps of M."""
    q = m.quiver
    opposite = Quiver(q.vertices, tuple((tgt, src) for src, tgt in q.arrows))
    maps = tuple(
        Matrix(m.field, a.ncols, a.nrows,
               tuple(zip(*a.rows)) if a.nrows else ((),) * a.ncols)
        for a in m.arrow_maps
    )
    theta = {v: -t for v, t in params.theta.items()}
    return (Representation(opposite, m.field, dict(m.dims), maps),
            StabilityParams(theta, dict(params.sigma)))


def direct_sum(m: Representation, n: Representation) -> Representation:
    """M (+) N on their common quiver and field: dimensions add at each
    vertex, and each map is block diagonal, M's block first."""
    dims = {v: m.dims[v] + n.dims[v] for v in m.quiver.vertices}
    maps = tuple(
        Matrix(m.field, a.nrows + b.nrows, a.ncols + b.ncols,
               tuple(row + (0,) * b.ncols for row in a.rows)
               + tuple((0,) * a.ncols + row for row in b.rows))
        for a, b in zip(m.arrow_maps, n.arrow_maps)
    )
    return Representation(m.quiver, m.field, dims, maps)


def inverse(a: Matrix) -> Matrix:
    """The inverse of a square matrix over F_p, read off the RREF of
    [a | I]; a singular matrix raises ValueError."""
    n, p = a.nrows, a.field.p
    eye = identity_matrix(a.field, n).rows
    both = rref(Matrix(a.field, n, 2 * n, tuple(r + e for r, e in zip(a.rows, eye))))
    if tuple(r[:n] for r in both.rows) != eye:
        raise ValueError("the matrix is singular")
    return Matrix(a.field, n, n, tuple(tuple(x % p for x in r[n:]) for r in both.rows))


def act(g: dict, m: Representation) -> Representation:
    """g . M for g in the product of GL(d_v), g[v] the matrix at vertex
    v: each arrow's map A from s to t becomes g[t] A g[s]^-1."""
    maps = tuple(
        matmul(matmul(g[tgt], a), inverse(g[src]))
        for (src, tgt), a in zip(m.quiver.arrows, m.arrow_maps)
    )
    return Representation(m.quiver, m.field, dict(m.dims), maps)


def annihilator(s: Subspace) -> Subspace:
    """The x with x . u = 0 for every u in s: for each column j off the
    pivots of s, e_j minus column j of the RREF basis, set at the pivots."""
    vectors = []
    for j in range(s.ambient):
        if j not in s.pivots:
            x = [0] * s.ambient
            x[j] = 1
            for row, pivot in zip(s.basis, s.pivots):
                x[pivot] = -row[j] % s.field.p
            vectors.append(x)
    return span(s.field, s.ambient, vectors)


def restrict(m: Representation, s: Subrepresentation):
    """The subrepresentation as a representation in its own right.

    Coordinates at each vertex are the coefficients with respect to the
    RREF basis of s (equivalently, the pivot-column entries).
    """
    dims = s.dim_vector()
    maps = []
    for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps):
        bt = s.spaces[tgt]
        cols = []
        for row in s.spaces[src].basis:
            y = mat.apply_to(row)
            coords = tuple(y[p] for p in bt.pivots)
            # with an RREF basis the pivot entries are the coefficients
            recon = [0] * bt.ambient
            for c, brow in zip(coords, bt.basis):
                recon = [(a + c * b) % m.field.p for a, b in zip(recon, brow)]
            if tuple(recon) != y:
                raise InvalidSubrepresentationError(
                    "arrow image leaves the candidate subrepresentation"
                )
            cols.append(coords)
        if cols:
            rows = tuple(zip(*cols))
        else:
            rows = tuple(() for _ in range(dims[tgt]))
        maps.append(Matrix(m.field, dims[tgt], dims[src], rows))
    return Representation(m.quiver, m.field, dims, tuple(maps))


def quotient(m: Representation, s: Subrepresentation):
    """Quotient representation and per-vertex projection matrices.

    Coordinates on the quotient are the non-pivot coordinates of the
    RREF basis of s at each vertex (the canonical complement), so
    lifting a quotient subspace back is deterministic.
    """
    p = m.field.p
    projs = {}
    lifts = {}
    new_dims = {}
    for v in m.quiver.vertices:
        sv = s.spaces[v]
        dv = m.dims[v]
        pivots = sv.pivots
        nonpiv = [j for j in range(dv) if j not in set(pivots)]
        new_dims[v] = len(nonpiv)
        proj_rows = []
        for q in nonpiv:
            row = [0] * dv
            row[q] = 1
            for i, pc in enumerate(pivots):
                row[pc] = (-sv.basis[i][q]) % p
            proj_rows.append(tuple(row))
        projs[v] = Matrix(m.field, len(nonpiv), dv, tuple(proj_rows))
        lift_rows = []
        for r in range(dv):
            row = [0] * len(nonpiv)
            if r in nonpiv:
                row[nonpiv.index(r)] = 1
            lift_rows.append(tuple(row))
        lifts[v] = Matrix(m.field, dv, len(nonpiv), tuple(lift_rows))
    maps = tuple(
        matmul(matmul(projs[tgt], mat), lifts[src])
        for (src, tgt), mat in zip(m.quiver.arrows, m.arrow_maps)
    )
    return Representation(m.quiver, m.field, new_dims, maps), projs


def preimage_spaces(m: Representation, s: Subrepresentation, quot_spaces: dict) -> dict:
    """Pull subspaces of quotient(m, s) back to subspaces of m containing s."""
    out = {}
    for v in m.quiver.vertices:
        sv = s.spaces[v]
        dv = m.dims[v]
        nonpiv = [j for j in range(dv) if j not in set(sv.pivots)]
        lifted = []
        for row in quot_spaces[v].basis:
            x = [0] * dv
            for val, j in zip(row, nonpiv):
                x[j] = val
            lifted.append(x)
        out[v] = subspace_sum(span(m.field, dv, lifted), sv)
    return out


def seesaw_check(
    m: Representation, s: Subrepresentation, params: StabilityParams
) -> list:
    """Check the seesaw biconditionals for X = s, Y = m, Z = m/s.

    For each comparison in {<, =, >}: X?Y iff X?Z iff Y?Z.  Returns the
    list of violated triples (expected empty).
    """
    if s.is_zero() or s.is_full():
        raise ValueError("need a proper non-zero subrepresentation")
    dx = s.dim_vector()
    dy = dict(m.dims)
    dz = {v: dy[v] - dx[v] for v in dy}
    x, y, z = slope(dx, params), slope(dy, params), slope(dz, params)
    violations = []
    for name, op in (("<", lambda a, b: a < b), ("==", lambda a, b: a == b),
                     (">", lambda a, b: a > b)):
        verdicts = (op(x, y), op(x, z), op(y, z))
        if len(set(verdicts)) != 1:
            violations.append((name, verdicts))
    return violations


def hn_by_quotients(m, params):
    """HN filtration by recursion: the maximal destabilizing subobject,
    then the HN filtration of the quotient by it, lifted back to m by
    preimage."""
    first = max_destabilizing(SubrepLattice(m), params)
    if first.is_full():
        return Filtration(m, (first,))
    quot, _projs = quotient(m, first)
    steps = [first] + [
        Subrepresentation(m, preimage_spaces(m, first, q.spaces))
        for q in hn_by_quotients(quot, params).steps
    ]
    return Filtration(m, tuple(steps))


def hn_report_by_quotients(f, params):
    """The HN properties of f, deciding semistability of each subquotient
    M_i / M_{i-1} on that subquotient built as a representation."""
    m = f.parent
    slopes = [slope(d, params) for d in f.quotient_dims()]
    semis = []
    for i, step in enumerate(f.steps):
        if i == 0:
            sub = restrict(m, step)
        else:
            quot, projs = quotient(m, f.steps[i - 1])
            spaces = {v: apply(projs[v], step.spaces[v]) for v in m.quiver.vertices}
            sub = restrict(quot, Subrepresentation(quot, spaces))
        semis.append(is_semistable(SubrepLattice(sub), params))
    descending = all(a > b for a, b in zip(slopes, slopes[1:]))
    return HNReport(slopes, descending, semis)


def labels_of(subs, params):
    """The (sigma, theta) of each subrep's dimension vector."""
    return [
        (sigma_of(s.dim_vector(), params), theta_of(s.dim_vector(), params))
        for s in subs
    ]


def strictly_below(lat, j):
    """Indices of the subrepresentations strictly inside subs[j],
    ascending, read off the containment mask by bits_by_bin."""
    return bits_by_bin(lat._below[j] & ~(1 << j))


def bits_by_bin(mask):
    """Indices of the set bits of mask, ascending, one character of
    bin(mask) at a time."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def chain_dag(lat, params):
    """The subreps of the lattice, 0 first, their strict-inclusion
    predecessor lists by pairwise sub_contains, their (sigma, theta)
    labels and the index of the whole representation."""
    subs = lat.subs
    lower = [
        [i for i in range(j) if sub_contains(subs[j], subs[i])]
        for j in range(len(subs))
    ]
    return subs, lower, labels_of(subs, params), len(subs) - 1


def ascending_chains(lower, j):
    """All strictly increasing index chains from node 0 to j, each once."""
    if j == 0:
        yield (0,)
    for i in lower[j]:
        for c in ascending_chains(lower, i):
            yield c + (j,)


def pav_by_fractions(v, b):
    """Weighted non-decreasing fit of v by pooling adjacent violators, in
    Fractions: adjacent blocks merge while their b-weighted means are
    out of order, and each entry takes the mean of its block."""
    blocks = []  # [weight sum, weighted value sum, number of entries]
    for vi, bi in zip(v, b):
        blocks.append([bi, bi * vi, 1])
        while len(blocks) > 1:
            (w1, s1, c1), (w2, s2, c2) = blocks[-2:]
            if s1 * w2 <= s2 * w1:
                break
            blocks[-2:] = [[w1 + w2, s1 + s2, c1 + c2]]
    return tuple(Fraction(s) / w for w, s, c in blocks for _ in range(c))


def primitive_oracle(gamma):
    """The primitive integer vector with the orientation of gamma (all
    zeros stay zeros), as Fractions."""
    if all(x == 0 for x in gamma):
        return tuple(Fraction(0) for _ in gamma)
    denom = lcm(*(x.denominator for x in gamma))
    ints = [int(x * denom) for x in gamma]
    g = gcd(*ints)
    return tuple(Fraction(x, g) for x in ints)


def score_by_fractions(gamma, b, v):
    """The signed square of (Gamma, v) / ||Gamma|| in the b-weighted inner
    product, which orders weights as their scores do; Gamma non-zero."""
    pairing = Fraction(sum(bi * gi * vi for bi, gi, vi in zip(b, gamma, v)))
    norm_sq = sum(bi * gi * gi for bi, gi in zip(b, gamma))
    return pairing * abs(pairing) / norm_sq


def graph_by_fractions(chain_dims, tm, sm):
    """The filtration graph of a chain given cumulative (sigma, theta)
    pairs of its steps, ending at (sm, tm): weights b_i, the sigma of
    the i-th quotient, and v_i = tm - sm theta_i / sigma_i, so that
    sum b_i v_i = 0."""
    b = []
    v = []
    prev_s, prev_t = 0, 0
    for s, t in chain_dims:
        bi = s - prev_s
        b.append(Fraction(bi))
        v.append(Fraction(tm) - Fraction(sm, bi) * (t - prev_t))
        prev_s, prev_t = s, t
    return tuple(b), tuple(v)


def filtration_graph(f, params):
    """The filtration graph (b, v) of the filtration f."""
    seq = labels_of(f.steps, params)
    sm, tm = seq[-1]
    return graph_by_fractions(seq, tm, sm)


def chain_score_by_fractions(chain_dims, tm, sm):
    """Envelope weights and score of a chain given cumulative (sigma,
    theta) pairs of its steps, ending at (sm, tm): the primitive
    non-decreasing fit of v on its filtration graph, and its score square."""
    b, v = graph_by_fractions(chain_dims, tm, sm)
    gamma = primitive_oracle(pav_by_fractions(v, b))
    if all(x == 0 for x in gamma):
        return gamma, Fraction(0)
    return gamma, score_by_fractions(gamma, b, v)


def refinement_domination_violations(
    lat: SubrepLattice,
    f: Filtration,
    params: StabilityParams,
    best_score: Fraction,
):
    """Insert one extra subrepresentation between consecutive steps of
    the filtration f of lat.rep (or below the first) and check no refined
    chain scores higher.

    Returns the list of violating refinements (expected empty).
    """
    chain = lat.chain_of(f)
    labels = lat.labels(params)
    sm, tm = labels[-1]
    out = []
    for pos, (lo, hi) in enumerate(zip(chain, chain[1:])):
        for k in range(lo + 1, hi):  # subs[k] strictly between subs[lo] and subs[hi]
            if not (lat.contains(k, lo) and lat.contains(hi, k)):
                continue
            refined = chain[1 : pos + 1] + [k] + chain[pos + 1 :]
            _blocks, score = kempf._chain_score([labels[i] for i in refined], tm, sm)
            if score > best_score:
                out.append((pos, lat.subs[k], score))
    return out


def refinements_by_fractions(lat, f, params):
    """(pos, subrep, score) of every refinement of the filtration f by
    one subrep strictly between step pos - 1 (or 0) and step pos, found
    by pairwise sub_contains and scored in Fractions, in lattice order."""
    steps = list(f.steps)
    sm, tm = sigma_of(f.parent.dims, params), theta_of(f.parent.dims, params)
    out = []
    for pos, hi in enumerate(steps):
        lo = steps[pos - 1] if pos else None
        for s in lat.subs:
            d = s.dim_vector()
            if s.is_zero() or d == hi.dim_vector() or not sub_contains(hi, s):
                continue
            if lo is not None and (d == lo.dim_vector() or not sub_contains(s, lo)):
                continue
            seq = labels_of(steps[:pos] + [s] + steps[pos:], params)
            out.append((pos, s, chain_score_by_fractions(seq, tm, sm)[1]))
    return out


def scored_chains(lat, params):
    """(steps, (sigma, theta) sequence, gamma, score) of every chain
    ending at the whole representation, each chain scored on its own;
    then theta(M) and sigma(M)."""
    subs, lower, labels, full = chain_dag(lat, params)
    sm, tm = labels[full]
    out = []
    for chain in ascending_chains(lower, full):
        seq = tuple(labels[i] for i in chain[1:])
        gamma, score = chain_score_by_fractions(seq, tm, sm)
        out.append((tuple(subs[i] for i in chain[1:]), seq, gamma, score))
    return out, tm, sm


def sequence_search(lower, labels):
    """The Kempf search of kempf._kempf_search, keyed on whole label
    sequences: counts[j] maps each label sequence of the chains from node
    0 to j (node 0's label left out) to their number, and every distinct
    sequence at the last node is scored from the start.  Same (best,
    winner) and the same tie check."""
    counts = [{(): 1}]
    for j in range(1, len(lower)):
        lab, here = labels[j], {}
        for i in lower[j]:
            for seq, c in counts[i].items():
                seq += (lab,)
                here[seq] = here.get(seq, 0) + c
        counts.append(here)
    sm, tm = labels[-1]
    best, strict = None, []  # strict: (sequence, blocks), one step per block
    for seq in counts[-1]:
        blocks, score = kempf._chain_score(seq, tm, sm)
        if best is None or score > best:
            best, strict = score, []
        if score == best and len(blocks) == len(seq):
            strict.append((seq, blocks))
    if best <= 0:
        return best, None
    ties = sum(counts[-1][seq] for seq, _blocks in strict)
    if ties != 1:
        raise TheoremContradictionError(
            f"{ties} chains with strictly increasing weights "
            f"tie at the maximal score"
        )
    seq, blocks = strict[0]
    # the one chain carrying seq, followed down to the root by its labels
    chain = [len(lower) - 1]
    for n in reversed(range(len(seq))):
        chain.append(next(i for i in lower[chain[-1]] if seq[:n] in counts[i]))
    return best, (tuple(reversed(chain)), kempf._gamma(blocks))


def kempf_by_chains(lat, scored):
    """(filtration, gamma, score) of the Kempf search read off the scored
    chains of scored_chains, with the same tie check."""
    best_score = max(score for *_rest, score in scored)
    best_strict = [
        (steps, gamma)
        for steps, _seq, gamma, score in scored
        if score == best_score and all(a < b for a, b in zip(gamma, gamma[1:]))
    ]
    if len(best_strict) != 1:
        raise TheoremContradictionError(f"{len(best_strict)} chains tie")
    steps, gamma = best_strict[0]
    return Filtration(lat.rep, steps), gamma, best_score


def euler_form(quiver, d, e) -> int:
    """<d, e> = sum_i d_i e_i - sum over arrows i -> j of d_i e_j, for
    dimension vectors in vertex order."""
    at = {v: k for k, v in enumerate(quiver.vertices)}
    return sum(a * b for a, b in zip(d, e)) - sum(
        d[at[src]] * e[at[tgt]] for src, tgt in quiver.arrows
    )


def hn_type_counts(quiver, dims, params: StabilityParams, q: int) -> dict:
    """The number of representations of dimension vector dims over F_q of
    each Harder-Narasimhan type, the tuple of quotient dimension vectors
    (vertex order) with strictly decreasing slopes.  Reineke (Invent.
    Math. 152, 2003): #reps of type (d^1, ..., d^s) / |G_d| is
    q^(-sum_{k<l} <d^l, d^k>) prod_k #semistable(d^k) / |G_{d^k}|, and
    solving it for the semistable counts, from the smallest dimension
    vectors up, needs only (Q, d, theta, sigma, q).  Exact Fractions."""
    vs = quiver.vertices
    at = {v: k for k, v in enumerate(vs)}

    def slope_of(e):
        return Fraction(
            sum(params.theta[v] * x for v, x in zip(vs, e)),
            sum(params.sigma[v] * x for v, x in zip(vs, e)),
        )

    def group_order(e):
        out = 1
        for n in e:
            for k in range(n):
                out *= q**n - q**k
        return out

    def types(e, above=None):
        """Every sequence of non-zero vectors summing to e with strictly
        decreasing slopes, all below the slope above (if given)."""
        for first in itertools.product(*(range(x + 1) for x in e)):
            if not any(first):
                continue
            mu = slope_of(first)
            if above is not None and mu >= above:
                continue
            rest = tuple(a - b for a, b in zip(e, first))
            if not any(rest):
                yield (first,)
            else:
                for tail in types(rest, mu):
                    yield (first,) + tail

    semistable = {}

    def per_group(hn_type):
        """#reps of the type / |G_e|."""
        out = Fraction(q) ** -sum(
            euler_form(quiver, hn_type[l], hn_type[k])
            for l in range(len(hn_type))
            for k in range(l)
        )
        for part in hn_type:
            if part not in semistable:
                reps = q ** sum(part[at[s]] * part[at[t]] for s, t in quiver.arrows)
                semistable[part] = reps - group_order(part) * sum(
                    per_group(t) for t in types(part) if len(t) > 1
                )
            out *= Fraction(semistable[part], group_order(part))
        return out

    counts = {t: per_group(t) * group_order(dims) for t in types(tuple(dims))}
    assert all(c.denominator == 1 for c in counts.values())
    return {t: int(c) for t, c in counts.items() if c}
