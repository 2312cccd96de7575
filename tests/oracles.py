"""Reference implementations that the tests compare the library against.

The library reads the Harder-Narasimhan filtration and its properties
off one subrepresentation lattice.  The HN oracles here take the
textbook route instead: they build every quotient as a representation of
its own and enumerate it afresh.

The library's Kempf search scores each distinct step sequence once, in
integers.  The Kempf oracles walk every chain one by one and score each
on its filtration graph in Fractions.

The library enumerates subrepresentations by a join over per-arrow
closure masks.  The enumeration oracles filter the whole product of the
per-vertex subspace lists instead.
"""

import itertools
from fractions import Fraction

from quiverstab import (
    ZERO_SCORE,
    Filtration,
    FiltrationGraph,
    HNReport,
    KroneckerSubmodule,
    Subrepresentation,
    TheoremContradictionError,
    apply,
    convex_envelope,
    enumerate_subspaces,
    is_semistable,
    is_submodule,
    is_subrep,
    is_zero_weights,
    max_destabilizing,
    mu_v,
    preimage_spaces,
    quotient,
    restrict,
    sigma_of,
    slope,
    sub_contains,
    theta_of,
)


def subreps_by_product(m):
    """Every subrepresentation of m in canonical order: the product of
    the per-vertex subspace lists, each candidate checked by is_subrep."""
    order = m.quiver.vertices
    lists = [enumerate_subspaces(m.dims[v], m.field) for v in order]
    out = []
    for combo in itertools.product(*lists):
        spaces = dict(zip(order, combo))
        if is_subrep(m, spaces):
            out.append(Subrepresentation._closed(m, spaces))
    out.sort(key=Subrepresentation.canonical_key)
    return out


def submodules_by_product(km):
    """Every submodule of the Kronecker module km in canonical order: the
    product of the subspace lists of V and W, each pair checked by
    is_submodule."""
    pairs = itertools.product(
        enumerate_subspaces(km.dim_v, km.field),
        enumerate_subspaces(km.dim_w, km.field),
    )
    out = [KroneckerSubmodule(a, b) for a, b in pairs if is_submodule(km, a, b)]
    out.sort(
        key=lambda s: (s.dims(), s.v_part.canonical_bytes(), s.w_part.canonical_bytes())
    )
    return out


def hn_by_quotients(m, params):
    """HN filtration by recursion: the maximal destabilizing subobject,
    then the HN filtration of the quotient by it, lifted back to m by
    preimage."""
    first = max_destabilizing(m, params)
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
        semis.append(is_semistable(sub, params))
    descending = all(a > b for a, b in zip(slopes, slopes[1:]))
    return HNReport(slopes, descending, semis)


def chain_dag(lat, params):
    """The non-zero subreps of the lattice, their strict-inclusion
    predecessor lists by pairwise sub_contains, their (sigma, theta)
    labels and the index of the whole representation."""
    subs = lat.subs[1:]
    lower = [
        [i for i in range(j) if sub_contains(subs[j], subs[i])]
        for j in range(len(subs))
    ]
    labels = [
        (sigma_of(s.dim_vector(), params), theta_of(s.dim_vector(), params))
        for s in subs
    ]
    return subs, lower, labels, len(subs) - 1


def ascending_chains(lower, j):
    """All strictly increasing index chains ending at j, each once."""
    yield (j,)
    for i in lower[j]:
        for c in ascending_chains(lower, i):
            yield c + (j,)


def chain_score_by_fractions(chain_dims, tm, sm):
    """Envelope weights and score of a chain given cumulative (sigma,
    theta) pairs of its steps, ending at (sm, tm): convex_envelope and
    mu_v on its filtration graph."""
    b = []
    v = []
    prev_s, prev_t = 0, 0
    for s, t in chain_dims:
        bi = s - prev_s
        b.append(Fraction(bi))
        v.append(Fraction(tm) - Fraction(sm, bi) * (t - prev_t))
        prev_s, prev_t = s, t
    g = FiltrationGraph(tuple(b), tuple(v))
    gamma = convex_envelope(g)
    if is_zero_weights(gamma):
        return gamma, ZERO_SCORE
    return gamma, mu_v(gamma, g)


def scored_chains(lat, params):
    """(steps, (sigma, theta) sequence, gamma, score) of every chain
    ending at the whole representation, each chain scored on its own;
    then theta(M) and sigma(M)."""
    subs, lower, labels, full = chain_dag(lat, params)
    sm, tm = labels[full]
    out = []
    for chain in ascending_chains(lower, full):
        seq = tuple(labels[i] for i in chain)
        gamma, score = chain_score_by_fractions(seq, tm, sm)
        out.append((tuple(subs[i] for i in chain), seq, gamma, score))
    return out, tm, sm


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
