"""Reference implementations that the tests compare the library against.

The library reads the Harder-Narasimhan filtration and its properties
off one subrepresentation lattice.  The oracles here take the textbook
route instead: they build every quotient as a representation of its own
and enumerate it afresh.
"""

from quiverstab import (
    Filtration,
    HNReport,
    Subrepresentation,
    apply,
    is_semistable,
    max_destabilizing,
    preimage_spaces,
    quotient,
    restrict,
    slope,
)


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
