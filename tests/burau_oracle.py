"""Independent B3 oracle: reduced Burau images over integer Laurent
polynomials, as {exponent: coeff} dicts in matrices of nested tuples of
rows.  Letters are (index, sign) pairs acting left to right.  The Burau
representation is faithful on three strands, so equal frozen matrices mean
equal braids; no code is shared with the package's integer key."""

from __future__ import annotations


def _padd(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def mmul(A, B):
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return (
        (_padd(_pmul(a, e), _pmul(b, g)), _padd(_pmul(a, f), _pmul(b, h))),
        (_padd(_pmul(c, e), _pmul(d, g)), _padd(_pmul(c, f), _pmul(d, h))),
    )


ORACLE_GEN = {
    (1, 1): (({1: -1}, {0: 1}), ({}, {0: 1})),
    (1, -1): (({-1: -1}, {-1: 1}), ({}, {0: 1})),
    (2, 1): (({0: 1}, {}), ({1: 1}, {1: -1})),
    (2, -1): (({0: 1}, {}), ({0: 1}, {-1: -1})),
}
ORACLE_ID = (({0: 1}, {}), ({}, {0: 1}))


def oracle_burau(keys):
    m = ORACLE_ID
    for key in keys:
        m = mmul(m, ORACLE_GEN[key])
    return m


def freeze(m):
    """Canonical comparable form of an oracle matrix."""
    return tuple(tuple(tuple(sorted(p.items())) for p in row) for row in m)


def parse_keys(text: str):
    return [(int(tok[1]), 1 if tok[0] == "s" else -1) for tok in text.split()]
