"""Sparse multivariate polynomials over Q, plus small gcd utilities.

A polynomial in n variables is a dict mapping exponent tuples (length n) to
nonzero scalars.  The zero polynomial is the empty dict.  These are kept as
plain dicts (no class) so callers can build them literally.
"""

from __future__ import annotations

from ._linalg import _norm, div


def pclean(p):
    return {e: c for e, c in p.items() if c}


def padd(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = _norm(s)
        else:
            out.pop(e, None)
    return out


def psub(p, q):
    return padd(p, {e: -c for e, c in q.items()})


def pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = _norm(s)
            else:
                out.pop(e, None)
    return out


def pis_zero(p):
    return not pclean(p)


def monomial(e, c=1):
    return {tuple(e): c} if c else {}


# ---- univariate polynomials over Q as coefficient lists (low degree first) ----

def utrim(f):
    while f and not f[-1]:
        f.pop()
    return f


def uadd(f, g):
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]
    return utrim([_norm(x) for x in out])


def uscale(f, a):
    if not a:
        return []
    return [_norm(x * a) for x in f]


def umul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return utrim([_norm(x) for x in out])


def udivmod(f, g):
    """Exact-field division with remainder over Q."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    while f and len(f) >= len(g):
        c = div(f[-1], g[-1])
        d = len(f) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] = _norm(f[d + i] - c * b)
        utrim(f)
    return q, f


def ugcd(f, g):
    """Monic gcd over Q."""
    f, g = utrim(list(f)), utrim(list(g))
    while g:
        f, g = g, udivmod(f, g)[1]
    if f:
        lead = f[-1]
        f = [div(x, lead) for x in f]
    return f


# ---- bivariate gcd over Q via primitive pseudo-remainder sequences ----
#
# Bivariate polynomials here are dicts {(i, j): c} in variables (x, y); they
# are viewed as univariate in y with coefficients in Q[x] (lists).

def _to_ylist(p):
    dy = max((e[1] for e in p), default=-1)
    coeffs = [[] for _ in range(dy + 1)]
    for (i, j), c in p.items():
        f = coeffs[j]
        while len(f) <= i:
            f.append(0)
        f[i] = _norm(f[i] + c)
    return [utrim(f) for f in coeffs]


def _from_ylist(coeffs):
    out = {}
    for j, f in enumerate(coeffs):
        for i, c in enumerate(f):
            if c:
                out[(i, j)] = c
    return out


def _ycont(coeffs):
    g = []
    for f in coeffs:
        g = ugcd(g, f)
    return g


def _ydiv_exact(coeffs, d):
    out = []
    for f in coeffs:
        q, r = udivmod(f, d)
        if r:
            raise ArithmeticError("inexact content division")
        out.append(q)
    return out


def _ypseudo_rem(f, g):
    """Pseudo remainder of f by g (both y-lists with Q[x] coefficients)."""
    f = [list(c) for c in f]
    lg = g[-1]
    while f and len(f) >= len(g):
        lf = f[-1]
        d = len(f) - len(g)
        f = [umul(c, lg) for c in f]
        for i, gc in enumerate(g):
            f[d + i] = uadd(f[d + i], uscale(umul(gc, lf), -1))
        while f and not f[-1]:
            f.pop()
    return f


def gcd_bivariate(p, q):
    """gcd of two bivariate polynomials over Q (content * primitive part)."""
    p, q = pclean(p), pclean(q)
    if not p:
        return q
    if not q:
        return p
    fp, fq = _to_ylist(p), _to_ylist(q)
    if len(fp) == 1 and len(fq) == 1:
        return _from_ylist([ugcd(fp[0], fq[0])])
    cp, cq = _ycont(fp), _ycont(fq)
    a, b = _ydiv_exact(fp, cp), _ydiv_exact(fq, cq)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _ypseudo_rem(a, b)
        a, b = b, (_ydiv_exact(r, _ycont(r)) if r else [])
    g = a
    cg = _ycont(g)
    g = _ydiv_exact(g, cg)
    gc = ugcd(cp, cq)
    g = [umul(c, gc) for c in g]
    return _from_ylist(g)
