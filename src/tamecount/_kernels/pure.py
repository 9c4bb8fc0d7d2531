"""Pure-Python permutation kernels.

Permutations are tuples of 1-based images: p maps point i to p[i-1].
These functions are the hot inner loops of element enumeration and
conjugation; `tamecount._kernels._speed` is the compiled twin with
identical behavior.
"""

BACKEND = "pure"


def compose(p, q):
    """(p*q)(x) = p(q(x))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def conjugate(h, g):
    """h g h^-1 as image tuples."""
    n = len(g)
    out = [0] * n
    for i in range(n):
        out[h[i] - 1] = h[g[i] - 1]
    return tuple(out)


def cycle_count(p):
    """Number of cycles of p, fixed points included."""
    n = len(p)
    seen = [False] * n
    count = 0
    for i in range(n):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j] - 1
    return count


def closure(generators, cap):
    """BFS closure of `generators` under composition.

    Returns the full element set, or None if it would exceed `cap`.
    Inverses come for free: powers of each generator reach them.
    """
    if not generators:
        return None
    n = len(generators[0])
    identity = tuple(range(1, n + 1))
    elements = {identity}
    frontier = [identity]
    gens = list(dict.fromkeys(generators))
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                w = tuple(g[h[i] - 1] for i in range(n))
                if w not in elements:
                    elements.add(w)
                    new.append(w)
            if len(elements) > cap:
                return None
        frontier = new
    return elements

