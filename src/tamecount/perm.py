"""Exact finite permutation-group engine.

Everything is computed by explicit enumeration: element sets are
materialized by breadth-first closure over the generators (no
Schreier--Sims), which keeps every downstream result certifiable at
desk scale (orders up to ~10^5).

Points are labeled 1..degree.  The canonical ordering used by every
"deterministic" contract is lexicographic on the image tuple.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import _kernels as K
from .errors import ContractViolationError, ParseError, ResourceCapError, ValidationError

DEFAULT_ELEMENT_CAP = 100_000

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A bijection of {1..degree}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValidationError("degree-0 permutations are not allowed")
        if sorted(images) != list(range(1, n + 1)):
            raise ValidationError(f"images {images} are not a bijection of 1..{n}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree <= 0:
            raise ValidationError("degree must be positive")
        return cls(range(1, degree + 1))

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self*other)(x) = self(other(x))
        return Permutation(K.compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(K.inverse(self.images))

    def conjugate_by(self, h: "Permutation") -> "Permutation":
        """h * self * h^-1."""
        return Permutation(K.conjugate(h.images, self.images))

    def __pow__(self, e: int) -> "Permutation":
        n = self.degree
        if e < 0:
            return self.inverse() ** (-e)
        result = Permutation.identity(n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    def cycles(self):
        """Nontrivial cycles, each starting at its minimal point."""
        seen = set()
        out = []
        for i in range(1, self.degree + 1):
            if i in seen:
                continue
            cyc = [i]
            seen.add(i)
            j = self.images[i - 1]
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = self.images[j - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __repr__(self):
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse a product of disjoint cycles over 1..degree; "()" is the identity."""
    if degree <= 0:
        raise ValidationError("degree must be positive")
    stripped = text.replace(" ", "")
    if stripped in ("()", ""):
        return Permutation.identity(degree)
    if _CYCLE_RE.sub("", stripped):
        raise ParseError(f"malformed cycle notation near {_CYCLE_RE.sub('', stripped)!r} in {text!r}")
    images = list(range(1, degree + 1))
    used = set()
    for cyc in _CYCLE_RE.findall(stripped):
        pts = []
        for token in cyc.split(","):
            token = token.strip()
            if not token.isdigit():
                raise ParseError(f"bad point token {token!r} in {text!r}")
            p = int(token)
            if p < 1 or p > degree:
                raise ParseError(f"point {p} outside 1..{degree} in {text!r}")
            if p in used:
                raise ParseError(f"point {p} repeated in {text!r}")
            used.add(p)
            pts.append(p)
        if not pts:
            raise ParseError(f"empty cycle in {text!r}")
        for i, p in enumerate(pts):
            images[p - 1] = pts[(i + 1) % len(pts)]
    return Permutation(images)


class PermutationGroup:
    """A group generated by permutations of common degree.

    Immutable after construction; the element set is materialized lazily
    (an idempotent fill, safe under concurrent access).
    """

    def __init__(self, degree, generators, name=None, element_cap=DEFAULT_ELEMENT_CAP):
        if degree <= 0:
            raise ValidationError("degree must be positive")
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = parse_permutation(g, degree)
            elif not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise ValidationError(f"generator degree {g.degree} != group degree {degree}")
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self.element_cap = element_cap
        self._elements = None
        self._classes = None

    @classmethod
    def trivial(cls, degree=1):
        return cls(degree, [Permutation.identity(degree)], name="1")

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    @property
    def elements(self):
        """The full element set, canonically sorted."""
        if self._elements is None:
            raw = K.closure([g.images for g in self.generators] or [self.identity.images],
                            self.element_cap)
            if raw is None:
                raise ResourceCapError(
                    f"group exceeds the element cap of {self.element_cap}")
            self._elements = tuple(Permutation(t) for t in sorted(raw))
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g):
        return isinstance(g, Permutation) and g in set(self.elements)

    def element_set(self):
        return frozenset(self.elements)

    def is_transitive(self) -> bool:
        orbit = {1}
        frontier = [1]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = g(x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        return len(orbit) == self.degree

    def exponent(self) -> int:
        return math.lcm(*(g.order() for g in self.elements))

    def conjugacy_classes(self):
        """Classes in deterministic order: (element order, size, minimal member)."""
        if self._classes is None:
            parts = K.conjugacy_partition([g.images for g in self.elements])
            classes = []
            for part in parts:
                members = tuple(Permutation(t) for t in part)
                rep = members[0]
                classes.append(ConjugacyClass(representative=rep,
                                              members=frozenset(members),
                                              size=len(members)))
            classes.sort(key=lambda c: (c.representative.order(), c.size,
                                        c.representative.images))
            self._classes = tuple(classes)
        return self._classes

    def class_of(self, g: Permutation):
        for cls in self.conjugacy_classes():
            if g in cls.members:
                return cls
        raise ValidationError(f"{g!r} is not an element of the group")

    def center(self):
        return frozenset(g for g in self.elements
                         if all(g * h == h * g for h in self.generators))

    def __repr__(self):
        label = self.name or "?"
        return f"PermutationGroup({label}, degree={self.degree}, gens={len(self.generators)})"


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Permutation
    members: frozenset
    size: int


@dataclass(frozen=True)
class QuotientGroup:
    """G/N presented by the regular action on the coset space."""
    parent: PermutationGroup
    kernel: frozenset
    carrier: PermutationGroup
    projection: dict  # parent element -> coset index (1-based)
    _images: dict     # parent element -> carrier Permutation

    def push(self, g: Permutation) -> Permutation:
        """Image of g in the carrier group."""
        return self._images[g]


def index_of(g: Permutation, n: int | None = None) -> int:
    """ind_n(g) = n - #{orbits of g on 1..n}, fixed points counted."""
    if n is not None and n != g.degree:
        raise ValidationError(f"degree mismatch: permutation has degree {g.degree}, asked for {n}")
    return g.degree - K.cycle_count(g.images)


# ---------------------------------------------------------------------------
# subgroup machinery (element-set based)
# ---------------------------------------------------------------------------

def subgroup_generated(G: PermutationGroup, elems) -> frozenset:
    """Subgroup of G generated by `elems`, as an element set."""
    gens = [g.images for g in elems]
    if not gens:
        return frozenset({G.identity})
    raw = K.closure(gens, G.element_cap)
    if raw is None:
        raise ResourceCapError(f"subgroup closure exceeds the cap of {G.element_cap}")
    return frozenset(Permutation(t) for t in raw)


def is_subgroup(G: PermutationGroup, subset) -> bool:
    subset = frozenset(subset)
    if G.identity not in subset:
        return False
    imgs = {g.images for g in subset}
    return all(K.compose(a.images, b.images) in imgs for a in subset for b in subset)


def is_normal(G: PermutationGroup, subset) -> bool:
    imgs = {g.images for g in subset}
    return all(K.conjugate(h.images, g.images) in imgs
               for h in G.generators for g in subset)


def is_abelian_set(subset) -> bool:
    elems = sorted(subset)
    return all(K.compose(a.images, b.images) == K.compose(b.images, a.images)
               for i, a in enumerate(elems) for b in elems[i + 1:])


def pointwise_class_centralizer(G: PermutationGroup, c) -> frozenset:
    """{g in G : gxg^-1 = x for all x in c}; a subgroup of G."""
    c = list(c)
    if not c:
        raise ValidationError("centralizer of an empty set is not defined here")
    return frozenset(g for g in G.elements
                     if all(K.conjugate(g.images, x.images) == x.images for x in c))


def normal_closure(G: PermutationGroup, elems) -> frozenset:
    """Smallest normal subgroup of G containing `elems`."""
    conjugates = set()
    for x in elems:
        for h in G.elements:
            conjugates.add(Permutation(K.conjugate(h.images, x.images)))
    return subgroup_generated(G, conjugates)


def normal_subgroups(G: PermutationGroup):
    """All normal subgroups, via join-closure of class normal closures.

    Every normal subgroup is a union of conjugacy classes and equals the
    join of the normal closures of the classes it contains, so the
    join-closure of the class closures is exhaustive.
    """
    trivial = frozenset({G.identity})
    seeds = {trivial}
    for cls in G.conjugacy_classes():
        seeds.add(subgroup_generated(G, cls.members))
    known = set(seeds)
    frontier = list(seeds)
    while frontier:
        new = []
        for A in frontier:
            for B in list(known):
                join = subgroup_generated(G, A | B)
                if join not in known:
                    known.add(join)
                    new.append(join)
        frontier = new
    return sorted(known, key=lambda s: (len(s), sorted(g.images for g in s)))


def all_subgroups(G: PermutationGroup):
    """Every subgroup of G by brute-force closure growth (test oracle)."""
    trivial = frozenset({G.identity})
    known = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            for g in G.elements:
                if g in H:
                    continue
                grown = subgroup_generated(G, set(H) | {g})
                if grown not in known:
                    known.add(grown)
                    new.append(grown)
        frontier = new
    return sorted(known, key=lambda s: (len(s), sorted(g.images for g in s)))


def quotient(G: PermutationGroup, N) -> QuotientGroup:
    """G/N with the carrier acting regularly on the coset space."""
    N = frozenset(N)
    if not is_subgroup(G, N):
        raise ContractViolationError("kernel is not a subgroup")
    if not is_normal(G, N):
        raise ContractViolationError("kernel is not normal")
    cosets = []
    seen = set()
    for g in G.elements:  # canonical order; coset rep = minimal member
        if g in seen:
            continue
        coset = frozenset(g * n for n in N)
        seen |= coset
        cosets.append((g, coset))
    index_of_coset = {}
    for i, (_, coset) in enumerate(cosets):
        for x in coset:
            index_of_coset[x] = i + 1
    m = len(cosets)

    def action(g):
        return Permutation(tuple(index_of_coset[g * rep] for rep, _ in cosets))

    images = {g: action(g) for g in G.elements}
    carrier_name = f"{G.name}/N" if G.name else None
    carrier = PermutationGroup(m, [images[g] for g in G.generators] or [Permutation.identity(m)],
                               name=carrier_name, element_cap=G.element_cap)
    projection = {g: index_of_coset[g] for g in G.elements}
    return QuotientGroup(parent=G, kernel=N, carrier=carrier,
                         projection=projection, _images=images)


# ---------------------------------------------------------------------------
# series and structural subgroups
# ---------------------------------------------------------------------------

def upper_central_series(G: PermutationGroup):
    """[Z_0=1, Z_1=Z(G), ...] strictly increasing, ending at the hypercenter."""
    elems = G.elements
    series = [frozenset({G.identity})]
    while True:
        Z = series[-1]
        nxt = frozenset(
            g for g in elems
            if all((h.inverse() * (g.inverse() * (h * g))) in Z for h in G.generators)
        )
        if nxt == Z:
            break
        series.append(nxt)
    return series


def hypercenter(G: PermutationGroup) -> frozenset:
    return upper_central_series(G)[-1]


def is_nilpotent(G: PermutationGroup) -> bool:
    return len(hypercenter(G)) == G.order


def subgroup_as_group(G: PermutationGroup, subset, name=None) -> PermutationGroup:
    return PermutationGroup(G.degree, sorted(subset), name=name, element_cap=G.element_cap)


def fitting_subgroup(G: PermutationGroup) -> frozenset:
    """Join of all nilpotent normal subgroups."""
    fit = frozenset({G.identity})
    for N in normal_subgroups(G):
        if is_nilpotent(subgroup_as_group(G, N)):
            fit = subgroup_generated(G, fit | N)
    return fit


# ---------------------------------------------------------------------------
# product constructions
# ---------------------------------------------------------------------------

def direct_product(G: PermutationGroup, H: PermutationGroup) -> PermutationGroup:
    """G x H acting on n+m disjoint points (intransitive carrier)."""
    n, m = G.degree, H.degree
    gens = []
    for g in G.generators:
        gens.append(Permutation(tuple(g.images) + tuple(range(n + 1, n + m + 1))))
    for h in H.generators:
        gens.append(Permutation(tuple(range(1, n + 1)) + tuple(v + n for v in h.images)))
    name = f"{G.name}x{H.name}" if G.name and H.name else None
    return PermutationGroup(n + m, gens, name=name,
                            element_cap=max(G.element_cap, H.element_cap))


def product_representation(G: PermutationGroup, H: PermutationGroup) -> PermutationGroup:
    """G x H acting on the n*m point pairs; transitive when both factors are."""
    n, m = G.degree, H.degree

    def pair(i, j):  # 1-based point for (i, j)
        return (i - 1) * m + j

    gens = []
    for g in G.generators:
        gens.append(Permutation(tuple(pair(g(i), j) for i in range(1, n + 1)
                                      for j in range(1, m + 1))))
    for h in H.generators:
        gens.append(Permutation(tuple(pair(i, h(j)) for i in range(1, n + 1)
                                      for j in range(1, m + 1))))
    name = f"{G.name}x{H.name}" if G.name and H.name else None
    return PermutationGroup(n * m, gens, name=name,
                            element_cap=max(G.element_cap, H.element_cap))


def wreath_product(N: PermutationGroup, B: PermutationGroup) -> PermutationGroup:
    """N wr B acting imprimitively on n*m points: m blocks of size n.

    Base copies of N act inside each block; B permutes the blocks.
    """
    n, m = N.degree, B.degree

    def point(block, i):  # 1-based
        return (block - 1) * n + i

    gens = []
    for block in range(1, m + 1):
        for g in N.generators:
            images = list(range(1, n * m + 1))
            for i in range(1, n + 1):
                images[point(block, i) - 1] = point(block, g(i))
            gens.append(Permutation(images))
    for b in B.generators:
        images = [0] * (n * m)
        for block in range(1, m + 1):
            for i in range(1, n + 1):
                images[point(block, i) - 1] = point(b(block), i)
        gens.append(Permutation(images))
    name = f"{N.name}wr{B.name}" if N.name and B.name else None
    return PermutationGroup(n * m, gens, name=name,
                            element_cap=max(N.element_cap, B.element_cap))


def regular_embedding(G: PermutationGroup, name=None):
    """Left-regular representation of G, with the element correspondence.

    Returns (R, phi) where R has degree |G| and phi maps each element of
    G to its image permutation in R.
    """
    elems = G.elements
    pos = {g: i + 1 for i, g in enumerate(elems)}

    def act(g):
        return Permutation(tuple(pos[g * x] for x in elems))

    phi = {g: act(g) for g in elems}
    gens = [phi[g] for g in G.generators] or [Permutation.identity(G.order)]
    R = PermutationGroup(G.order, gens, name=name, element_cap=G.element_cap)
    return R, phi


def regular_representation(G: PermutationGroup, name=None) -> PermutationGroup:
    return regular_embedding(G, name=name)[0]


# ---------------------------------------------------------------------------
# group file format
# ---------------------------------------------------------------------------

def parse_group_file(text: str, element_cap=DEFAULT_ELEMENT_CAP) -> PermutationGroup:
    """Parse the ingestion format: `name <label>`, `degree <n>`, one generator per line."""
    lines = text.splitlines()
    name = None
    degree = None
    gens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if name is None:
            if not line.startswith("name "):
                raise ParseError(f"line {lineno}: expected 'name <label>', got {line!r}")
            name = line[5:].strip()
            if not name:
                raise ParseError(f"line {lineno}: empty group name")
            continue
        if degree is None:
            if not line.startswith("degree "):
                raise ParseError(f"line {lineno}: expected 'degree <n>', got {line!r}")
            try:
                degree = int(line[7:].strip())
            except ValueError:
                raise ParseError(f"line {lineno}: bad degree {line[7:].strip()!r}") from None
            if degree <= 0:
                raise ParseError(f"line {lineno}: degree must be positive")
            continue
        try:
            gens.append(parse_permutation(line, degree))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if name is None or degree is None:
        raise ParseError("group file must declare a name and a degree")
    if not gens:
        raise ParseError("group file lists no generators")
    return PermutationGroup(degree, gens, name=name, element_cap=element_cap)


def export_group_file(G: PermutationGroup) -> str:
    lines = [f"name {G.name or 'unnamed'}", f"degree {G.degree}"]
    lines.extend(g.cycle_string() for g in G.generators)
    return "\n".join(lines) + "\n"


def sylow_orders(G: PermutationGroup):
    """Prime factorization of |G| as {p: p^k}."""
    n = G.order
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 1) * p
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 1) * n
    return out

