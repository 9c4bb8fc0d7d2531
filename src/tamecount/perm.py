"""Exact finite permutation-group engine.

Everything is computed by explicit enumeration: element sets are
materialized by Dimino's coset closure over the generators (no
Schreier--Sims), which keeps every downstream result certifiable at
desk scale (orders up to ~10^5).  The closure keeps an irredundant
subset of the generators, skipping each one that already lies in the
closure of those kept before it, and grows the group by whole cosets of
that closure; the group stores that subset as `kept`, and the classes
and the upper central series conjugate by it alone, since any
generating set gives the same conjugation orbits.  Element orders and
all powers of class representatives come from walks of powers (`powers`):
one walk places every class of a cyclic subgroup (`power_class`).

Each group caches its conjugacy classes, an element -> class index and
a class-product table; normal subgroups, normal closures and the
Fitting subgroup are unions of classes, found as bitmask fixpoints of
that table, lattice joins as one pass over it (the class-structure
methods of Hulpke, "Computing normal subgroups", ISSAC 1998).  `_close`
is the one rule: a class union holding the identity is a normal
subgroup exactly when `_close` from it adds nothing
(`normal_subgroup_mask`), and `is_abelian_normal` adds a
commutation test of its generating classes, run once per group and
mask.  The lattice caches its masks beside its element sets, so
`abelian_normal_subgroups` and the Fitting subgroup never rebuild them.
Membership reads the class index.

Every breadth-first search here is one `orbit`: the conjugation orbits
that make the classes, walked over element positions along one
conjugation table per non-central kept generator, the point orbit
behind `is_transitive` and the join search of the normal-subgroup
lattice.
Every coset action is one `QuotientGroup`, G acting on the cosets of N
by left multiplication: `quotient` builds it, and `regular_embedding`
on the singleton cosets.  Its carrier is built from the generators'
images only; `push` computes any other element's image when asked for.

Points are labeled 1..degree.  The canonical ordering used by every
"deterministic" contract is lexicographic on the image tuple, and
subgroups are ordered by `subgroup_key`.  The elements fixing 1..i come
first in that order, so `lex_base` reads a base off the sorted elements
by bisection, and the class internals key an element by its images of
that base.  The module-level kernels below
work on bare image tuples (p maps point i to p[i-1]); they are the hot
inner loops of closure and conjugation.  Composition and conjugation
are `operator.itemgetter` calls, so their per-point loop runs in C:
p*q is `itemgetter(*q)((0,) + p)`, and a loop with one fixed factor
builds its getter once (`right_multiplier`, `conjugation_step`): a
whole coset is one `map` of its representative's right multiplier, a
power walk one right multiplier applied again and again, and a
conjugation table, block by block, one column of the elements' images
per base point, each sent through the conjugating generator whole.
Permutations the kernel builds from valid ones are wrapped without the
bijection check (`Permutation._of`); user data is always checked.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, or_
from pathlib import Path
from struct import Struct

from .errors import ContractViolationError, ParseError, ResourceCapError, ValidationError

DEFAULT_ELEMENT_CAP = 100_000
# a closure stores elements x degree points; C5000 stores 25 M of them
DEFAULT_POINT_CAP = 2 ** 25
# product(8T11,8T11) has 2,931 normal subgroups, C2^7 as a product 29,212
_LATTICE_CAP = 10_000
# elements per block of a conjugation table's columns (`_conjugation_tables`)
_TABLE_BLOCK = 1024

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _padded_multiplier(q):
    """The map (0,) + p -> p*q: q's 1-based images index the padded tuple."""
    if len(q) == 1:  # itemgetter with one index returns a bare value
        return lambda padded: padded[1:]
    return itemgetter(*q)


def compose(p, q):
    """(p*q)(x) = p(q(x))."""
    return _padded_multiplier(q)((0,) + p)


def right_multiplier(q):
    """The map p -> p*q on image tuples, its getter built once for a fixed q."""
    if len(q) == 1:
        return tuple
    return itemgetter(*[j - 1 for j in q])


def inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def conjugation_step(generators):
    """The map x -> [h x h^-1 for h in generators] on image tuples.

    h*x picks x's images out of h, with one getter for x serving every h;
    multiplying by h^-1 on the right is a fixed reordering, built once
    per h.
    """
    pairs = [((0,) + h, right_multiplier(inverse(h))) for h in generators]

    def step(x):
        times_x = _padded_multiplier(x)
        return [times_inverse(times_x(padded)) for padded, times_inverse in pairs]
    return step


def conjugate(h, g):
    """h g h^-1 as image tuples."""
    return conjugation_step([h])(g)[0]


def lex_base(images):
    """The lexicographically first base of the group whose elements, as image
    tuples, are the canonically sorted list `images`: point b is a base point
    when the elements fixing 1..b-1 do not all fix b.

    The elements fixing 1..b-1 are a prefix of `images`, sorted there by
    their image of b, which is b or a larger point; so the last of them
    tells whether b is a base point, and one bisection on the image of b
    finds the smaller prefix that fixes it too.  The walk stops once that
    prefix is the identity alone, with no pass over the elements.  The
    elements fixing the base are the ones fixing 1..b for the last base
    point b: the identity alone, so an element is determined by its images
    of the base (Sims 1970; Seress, Permutation Group Algorithms, 2003,
    ch. 4).  A trivial group has an empty base.
    """
    base, size = [], len(images)
    for b in range(1, len(images[0]) + 1):
        if size == 1:
            break
        if images[size - 1][b - 1] != b:
            base.append(b)
            size = bisect_left(images, b + 1, 0, size, key=itemgetter(b - 1))
    return base


def _conjugation_tables(generators, base, images):
    """For each image tuple h in `generators`, the position of h x h^-1 in
    `images` for every x there; `images` is a group's canonically sorted
    element list and `base` its `lex_base`.

    An element is keyed by its images of the base packed into bytes ("I"
    holds every point under the point cap), smaller than a tuple and not
    tracked by the garbage collector.  The image of h x h^-1 at a base
    point b is h(x(h^-1(b))), so a table reads the elements at the points
    h^-1(base) only: block by block, one column per base point is taken
    out in one pass and sent through h whole by one getter, with no
    per-element getter and no full image tuple built or hashed.  A block
    holds `_TABLE_BLOCK` to twice that many elements (all of them in a
    smaller group), so the columns stay small.  With no generator there is
    no table and no key.
    """
    if not generators:
        return []
    # a non-central h makes the group non-abelian: the base is not empty,
    # and a block has min(order, _TABLE_BLOCK) > 1 elements, so each
    # getter over a column returns a tuple
    key = Struct(f"{len(base)}I").pack
    # the positions outlive the keys in the tables: made first, they share
    # no memory block with the keys, which are all freed together on return
    positions = list(range(len(images)))
    position = dict(zip(map(key, *[map(itemgetter(b - 1), images) for b in base]), positions))
    bounds = [0, *range(_TABLE_BLOCK, len(images) - _TABLE_BLOCK, _TABLE_BLOCK), len(images)]
    tables = []
    for h in generators:
        padded, h_inverse = (0,) + h, inverse(h)
        columns = [itemgetter(h_inverse[b - 1] - 1) for b in base]
        table = []
        for start, stop in zip(bounds, bounds[1:]):
            block = images[start:stop]
            table += map(position.__getitem__, map(key, *[
                itemgetter(*map(column, block))(padded) for column in columns]))
        tables.append(table)
    return tables


def _cycle_lengths(p):
    """Cycle lengths of p, fixed points included; one walk per cycle."""
    seen = bytearray(len(p))
    lengths = []
    i = seen.find(0)
    while i >= 0:
        length = 0
        while not seen[i]:
            seen[i] = 1
            i = p[i] - 1
            length += 1
        lengths.append(length)
        i = seen.find(0, i)
    return lengths


def powers(p):
    """p^0, p^1, ..., p^(e-1) for p of order e: one walk, p's right
    multiplier built once."""
    identity = tuple(range(1, len(p) + 1))
    times_p = right_multiplier(p)
    power = identity
    while True:
        yield power
        power = times_p(power)
        if power == identity:
            return


def cycle_count(p):
    """Number of cycles of p, fixed points included."""
    return len(_cycle_lengths(p))


def orbit(start, step, limit=math.inf):
    """Breadth-first orbit of `start` under `step`, in discovery order.

    `step(x)` returns the neighbours of x; `start` comes first.  Once more
    than `limit` values are found, checked after each value's neighbours,
    the search stops and returns what it has (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, ch. 4).
    """
    found = [start]
    seen = {start}
    for x in found:
        for y in step(x):
            if y not in seen:
                seen.add(y)
                found.append(y)
        if len(found) > limit:
            break
    return found


def _moved_first(p):
    """Closure's generator order: more moved points first, then the image tuple."""
    return (-sum(i != v for i, v in enumerate(p, 1)), p)


def closure(generators):
    """The group generated by the nonempty list `generators`: Dimino's coset
    closure (Butler, Fundamental Algorithms for Permutation Groups, LNCS
    559, 1991).

    Returns (elements, kept): the full element list and an irredundant
    generating subset of `generators`.  The distinct generators are taken
    in `_moved_first` order; one that lies in the closure H of those kept
    so far is skipped, so each kept generator lies outside the closure of
    the earlier ones.  A kept one grows H by whole right cosets: coset
    representatives are walked from the identity, and for each one r and
    each kept generator h, a product g = r*h that is not yet an element
    adds the coset H*g, one `right_multiplier(g)` pass over H, and becomes
    a representative itself.  The elements stay a union of right cosets
    of H, so g outside them means all of H*g is new; they come H first,
    then coset by coset.  Any generating set gives the same closure and
    the same conjugation orbits, so every later search can run over `kept`
    alone.  Inverses come for free: powers of each generator reach them.

    Before each coset is built, raises ResourceCapError if the closure
    would then hold more than DEFAULT_ELEMENT_CAP elements or more than
    DEFAULT_POINT_CAP points (elements x degree), which bounds the work of
    a high-degree closure; the count it names is the size the closure
    would reach, a lower bound on the group order.
    """
    n = len(generators[0])
    limit = min(DEFAULT_ELEMENT_CAP, DEFAULT_POINT_CAP // n)
    identity = tuple(range(1, n + 1))
    elements, kept, multipliers = [identity], [], []
    members = {identity}
    for generator in sorted(set(generators), key=_moved_first):
        if generator in members:
            continue
        kept.append(generator)
        multipliers.append(right_multiplier(generator))
        subgroup = elements.copy()  # H, the closure of the generators kept before
        representatives = [identity]
        for r in representatives:
            for times_h in multipliers:
                g = times_h(r)
                if g in members:
                    continue
                size = len(elements) + len(subgroup)
                if size > limit:
                    if size > DEFAULT_ELEMENT_CAP:
                        raise ResourceCapError(
                            f"group closure exceeds the element cap of {DEFAULT_ELEMENT_CAP}")
                    raise ResourceCapError(
                        f"group closure exceeds the point cap of {DEFAULT_POINT_CAP}: "
                        f"{size} elements x degree {n} = {size * n} points")
                # H trivial: g alone, with no getter built for a one-element coset
                coset = list(map(right_multiplier(g), subgroup)) if len(subgroup) > 1 else [g]
                elements.extend(coset)
                members.update(coset)
                representatives.append(g)
    return elements, kept


def check_degree(n: int):
    """Refuse an input degree above DEFAULT_POINT_CAP before any image tuple
    of it is built: closure would refuse every group of that degree."""
    if n > DEFAULT_POINT_CAP:
        raise ResourceCapError(f"degree {n} exceeds the point cap of {DEFAULT_POINT_CAP}")


def check_transitive_degree(n: int, *factors: PermutationGroup, least: int | None = None):
    """`check_degree(n)` for a group of degree n built from `factors`, and
    more when every factor is transitive.  Then a product or wreath product
    is transitive, as is a regular cyclic group (no factors), and a
    transitive group of degree n has at least n elements; a direct product
    of transitive groups of degrees a and b is not transitive, but holds at
    least `least` = a*b elements.  Closure would refuse the group once that
    many elements x degree n exceed DEFAULT_POINT_CAP, so it is refused
    before any of its generators is built."""
    check_degree(n)
    elements = n if least is None else least
    if elements * n > DEFAULT_POINT_CAP and all(F.is_transitive() for F in factors):
        raise ResourceCapError(
            f"{'transitive ' if least is None else ''}degree {n} exceeds the point cap of "
            f"{DEFAULT_POINT_CAP}: at least {elements} elements x degree {n} = "
            f"{elements * n} points")


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

    @classmethod
    def _of(cls, images: tuple) -> "Permutation":
        """Wrap an image tuple the kernel built from valid permutations, unchecked."""
        p = object.__new__(cls)
        p.images = images
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree <= 0:
            raise ValidationError("degree must be positive")
        return cls._of(tuple(range(1, degree + 1)))

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self*other)(x) = self(other(x))
        return Permutation._of(compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._of(inverse(self.images))

    def conjugate_by(self, h: "Permutation") -> "Permutation":
        """h * self * h^-1."""
        return Permutation._of(conjugate(h.images, self.images))

    def __pow__(self, e: int) -> "Permutation":
        """Square and multiply on image tuples; powers of one element commute."""
        base = self.images
        if e < 0:
            base, e = inverse(base), -e
        result = tuple(range(1, len(base) + 1))
        while e:
            if e & 1:
                result = compose(result, base)
            e >>= 1
            if e:
                base = compose(base, base)
        return Permutation._of(result)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def order(self) -> int:
        return math.lcm(*set(_cycle_lengths(self.images)))

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
        return "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles()) or "()"

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
        for i, p in enumerate(pts):
            images[p - 1] = pts[(i + 1) % len(pts)]
    return Permutation(images)


class PermutationGroup:
    """A group generated by permutations of common degree.

    Immutable after construction; the element set is materialized lazily
    (an idempotent fill, safe under concurrent access).
    """

    def __init__(self, degree, generators, name=None):
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
        self._elements = None
        self._kept = None
        self._classes = None
        self._places = None
        self._class_index = None
        self._class_products = None
        self._normal_subgroups = None
        self._normal_masks = None
        self._abelian_masks = {}  # class mask -> `_abelian_mask`, each mask tested once
        self._fitting = None

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    @property
    def elements(self):
        """The full element set, canonically sorted."""
        if self._elements is None:
            raw, kept = closure([g.images for g in self.generators] or [self.identity.images])
            self._kept = tuple(map(Permutation._of, kept))
            self._elements = tuple(map(Permutation._of, sorted(raw)))
        return self._elements

    @property
    def kept(self):
        """The irredundant generating subset of `generators` that `closure`
        keeps; the classes and the upper central series conjugate by it."""
        _ = self.elements
        return self._kept

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g):
        """Membership, read from the class index."""
        if not isinstance(g, Permutation):
            return False
        self.conjugacy_classes()
        return g.images in self._class_index

    def element_set(self):
        return frozenset(self.elements)

    def is_transitive(self) -> bool:
        return len(orbit(1, lambda x: [g(x) for g in self.generators])) == self.degree

    def exponent(self) -> int:
        return math.lcm(*(c.order for c in self.conjugacy_classes()))

    def conjugacy_classes(self):
        """Classes in deterministic order: (element order, size, minimal member).

        The base comes off the sorted elements by bisection (`lex_base`),
        and an element is found by its images of it, never by hashing its
        whole image tuple.  Each kept generator h that fails to commute
        with another kept generator gets one conjugation table, the
        position of h x h^-1 for every element x in canonical order, read
        from the elements' images at h^-1(base) (`_conjugation_tables`); a
        central one would give the identity table and gets none.  The
        conjugation orbits are then walked over element positions, each
        step one row of the tables, so an abelian group walks one-element
        orbits and conjugates nothing; the identity class comes first.  A
        class not yet reached walks its representative r's powers once
        (`powers`), each power found by one bisection on its images up to
        the last base point: each class first reached at step k, the class
        of r^k, gets the place (walk, k) and, r of order e, the order
        e/gcd(k, e).  One walk places every class of a cyclic subgroup
        (`power_class`).
        """
        if self._classes is None:
            elements = self.elements
            images = [g.images for g in elements]
            base = lex_base(images)
            kept = [h.images for h in self.kept]
            tables = _conjugation_tables(
                [h for h in kept if any(compose(h, x) != compose(x, h) for x in kept)],
                base, images)
            step = (list(zip(*tables)) if tables else [()] * len(images)).__getitem__
            orbit_of = [None] * len(images)  # element position -> its orbit in `orbits`
            orbits = []
            for i in range(len(images)):  # canonical order: each orbit starts at its minimum
                if orbit_of[i] is None:
                    found = orbit(i, step)
                    for j in found:
                        orbit_of[j] = len(orbits)
                    orbits.append(found)
            # an element is the only one with its images of 1..prefix, the
            # last base point, so one bisection finds each power's position
            prefix = max(base, default=0)
            places = [None] * len(orbits)
            walks = []
            for i, found in enumerate(orbits):
                if places[i] is None:
                    walk = [orbit_of[bisect_left(images, x[:prefix])]
                            for x in powers(images[found[0]])]
                    walks.append(walk)
                    for k, j in enumerate(walk):
                        if places[j] is None:
                            places[j] = (walk, k)
            step = tables = None  # freed before the class index is built
            orders = [len(walk) // math.gcd(k, len(walk)) for walk, k in places]
            ranked = sorted(range(len(orbits)),
                            key=lambda i: (orders[i], len(orbits[i]), orbits[i][0]))
            rank = sorted(range(len(ranked)), key=ranked.__getitem__)  # inverse of `ranked`
            for walk in walks:  # the places now point at class positions
                walk[:] = map(rank.__getitem__, walk)
            classes = []
            for j in ranked:
                members = list(map(elements.__getitem__, orbits[j]))
                classes.append(ConjugacyClass(representative=members[0],
                                              members=frozenset(members), size=len(members),
                                              order=orders[j]))
            self._places = [places[j] for j in ranked]  # before `_classes`: readers see both
            self._class_index = dict(zip(images, map(rank.__getitem__, orbit_of)))
            self._classes = tuple(classes)
        return self._classes

    def power_class(self, i: int, u: int) -> int:
        """Position of the class of rep_i^u, with no composition: class i is the
        class of r^k at its place (walk, k), so rep_i^u is r^(k*u) up to conjugacy."""
        self.conjugacy_classes()
        walk, k = self._places[i]
        return walk[k * u % len(walk)]

    def class_index(self, g: Permutation) -> int:
        """Position of g's class in `conjugacy_classes()`."""
        self.conjugacy_classes()
        try:
            return self._class_index[g.images]
        except KeyError:
            raise ValidationError(f"{g!r} is not an element of the group") from None

    def class_of(self, g: Permutation):
        return self.conjugacy_classes()[self.class_index(g)]

    def class_products(self):
        """prod[i][j]: bitmask of the classes met by rep_i * C_j.

        It is also the set of classes met by C_i * C_j, which equals
        C_j * C_i, so the table is symmetric and each entry can run over
        the smaller of its two classes.  rep*x = rep (x rep) rep^-1 is
        conjugate to x*rep, so one fixed right multiplier by rep serves a
        whole row: taking the rows in order of class size, row b covers the
        classes no larger than C_b, sum(min(|C_i|, |C_j|)) compositions.
        """
        if self._class_products is None:
            classes = self.conjugacy_classes()
            lookup = self._class_index.__getitem__
            members = [[x.images for x in c.members] for c in classes]
            k = len(classes)
            prod = [[0] * k for _ in range(k)]
            by_size = sorted(range(k), key=lambda c: classes[c].size)
            for position, b in enumerate(by_size):
                times_rep = right_multiplier(classes[b].representative.images)
                row = prod[b]
                for c in by_size[:position + 1]:
                    met = set(map(lookup, map(times_rep, members[c])))
                    row[c] = prod[c][b] = sum(1 << m for m in met)
            self._class_products = prod
        return self._class_products

    def __repr__(self):
        label = self.name or "?"
        return f"PermutationGroup({label}, degree={self.degree}, gens={len(self.generators)})"


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Permutation
    members: frozenset
    size: int
    order: int  # element order, shared by every member


class QuotientGroup:
    """G/N, its `carrier` acting by left multiplication on the cosets gN
    (N given as the image tuples `kernel`), listed by their minimal members
    in canonical order."""

    def __init__(self, G: PermutationGroup, kernel, name=None):
        times_members = [right_multiplier(n) for n in kernel]
        self._coset_of = {}     # element image tuple -> its coset's position, from 1
        self._times_reps = []   # x -> x*rep for each coset representative rep
        for g in G.elements:
            if g.images not in self._coset_of:
                self._times_reps.append(right_multiplier(g.images))
                for times_member in times_members:
                    self._coset_of[times_member(g.images)] = len(self._times_reps)
        m = len(self._times_reps)
        self.carrier = PermutationGroup(m, [self.push(g) for g in G.generators]
                                        or [Permutation.identity(m)], name=name)

    def push(self, g: Permutation) -> Permutation:
        """Image of g in the carrier group; ValidationError when g is not in G."""
        if g.images not in self._coset_of:
            raise ValidationError(f"{g!r} is not an element of the group")
        return Permutation._of(tuple(self._coset_of[times_rep(g.images)]
                                     for times_rep in self._times_reps))


def index_of(g: Permutation) -> int:
    """ind_n(g) = n - #{orbits of g on 1..n} for g of degree n, fixed points counted."""
    return g.degree - cycle_count(g.images)


def subgroup_generated(G: PermutationGroup, elems) -> frozenset:
    """Subgroup of G generated by `elems`, as an element set."""
    gens = [g.images for g in elems]
    if not gens:
        return frozenset({G.identity})
    return frozenset(map(Permutation._of, closure(gens)[0]))


def pointwise_class_centralizer(G: PermutationGroup, c) -> frozenset:
    """{g in G : gxg^-1 = x for all x in c}; a subgroup of G."""
    c = [x.images for x in c]
    if not c:
        raise ValidationError("centralizer of an empty set is not defined here")
    return frozenset(g for g in G.elements
                     if all(compose(g.images, x) == compose(x, g.images) for x in c))


def subgroup_key(subset):
    """The canonical subgroup order: (order, sorted image tuples)."""
    return (len(subset), sorted(g.images for g in subset))


# ---------------------------------------------------------------------------
# normal subgroups from class data: a normal subgroup is a union of classes,
# held as a bitmask over `conjugacy_classes()`
# ---------------------------------------------------------------------------

def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(prod, start: int, gens) -> int:
    """Smallest class union containing `start` and closed under right
    multiplication by the classes `gens`.

    From the identity class this is the subgroup generated by those
    classes, i.e. their normal closure; from a normal subgroup N it is the
    join of N with that closure.
    """
    result = frontier = start
    while frontier:
        new = 0
        for i in _bits(frontier):
            row = prod[i]
            for j in gens:
                new |= row[j]
        frontier = new & ~result
        result |= frontier
    return result


def _class_union(G: PermutationGroup, mask: int) -> frozenset:
    classes = G.conjugacy_classes()
    out = set()
    for i in _bits(mask):
        out |= classes[i].members
    return frozenset(out)


def class_mask(G: PermutationGroup, subset) -> int | None:
    """Bitmask of the classes of G whose union is `subset`.

    None when an element of `subset` lies outside G or when `subset` meets
    a class without containing all of it (then the sizes of the classes met
    sum to more than |subset|); so a subset of G gets a mask exactly when it
    is closed under conjugation.
    """
    classes = G.conjugacy_classes()
    images = {x.images for x in subset}
    hits = set(map(G._class_index.get, images))
    if None in hits or sum(classes[i].size for i in hits) != len(images):
        return None
    return sum(1 << i for i in hits)


def normal_closure(G: PermutationGroup, elems) -> frozenset:
    """Smallest normal subgroup of G containing `elems`."""
    gens = sorted({G.class_index(g) for g in elems})
    return _class_union(G, _close(G.class_products(), 1, gens))


def normal_subgroup_mask(G: PermutationGroup, S) -> int | None:
    """`class_mask(G, S)` when S is a normal subgroup of G, else None.

    A class union holding the identity is a subgroup when it is closed
    under the products of its own classes: `_close` from it adds nothing.
    """
    mask = class_mask(G, S)
    if mask is None or not mask & 1:
        return None
    return mask if _close(G.class_products(), mask, tuple(_bits(mask))) == mask else None


def _abelian_mask(G: PermutationGroup, mask: int) -> bool:
    """Whether the normal subgroup with class mask `mask` is abelian.

    Checks only the classes that generate it, each taken when the classes
    before it do not yet generate it: a group generated by pairwise
    commuting elements is abelian.  Conjugation carries a commuting pair
    (r, x) to all pairs of their classes, so each generating representative
    meets the generating classes from its own on.
    """
    prod = G.class_products()
    classes = G.conjugacy_classes()
    span = 1
    gens = []
    for i in _bits(mask):
        if not span >> i & 1:
            span = _close(prod, span, (i,))
            if classes[i].size > 1:  # a one-element class is central
                gens.append(i)
    reps = [classes[i].representative.images for i in gens]
    return all(compose(r, x.images) == compose(x.images, r)
               for k, r in enumerate(reps) for j in gens[k:] for x in classes[j].members)


def _is_abelian(G: PermutationGroup, mask: int) -> bool:
    """`_abelian_mask(G, mask)`, run once per group and mask."""
    abelian = G._abelian_masks.get(mask)
    if abelian is None:
        abelian = G._abelian_masks[mask] = _abelian_mask(G, mask)
    return abelian


def is_abelian_normal(G: PermutationGroup, S) -> bool:
    """Whether S is an abelian normal subgroup of G."""
    mask = normal_subgroup_mask(G, S)
    return mask is not None and _is_abelian(G, mask)


def normal_subgroups(G: PermutationGroup):
    """All normal subgroups, sorted by (order, sorted images); a fresh list.

    The lattice and its class masks are built once per group and cached on it.
    """
    if G._normal_subgroups is None:
        # masks first: a reader that finds the sets finds their masks
        G._normal_masks, G._normal_subgroups = _normal_subgroup_lattice(G)
    return list(G._normal_subgroups)


def _normal_subgroup_lattice(G: PermutationGroup):
    """(class masks, element sets) of the normal subgroups, in key order.

    Every normal subgroup is a union of conjugacy classes and the join of
    the normal closures of the classes it contains, so growing the trivial
    subgroup one class closure S at a time reaches every one of them.  N*S
    is the union of the C_i C_j over i in N, j in S: its mask is one pass
    over N's classes of rows[i] = OR_{j in S} prod[i][j], built per seed.
    """
    prod = G.class_products()
    joins = []  # (closure S of a class, its rows)
    for S in {_close(prod, 1, (c,)) for c in range(1, len(prod))}:
        in_s = list(_bits(S))
        joins.append((S, [reduce(or_, map(row.__getitem__, in_s)) for row in prod]))

    def step(N):
        in_n = list(_bits(N))
        return [reduce(or_, map(rows.__getitem__, in_n)) for S, rows in joins if S & ~N]

    known = orbit(1, step, _LATTICE_CAP)
    if len(known) > _LATTICE_CAP:
        raise ResourceCapError(f"normal-subgroup lattice exceeds the member cap of {_LATTICE_CAP}")
    members = sorted(((_class_union(G, mask), mask) for mask in known),
                     key=lambda member: subgroup_key(member[0]))
    return tuple(mask for _, mask in members), tuple(N for N, _ in members)


def abelian_normal_subgroups(G: PermutationGroup):
    """Proper nontrivial normal subgroups with abelian carrier, in key order."""
    return [N for N, mask in zip(normal_subgroups(G), G._normal_masks)
            if 1 < len(N) < G.order and _is_abelian(G, mask)]


def quotient(G: PermutationGroup, N) -> QuotientGroup:
    """G/N with the carrier acting on the cosets of N by left multiplication."""
    N = frozenset(N)
    if normal_subgroup_mask(G, N) is None:
        raise ContractViolationError("kernel is not normal, or not a subgroup")
    return QuotientGroup(G, [x.images for x in N], f"{G.name}/N" if G.name else None)


# ---------------------------------------------------------------------------
# series and structural subgroups
# ---------------------------------------------------------------------------

def upper_central_series(G: PermutationGroup):
    """[Z_0=1, Z_1=Z(G), ...] strictly increasing, ending at the hypercenter.

    Z_{i+1} holds the g with h g h^-1 g^-1 in Z_i for every kept generator
    h; each Z_i is normal, a union of classes, so one member per class is
    tested.
    """
    step = conjugation_step([h.images for h in G.kept])
    commutators = [(c.members, list(map(right_multiplier(inverse(c.representative.images)),
                                        step(c.representative.images))))
                   for c in G.conjugacy_classes()]
    series = [frozenset({G.identity})]
    while True:
        Z = {x.images for x in series[-1]}
        nxt = frozenset().union(*(members for members, comms in commutators if Z.issuperset(comms)))
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_nilpotent(G: PermutationGroup) -> bool:
    """A finite group is nilpotent iff it is its own Fitting subgroup."""
    return len(fitting_subgroup(G)) == G.order


def subgroup_as_group(G: PermutationGroup, subset, name=None) -> PermutationGroup:
    return PermutationGroup(G.degree, sorted(subset), name=name)


def fitting_subgroup(G: PermutationGroup) -> frozenset:
    """Join of the normal subgroups of prime-power order.

    That is the product of the O_p(G), the largest nilpotent normal
    subgroup; cached on the group.
    """
    if G._fitting is None:
        mask = 0
        for N, N_mask in zip(normal_subgroups(G), G._normal_masks):
            if len(prime_factors(len(N))) == 1:
                mask |= N_mask
        G._fitting = _class_union(G, _close(G.class_products(), 1, tuple(_bits(mask))))
    return G._fitting


# ---------------------------------------------------------------------------
# product constructions
# ---------------------------------------------------------------------------

def direct_product(G: PermutationGroup, H: PermutationGroup) -> PermutationGroup:
    """G x H acting on n+m disjoint points (intransitive carrier)."""
    n, m = G.degree, H.degree
    check_transitive_degree(n + m, G, H, least=n * m)
    gens = []
    for g in G.generators:
        gens.append(Permutation(tuple(g.images) + tuple(range(n + 1, n + m + 1))))
    for h in H.generators:
        gens.append(Permutation(tuple(range(1, n + 1)) + tuple(v + n for v in h.images)))
    name = f"{G.name}x{H.name}" if G.name and H.name else None
    return PermutationGroup(n + m, gens, name=name)


def product_representation(G: PermutationGroup, H: PermutationGroup) -> PermutationGroup:
    """G x H acting on the n*m point pairs; transitive when both factors are."""
    n, m = G.degree, H.degree
    check_transitive_degree(n * m, G, H)

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
    return PermutationGroup(n * m, gens, name=name)


def wreath_product(N: PermutationGroup, B: PermutationGroup) -> PermutationGroup:
    """N wr B acting imprimitively on n*m points: m blocks of size n.

    Base copies of N act inside each block; B permutes the blocks.
    """
    n, m = N.degree, B.degree
    check_transitive_degree(n * m, N, B)

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
    return PermutationGroup(n * m, gens, name=name)


def regular_embedding(G: PermutationGroup, name=None) -> QuotientGroup:
    """Left-regular representation of G, its action on the singleton cosets
    G/1: the carrier has degree |G|.  The kernel is trivial, so `quotient`'s
    normality check is not needed."""
    return QuotientGroup(G, [G.identity.images], name)


def regular_representation(G: PermutationGroup, name=None) -> PermutationGroup:
    return regular_embedding(G, name=name).carrier


# ---------------------------------------------------------------------------
# group file format
# ---------------------------------------------------------------------------

def read_input_file(path) -> str:
    """The text of an input file; a path that is no readable UTF-8 file (a
    directory, say) raises ValidationError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"{path} is not UTF-8 text") from None


def content_lines(text: str):
    """(line number, stripped line) for each line of an input file that is
    neither blank nor a `#` comment; numbering starts at 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_group_file(text: str) -> PermutationGroup:
    """Parse the ingestion format: `name <label>`, `degree <n>`, one generator per line."""
    name = None
    degree = None
    gens = []
    for lineno, line in content_lines(text):
        if name is None:
            if not line.startswith("name "):
                raise ParseError(f"line {lineno}: expected 'name <label>', got {line!r}")
            name = line[5:].strip()
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
            check_degree(degree)
            continue
        try:
            gens.append(parse_permutation(line, degree))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if name is None or degree is None:
        raise ParseError("group file must declare a name and a degree")
    if not gens:
        raise ParseError("group file lists no generators")
    return PermutationGroup(degree, gens, name=name)


def export_group_file(G: PermutationGroup) -> str:
    lines = [f"name {G.name or 'unnamed'}", f"degree {G.degree}"]
    lines.extend(g.cycle_string() for g in G.generators)
    return "\n".join(lines) + "\n"


def prime_factors(n: int) -> dict:
    """{p: k} with n the product of the p^k, by trial division; {} below 2."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out
