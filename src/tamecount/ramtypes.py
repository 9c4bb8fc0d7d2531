"""Tame ramification types as k-conjugacy classes.

A tame type is a minimal subset of G\\{1} closed under conjugation and
under the powering action g -> g^u for u in U_e (e the element order).
The base field enters ONLY through the cyclotomic profile: the subgroups
U_e model the image of Gal(k(zeta_e)/k) inside (Z/eZ)^*; no number-field
arithmetic exists anywhere in the artifact.
"""
from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, ResourceCapError, ValidationError
from .hull_lp import exact
from .perm import (DEFAULT_ELEMENT_CAP, Permutation, PermutationGroup, QuotientGroup,
                   content_lines, index_of, is_nilpotent, orbit, prime_factors)


def _units(e: int):
    return frozenset(u for u in range(1, e + 1) if math.gcd(u, e) == 1)


def _is_closed(units, e: int) -> bool:
    """Whether a set of units mod e > 1 that contains 1 is a subgroup.

    Grows the subgroup H generated so far by each unit u not yet in it:
    <H, u> is H, H*u, H*u^2, ... up to the first power of u back in H.
    Each new coset is checked against `units` as it is made, so the work
    is linear in |units|, not quadratic.
    """
    subgroup = {1}
    for u in units:
        if u in subgroup:
            continue
        grown = set(subgroup)
        power = u
        while power not in subgroup:
            coset = {h * power % e for h in subgroup}
            if not coset <= units:
                return False
            grown |= coset
            power = power * u % e
        subgroup = grown
    return True


class CyclotomicProfile:
    """Either full-Q (U_e = (Z/eZ)^* for all e) or a restricted table.

    A restricted table maps specific moduli e to subgroups U_e; moduli not
    listed default to the full unit group.  Compatibility under
    divisibility (reduction mod d maps U_e into U_d) is validated against
    the exponent of the group the profile is used with.
    """

    def __init__(self, restrictions=None, name=None):
        self.restrictions = {}
        for e, units in (restrictions or {}).items():
            if type(e) is not int:  # a bool is not an int here
                raise ValidationError(f"modulus {e!r} is not an int")
            if not isinstance(units, Collection) or any(type(u) is not int for u in units):
                raise ValidationError(f"U_{e} must be a collection of ints, not {units!r}")
            if e < 1:
                raise ValidationError("moduli must be positive")
            units = frozenset(u % e or e for u in units)
            if not units or any(math.gcd(u, e) != 1 for u in units):
                raise ValidationError(f"U_{e} must consist of units mod {e}")
            if 1 not in units and e > 1:
                raise ValidationError(f"U_{e} must contain 1")
            if e > 1 and not _is_closed(units, e):
                raise ValidationError(f"U_{e} = {sorted(units)} is not closed under multiplication")
            self.restrictions[e] = units
        self.name = name or ("Q" if not self.restrictions else "restricted")

    @classmethod
    def full_q(cls) -> "CyclotomicProfile":
        return cls(name="Q")

    @property
    def is_full(self) -> bool:
        return not self.restrictions

    def units_for(self, e: int):
        if e in self.restrictions:
            return self.restrictions[e]
        return _units(e)

    def field_degree(self, e: int) -> int:
        """The modeled [k(zeta_e):k] = |U_e|."""
        return len(self.units_for(e))

    def validate_for_exponent(self, exponent: int):
        """Raise unless reduction mod d maps U_e into U_d for every pair of
        divisors d | e of `exponent`, the pairs taken in order of (e, d).

        Only a restricted U_d can fail: every unit mod e is a unit mod d.
        So each e with a restricted proper divisor builds U_e once, and a
        full-Q profile builds none.
        """
        divisors = [d for d in range(1, exponent + 1) if exponent % d == 0]
        restricted = [d for d in divisors if d in self.restrictions]
        for e in divisors:
            below = [d for d in restricted if d != e and e % d == 0]
            if not below:
                continue
            units = self.units_for(e)
            for d in below:
                reduced = {u % d if u % d else d for u in units}
                if not reduced <= self.restrictions[d]:
                    raise ValidationError(
                        f"profile incompatible: U_{e} reduces outside U_{d}")

    def __repr__(self):
        return f"CyclotomicProfile({self.name})"


def parse_cyclotomic_file(text: str, name=None) -> CyclotomicProfile:
    """Lines `e u1,u2,...` listing generators of U_e as residues."""
    restrictions = {}
    for lineno, line in content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'e u1,u2,...', got {line!r}")
        try:
            e = int(parts[0])
            gens = [int(tok) for tok in parts[1].split(",")]
        except ValueError:
            raise ParseError(f"line {lineno}: bad integer in {line!r}") from None
        if e <= 0:
            raise ParseError(f"line {lineno}: modulus {e} is not positive")
        if e > DEFAULT_ELEMENT_CAP:  # no group within the caps has an element of order e
            raise ResourceCapError(
                f"line {lineno}: modulus {e} exceeds the element cap of {DEFAULT_ELEMENT_CAP}")
        gens = [g % e if g % e else e for g in gens]
        if any(math.gcd(g, e) != 1 for g in gens):
            raise ParseError(f"line {lineno}: non-unit residue for modulus {e}")
        restrictions[e] = orbit(1 % e or e, lambda u: [(u * g) % e or e for g in gens])
    return CyclotomicProfile(restrictions, name=name)


@dataclass(frozen=True)
class TameType:
    """One nontrivial tame k-ramification type of a transitive group."""
    label: str
    members: frozenset
    order: int
    size: int
    conj_orbit_size: int
    zeta_degree: int  # = size / conj_orbit_size: conjugation orbits merged by powering
    representative: Permutation = field(compare=False)

    def __repr__(self):
        return f"TameType({self.label}, order={self.order}, size={self.size})"


def _merged_label(labels):
    prefix = labels[0]
    for lab in labels[1:]:
        while not lab.startswith(prefix):
            prefix = prefix[:-1]
    return prefix.rstrip("-")


def tame_types(G: PermutationGroup, profile: CyclotomicProfile, label_pins=None):
    """All nontrivial tame types of G under the given cyclotomic profile.

    Each type is the union of the classes of rep^u over the units u in
    U_e, rep a class representative of order e.  Each such class is read
    off the power walk that placed rep's class (`G.power_class`), so the
    types cost no composition beyond the walks of `conjugacy_classes`.

    Deterministic labels: within each element order, letters A, B, ... in
    canonical order (size, then minimal member).  `label_pins` maps chosen
    representative permutations to published labels; pins landing in one
    merged type collapse to their common stem (4A1, 4A-1 -> 4A).
    """
    if not G.is_transitive():
        raise ValidationError("tame types are defined for transitive groups only")
    profile.validate_for_exponent(G.exponent())
    classes = G.conjugacy_classes()
    raw = []
    placed = {0}  # the identity class
    for i, cls in enumerate(classes):
        if i in placed:
            continue
        # conjugation commutes with powering, so the classes of rep^u
        # make up the whole type
        merged = {G.power_class(i, u) for u in profile.units_for(cls.order)}
        placed.update(merged)
        members = frozenset().union(*(classes[j].members for j in merged))
        raw.append((cls.order, len(members), cls.representative, members, cls.size))
    raw.sort(key=lambda r: (r[0], r[1], r[2].images))

    pins = label_pins or {}
    types = []
    counters = {}
    for order, size, rep, members, conj in raw:
        pinned = sorted({label for p, label in pins.items() if p in members})
        if len(pinned) == 1:
            label = pinned[0]
        elif len(pinned) > 1:
            label = _merged_label(pinned)
        else:
            i = counters[order] = counters.get(order, -1) + 1
            letters = ""
            while i >= 0:  # A..Z, then AA, AB, ...
                letters = chr(ord("A") + i % 26) + letters
                i = i // 26 - 1
            label = f"{order}{letters}"
        types.append(TameType(label=label, members=members, order=order, size=size,
                              conj_orbit_size=conj, zeta_degree=size // conj,
                              representative=rep))
    if len({t.label for t in types}) != len(types):
        raise AssertionError("type labels must be unique")
    return types


def type_of(types, g: Permutation) -> TameType:
    for t in types:
        if g in t.members:
            return t
    raise ValidationError(f"{g!r} lies in no tame type (is it the identity?)")


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """Positive rational weights on the nontrivial tame types, each given
    as an int or a Fraction (hull_lp.exact) and stored as a Fraction."""
    name: str
    weights: dict  # label -> Fraction

    def __post_init__(self):
        object.__setattr__(self, "weights", {
            lab: w if type(w) is Fraction else Fraction(exact(w, f"weight of {lab}"))
            for lab, w in self.weights.items()})

    def __call__(self, tau) -> Fraction:
        label = tau.label if isinstance(tau, TameType) else tau
        return self.weights[label]

    def validate_total(self, types):
        missing = [t.label for t in types if t.label not in self.weights]
        if missing:
            raise ValidationError(f"weight function {self.name} misses types {missing}")
        bad = [lab for lab, w in self.weights.items() if w <= 0]
        if bad:
            raise ValidationError(f"weights must be positive; offending {bad}")


def weight_discriminant(types, degree: int) -> WeightFunction:
    """wt(tau) = ind_degree(representative); the discriminant exponents."""
    weights = {}
    for t in types:
        if t.representative.degree != degree:
            raise ValidationError("types and degree disagree")
        weights[t.label] = index_of(t.representative)
    wt = WeightFunction(name=f"disc{degree}", weights=weights)
    wt.validate_total(types)
    return wt


_D4_CONDUCTOR = {"2A": 2, "2B": 1, "2C": 1, "4A": 2}


def weight_conductor_d4(types) -> WeightFunction:
    labels = {t.label for t in types}
    if labels != set(_D4_CONDUCTOR):
        raise ValidationError("the conductor table is defined for the D4 type family only")
    wt = WeightFunction(name="cond-d4", weights=_D4_CONDUCTOR)
    wt.validate_total(types)
    return wt


def weight_product_ramified(types) -> WeightFunction:
    return WeightFunction(name="prodram", weights=dict.fromkeys((t.label for t in types), 1))


def weight_inv_gamma(types, gamma: Fraction) -> WeightFunction:
    """The D4 family interpolating conductor and quartic discriminant."""
    gamma = exact(gamma, "gamma")
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    labels = {t.label for t in types}
    if labels != set(_D4_CONDUCTOR):
        raise ValidationError("inv-gamma weights are defined for the D4 type family only")
    weights = {"2A": 2, "2B": 1 + gamma, "2C": 1, "4A": 2 + gamma}
    wt = WeightFunction(name=f"inv-gamma:{gamma}", weights=weights)
    wt.validate_total(types)
    return wt


def weight_custom(table, types, name="custom") -> WeightFunction:
    wt = WeightFunction(name=name, weights=table)
    wt.validate_total(types)
    return wt


def parse_weight_file(text: str, types, name="custom") -> WeightFunction:
    """Lines `label rational`, e.g. `2B 3/2`; every label names one of `types`."""
    labels = {t.label for t in types}
    table = {}
    for lineno, line in content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'label rational', got {line!r}")
        if parts[0] not in labels:
            raise ParseError(f"line {lineno}: unknown type label {parts[0]!r}")
        try:
            table[parts[0]] = Fraction(parts[1])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: bad rational {parts[1]!r}") from None
    return weight_custom(table, types, name=name)


def min_weight(wt: WeightFunction, types):
    """(a_inv, tuple of attaining types in canonical order)."""
    wt.validate_total(types)
    if not types:
        raise ValidationError("no tame types: the trivial group has no nontrivial tame type")
    a = min(wt(t) for t in types)
    argmin = tuple(t for t in types if wt(t) == a)
    return a, argmin


# ---------------------------------------------------------------------------
# pushforward and pole-order bounds
# ---------------------------------------------------------------------------

def pushforward_type(tau: TameType, q: QuotientGroup, profile: CyclotomicProfile):
    """Image of tau in the quotient, re-orbited there; None when trivial.
    Pushing commutes with conjugation and powering, so tau's image lies in
    the type of its representative's image."""
    image = q.push(tau.representative)
    if image.is_identity():
        return None
    return type_of(tame_types(q.carrier, profile), image)


def pole_order_bound(tau: TameType, G: PermutationGroup, profile: CyclotomicProfile) -> int:
    """Bound for the order of the polar divisor s_tau = 1.

    Prime-order types of nilpotent groups never split under twisting, so
    the bound is 1 there; otherwise the modeled [k(zeta_tau):k] applies.
    """
    if is_nilpotent(G) and prime_factors(tau.order) == {tau.order: 1}:
        return 1
    return profile.field_degree(tau.order)
