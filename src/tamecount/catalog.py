"""Built-in group catalog and request resolution.

Only constructions pinned by published class data ship here: the two D4
representations (presentation a^4 = b^2 = 1, bab^-1 = a^-1 with b a
transposition), the two Q8xC2 representations (published degree-8 class
representatives and the left-regular degree-16 action), S3, cyclic
groups, and product / wreath / file combinators.  Bare nTd labels
outside this list must come from user files; no guess is made about
which permutation representation a label denotes.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .perm import (PermutationGroup, check_transitive_degree, parse_group_file,
                   parse_permutation, product_representation, read_input_file,
                   regular_embedding, wreath_product)
from .hull_lp import parse_rational
from .ramtypes import (CyclotomicProfile, WeightFunction, parse_cyclotomic_file,
                       parse_weight_file, tame_types, weight_conductor_d4,
                       weight_discriminant, weight_inv_gamma, weight_product_ramified)

Q8XC2_CLASS_REPS = {
    # label -> degree-8 representative (published class table)
    "2A": "(1,5)(2,6)(3,7)(4,8)",
    "2B": "(1,6)(2,5)(3,8)(4,7)",
    "2C": "(1,5)(3,7)",
    "2D": "(1,4)(2,7)(3,6)(5,8)",
    "4A1": "(1,3,5,7)(2,4,6,8)",
    "4A-1": "(1,7,5,3)(2,8,6,4)",
    "4B": "(1,8,5,4)(2,7,6,3)",
    "4C": "(1,3,5,7)(2,8,6,4)",
    "4D": "(1,6,5,2)(3,8,7,4)",
}

D4_CLASS_REPS = {
    # label -> degree-4 representative, for a = (1,2,3,4), b = (1,3)
    "2A": "(1,3)(2,4)",   # a^2
    "2B": "(1,4)(2,3)",   # a*b
    "2C": "(1,3)",        # b
    "4A": "(1,2,3,4)",    # a
}


@dataclass
class CatalogEntry:
    label: str
    group: PermutationGroup
    provenance: str
    label_pins: dict = field(default_factory=dict)  # Permutation -> label
    sibling: tuple | None = None  # (group, pins) of the other published representation
    conductor_family: bool = False
    gamma_family: bool = False

    def types(self, cyc: CyclotomicProfile):
        return tame_types(self.group, cyc, label_pins=self.label_pins)


def _pinned_entry(base: PermutationGroup, pins: dict, regular_name: str, regular: bool,
                  provenance: str, **families) -> CatalogEntry:
    """The pinned group `base` or, if `regular`, its left-regular action;
    the other representation is the entry's sibling.  The regular action
    carries each pin to the image of its element."""
    embedding = regular_embedding(base, name=regular_name)
    reg, reg_pins = embedding.carrier, {embedding.push(p): lab for p, lab in pins.items()}
    if regular:
        group, label_pins, sibling = reg, reg_pins, (base, pins)
    else:
        group, label_pins, sibling = base, pins, (reg, reg_pins)
    return CatalogEntry(label=group.name, group=group, provenance=provenance,
                        label_pins=label_pins, sibling=sibling, **families)


def _d4_entry(octic: bool) -> CatalogEntry:
    a = parse_permutation("(1,2,3,4)", 4)
    b = parse_permutation("(1,3)", 4)
    quartic = PermutationGroup(4, [a, b], name="4T3")
    pins = {parse_permutation(rep, 4): lab for lab, rep in D4_CLASS_REPS.items()}
    provenance = ("left-regular action of the 4T3 presentation" if octic
                  else "presentation a^4=b^2=1, bab^-1=a^-1, b a transposition")
    return _pinned_entry(quartic, pins, "8T4", octic, provenance,
                         conductor_family=True, gamma_family=not octic)


def _q8xc2_entry(deg16: bool) -> CatalogEntry:
    pins = {parse_permutation(rep, 8): lab for lab, rep in Q8XC2_CLASS_REPS.items()}
    octal = PermutationGroup(8, sorted(pins), name="8T11")
    provenance = ("left-regular action of the published degree-8 classes" if deg16
                  else "published degree-8 class representatives")
    return _pinned_entry(octal, pins, "16T11", deg16, provenance)


def _s3_entry() -> CatalogEntry:
    G = PermutationGroup(3, ["(1,2,3)", "(1,2)"], name="S3")
    return CatalogEntry(label="S3", group=G, provenance="symmetric group, natural action")


def _cyclic_entry(n: int) -> CatalogEntry:
    if n < 1:
        raise ValidationError("cyclic order must be positive")
    check_transitive_degree(n)
    images = tuple(range(2, n + 1)) + (1,)
    G = PermutationGroup(n, [images], name=f"C{n}")
    return CatalogEntry(label=f"C{n}", group=G, provenance="cyclic group, regular action")


def _split_args(body: str):
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    raise ValidationError(f"combinator needs two arguments: {body!r}")


def resolve_entry(spec: str) -> CatalogEntry:
    """Resolve a catalog label, combinator expression, or group file path."""
    spec = spec.strip()
    if spec in ("4T3", "D4"):
        return _d4_entry(octic=False)
    if spec == "8T4":
        return _d4_entry(octic=True)
    if spec == "8T11":
        return _q8xc2_entry(deg16=False)
    if spec in ("16T11", "Q8sC2"):
        return _q8xc2_entry(deg16=True)
    if spec == "S3":
        return _s3_entry()
    m = re.fullmatch(r"C(\d+)", spec)
    if m:
        return _cyclic_entry(int(m.group(1)))
    m = re.fullmatch(r"(product|wreath)\((.+)\)", spec)
    if m:
        left, right = _split_args(m.group(2))
        A = resolve_entry(left)
        B = resolve_entry(right)
        if m.group(1) == "product":
            G = product_representation(A.group, B.group)
            name = f"product({A.label},{B.label})"
        else:
            G = wreath_product(A.group, B.group)
            name = f"wreath({A.label},{B.label})"
        G.name = name
        return CatalogEntry(label=name, group=G,
                            provenance=f"{m.group(1)} of {A.provenance} and {B.provenance}")
    if spec.startswith("file:"):
        spec = spec[5:]
    path = Path(spec)
    if spec and (path.suffix == ".group" or path.exists()):  # Path("") is "."
        if not path.exists():
            raise ValidationError(f"group file {path} does not exist")
        G = parse_group_file(read_input_file(path))
        return CatalogEntry(label=G.name, group=G, provenance=f"user file {path}")
    raise ValidationError(
        f"unknown group spec {spec!r}: not a catalog label, combinator, or existing file")


def resolve_weight(spec: str, entry: CatalogEntry, types) -> WeightFunction:
    """disc | cond-d4 | prodram | inv-gamma:<q> | path to a weight file."""
    if spec == "disc":
        wt = weight_discriminant(types, entry.group.degree)
        return WeightFunction(name="disc", weights=wt.weights)
    if spec == "cond-d4":
        if not entry.conductor_family:
            raise ValidationError("cond-d4 weights are defined for the D4 entries only")
        return weight_conductor_d4(types)
    if spec == "prodram":
        return weight_product_ramified(types)
    if spec.startswith("inv-gamma:"):
        if not entry.gamma_family:
            raise ValidationError("inv-gamma weights are defined for the quartic D4 entry only")
        gamma = parse_rational(spec.split(":", 1)[1])
        wt = weight_inv_gamma(types, gamma)
        return WeightFunction(name=spec, weights=wt.weights)
    path = Path(spec)
    if path.exists():
        return parse_weight_file(read_input_file(path), types,
                                 name=f"custom:{path.name}")
    raise ValidationError(f"unknown weight spec {spec!r}")


def resolve_cyclotomic(spec: str) -> CyclotomicProfile:
    if spec in ("Q", "full", "full-Q"):
        return CyclotomicProfile.full_q()
    path = Path(spec)
    if path.exists():
        return parse_cyclotomic_file(read_input_file(path), name=path.name)
    raise ValidationError(f"unknown cyclotomic profile spec {spec!r}")
