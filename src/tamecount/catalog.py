"""Built-in group catalog and request resolution.

Only constructions pinned by published class data ship here.  PINNED
holds each published class table under its base label, D4 as 4T3
(a^4 = b^2 = 1, bab^-1 = a^-1, b a transposition) and Q8xC2 as 8T11
(generated by its degree-8 class representatives), with the label of
its left-regular action (8T4, 16T11).  An entry builds only the
representation it names; its `sibling` is the other one's label.  S3,
cyclic groups, product / wreath combinators and group files complete
the catalog.  Bare nTd labels outside this list must come from user
files; no guess is made about which permutation representation a label
denotes.  Combinators nested deeper than _NESTING_CAP are refused.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from .errors import ResourceCapError, ValidationError
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


# base label -> (degree, base generators (None: the class representatives),
# class representatives in the base degree, label of the left-regular
# action, conductor_family, gamma_family); cond-d4 weights hold on both
# labels of a conductor_family row, inv-gamma weights on its base alone
PINNED = {
    "4T3": (4, ("(1,2,3,4)", "(1,3)"), D4_CLASS_REPS, "8T4", True, True),
    "8T11": (8, None, Q8XC2_CLASS_REPS, "16T11", False, False),
}
_BASE_OF_REGULAR = {row[3]: base for base, row in PINNED.items()}
ALIASES = {"D4": "4T3", "Q8sC2": "16T11"}
# combinators nested deeper than this are refused before resolve_entry
# recurses; 25 levels of factors of degree >= 2 already pass the point cap
_NESTING_CAP = 32


@dataclass
class CatalogEntry:
    label: str
    group: PermutationGroup
    label_pins: dict = field(default_factory=dict)  # Permutation -> label
    sibling: str | None = None  # label of the other published representation
    conductor_family: bool = False
    gamma_family: bool = False

    def types(self, cyc: CyclotomicProfile):
        return tame_types(self.group, cyc, label_pins=self.label_pins)


def _pinned_entry(label: str) -> CatalogEntry:
    """The table row's base group under its base label; under its regular
    label, the left-regular action of that group, which carries each pin
    to the image of its element."""
    base = _BASE_OF_REGULAR.get(label, label)
    degree, generators, class_reps, regular, conductor, gamma = PINNED[base]
    pins = {parse_permutation(rep, degree): lab for lab, rep in class_reps.items()}
    group = PermutationGroup(degree, generators or sorted(pins), name=base)
    if label == base:
        return CatalogEntry(label=base, group=group, label_pins=pins, sibling=regular,
                            conductor_family=conductor, gamma_family=gamma)
    embedding = regular_embedding(group, name=label)
    return CatalogEntry(label=label, group=embedding.carrier,
                        label_pins={embedding.push(p): lab for p, lab in pins.items()},
                        sibling=base, conductor_family=conductor)


def _cyclic_entry(n: int) -> CatalogEntry:
    if n < 1:
        raise ValidationError("cyclic order must be positive")
    check_transitive_degree(n)
    images = tuple(range(2, n + 1)) + (1,)
    G = PermutationGroup(n, [images], name=f"C{n}")
    return CatalogEntry(label=f"C{n}", group=G)


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
    spec = ALIASES.get(spec, spec)
    if spec in PINNED or spec in _BASE_OF_REGULAR:
        return _pinned_entry(spec)
    if spec == "S3":
        return CatalogEntry(label="S3",
                            group=PermutationGroup(3, ["(1,2,3)", "(1,2)"], name="S3"))
    m = re.fullmatch(r"C(\d+)", spec)
    if m:
        return _cyclic_entry(int(m.group(1)))
    m = re.fullmatch(r"(product|wreath)\((.+)\)", spec)
    if m:
        depth = max(accumulate({"(": 1, ")": -1}.get(ch, 0) for ch in spec))
        if depth > _NESTING_CAP:
            raise ResourceCapError(f"combinators nested {depth} deep exceed the nesting cap "
                                   f"of {_NESTING_CAP}")
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
        return CatalogEntry(label=name, group=G)
    path = Path(spec)
    if spec and (path.suffix == ".group" or path.exists()):  # Path("") is "."
        if not path.exists():
            raise ValidationError(f"group file {path} does not exist")
        G = parse_group_file(read_input_file(path))
        return CatalogEntry(label=G.name, group=G)
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
    if spec == "Q":
        return CyclotomicProfile.full_q()
    path = Path(spec)
    if path.exists():
        return parse_cyclotomic_file(read_input_file(path), name=path.name)
    raise ValidationError(f"unknown cyclotomic profile spec {spec!r}")
