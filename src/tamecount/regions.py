"""Tubular meromorphicity regions from hybrid subconvexity data.

A region is a finite list of strict rational linear inequalities in the
real parts of the variables indexed by the nontrivial tame types.  Every
region carries a pure lower bound on each variable and only positive
coefficients, so its recession cone is exactly the nonnegative orthant
and the all-large point lies in it; the hull machinery relies on that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolationError, ParseError, ValidationError
from .perm import (PermutationGroup, content_lines, conjugation_step, cycle_count,
                   is_abelian_normal, normal_subgroup_mask)
from .ramtypes import CyclotomicProfile

WEYL_T_EXPONENT = Fraction(1, 3)


@dataclass(frozen=True)
class SubconvexityProfile:
    """(gamma, alpha, beta) bundle for one analysis.

    gamma: left edge of validity of the assumed bounds;
    alpha: conductor-aspect exponents per type label;
    beta: t-aspect exponents per type label, or None when only
    conductor-aspect bounds are assumed (no power saving available).
    """
    name: str
    gamma: Fraction
    alpha: dict
    beta: dict | None

    def __post_init__(self):
        if not (0 <= self.gamma < 1):
            raise ValidationError("gamma must lie in [0, 1)")
        if any(a < 0 for a in self.alpha.values()):
            raise ValidationError("alpha exponents must be nonnegative")
        if self.beta is not None and any(b < 0 for b in self.beta.values()):
            raise ValidationError("beta exponents must be nonnegative")

    def alpha_of(self, label: str) -> Fraction:
        if label not in self.alpha:
            raise ValidationError(f"profile {self.name} has no alpha for type {label}")
        return self.alpha[label]


def default_beta(types, alpha, cyc: CyclotomicProfile):
    """Conservative t-aspect exponents over Q: alpha * |tau|.

    Size-one types with the full cyclotomic profile are rational Dirichlet
    L-functions, where the Weyl-strength bound 1/3 is sharper.
    """
    beta = {}
    for t in types:
        b = alpha[t.label] * t.size
        if t.size == 1 and cyc.is_full:
            b = min(b, WEYL_T_EXPONENT)
        beta[t.label] = b
    return beta


def make_profile(preset: str, types, cyc: CyclotomicProfile, *,
                 gamma: Fraction | None = None) -> SubconvexityProfile:
    """Build a named preset over the given type list."""
    labels = [t.label for t in types]
    if preset in ("burgess-yang", "paper-d4", "paper-16t11"):
        alpha = {lab: Fraction(3, 8) for lab in labels}
        return SubconvexityProfile(name=preset, gamma=Fraction(1, 2), alpha=alpha,
                                   beta=default_beta(types, alpha, cyc))
    if preset == "convexity":
        alpha = {lab: Fraction(1, 2) for lab in labels}
        return SubconvexityProfile(name=preset, gamma=Fraction(1, 2), alpha=alpha,
                                   beta=default_beta(types, alpha, cyc))
    if preset == "lindelof":
        g = Fraction(1, 2) if gamma is None else Fraction(gamma)
        alpha = {lab: Fraction(0) for lab in labels}
        beta = {lab: Fraction(0) for lab in labels}
        return SubconvexityProfile(name=f"lindelof({g})", gamma=g, alpha=alpha, beta=beta)
    raise ValidationError(f"unknown profile preset {preset!r}")


def parse_subconvexity_file(text: str, types, name="custom") -> SubconvexityProfile:
    """`gamma <q>`, then `alpha <label|*> <q>` / `beta <label|*> <q>` lines;
    every label names one of `types`."""
    labels = {t.label for t in types}
    gamma = Fraction(1, 2)
    alpha, beta = {}, {}
    saw_beta = False
    for lineno, line in content_lines(text):
        parts = line.split()
        try:
            if parts[0] == "gamma" and len(parts) == 2:
                gamma = Fraction(parts[1])
            elif parts[0] in ("alpha", "beta") and len(parts) == 3:
                value = Fraction(parts[2])
                table = alpha if parts[0] == "alpha" else beta
                if parts[0] == "beta":
                    saw_beta = True
                if parts[1] == "*":
                    for t in types:
                        table.setdefault(t.label, value)
                elif parts[1] in labels:
                    table[parts[1]] = value
                else:
                    raise ParseError(f"line {lineno}: unknown type label {parts[1]!r}")
            else:
                raise ParseError(f"line {lineno}: unrecognized directive {line!r}")
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: bad rational in {line!r}") from None
    missing = [t.label for t in types if t.label not in alpha]
    if missing:
        raise ParseError(f"profile file misses alpha for {missing}")
    if saw_beta:
        missing = [t.label for t in types if t.label not in beta]
        if missing:
            raise ParseError(f"profile file misses beta for {missing}")
    return SubconvexityProfile(name=name, gamma=gamma, alpha=alpha,
                               beta=beta if saw_beta else None)


# ---------------------------------------------------------------------------
# linear constraints and tubular regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearConstraint:
    """sum_v coefficients[v] * sigma_v > bound (strict)."""
    coefficients: tuple  # ((label, Fraction), ...) sorted by label position
    bound: Fraction

    def support(self):
        return tuple(lab for lab, _ in self.coefficients)

    def coefficient(self, label) -> Fraction:
        for lab, c in self.coefficients:
            if lab == label:
                return c
        return Fraction(0)

    def is_pure(self) -> bool:
        return len(self.coefficients) == 1

    def evaluate(self, point: dict) -> Fraction:
        return sum((c * point[lab] for lab, c in self.coefficients), Fraction(0))

    def canonical(self):
        """Primitive integral form, for set comparison of constraint lists."""
        *coefs, bound = _coprime_integers([c for _, c in self.coefficients] + [self.bound])
        return tuple((lab, n) for (lab, _), n in zip(self.coefficients, coefs)), bound


def _coprime_integers(values):
    """The positive multiple of a list of rationals whose entries are
    coprime integers (all zeros stay zeros)."""
    scale = math.lcm(*(x.denominator for x in values))
    ints = [x.numerator * (scale // x.denominator) for x in values]
    g = math.gcd(*ints) or 1
    return [n // g for n in ints]


def constraint(coeffs: dict, bound) -> LinearConstraint:
    items = tuple(sorted((lab, Fraction(c)) for lab, c in coeffs.items() if c != 0))
    if not items:
        raise ValidationError("a constraint needs at least one nonzero coefficient")
    return LinearConstraint(coefficients=items, bound=Fraction(bound))


class TubularRegion:
    """Open region cut out by strict linear inequalities with orthant recession
    cone; the constructor alone enforces the contract that hull_lp relies on.

    The constructor also shifts the region once to its corner, the point of
    pure lower bounds lb: `mixed` holds each mixed constraint c with its
    value at the corner, c.evaluate(lb) - c.bound.  With y = lb + z the
    row c*y > bound reads c*z + value > 0, and every pure row holds for
    all z >= 0, which is how hull_lp writes the region.  `shifted_rows`
    holds the same rows as hull_lp reads them: each c*z + value made a
    primitive integer row, ((label, int coefficient), ...) and the int
    value, a positive multiple of the Fraction row.
    """

    def __init__(self, variables, constraints, name=None):
        self.variables = tuple(variables)
        self.constraints = tuple(constraints)
        self.name = name
        index = {v: i for i, v in enumerate(self.variables)}
        self._pure_lower = {}  # label -> largest b/c over pure constraints c*sigma > b
        # every constraint has a coefficient and every coefficient is positive,
        # so the all-coordinates-large point satisfies them all: never empty
        for c in self.constraints:
            if not c.coefficients:
                raise ValidationError("a constraint needs at least one nonzero coefficient")
            for lab, coef in c.coefficients:
                if lab not in index:
                    raise ValidationError(f"constraint variable {lab} outside the index")
                if coef < 0:
                    raise ValidationError("region coefficients must be nonnegative")
                if coef == 0:
                    raise ValidationError("region coefficients must be nonzero")
            if c.is_pure():
                (lab, coef), = c.coefficients
                val = c.bound / coef
                self._pure_lower[lab] = max(self._pure_lower.get(lab, val), val)
        missing = [v for v in self.variables if v not in self._pure_lower]
        if missing:
            raise ValidationError(f"variables without a pure lower bound: {missing}")
        self.mixed = tuple((c, c.evaluate(self._pure_lower) - c.bound)
                           for c in self.constraints if not c.is_pure())
        rows = [_coprime_integers([coef for _, coef in c.coefficients] + [value])
                for c, value in self.mixed]
        self.shifted_rows = tuple((tuple(zip(c.support(), ints[:-1])), ints[-1])
                                  for (c, _), ints in zip(self.mixed, rows))

    def pure_lower_bound(self, label) -> Fraction:
        """Largest b/c over pure constraints c*sigma > b on `label`."""
        try:
            return self._pure_lower[label]
        except KeyError:
            raise ValidationError(f"no pure lower bound on {label}") from None

    def contains_strict(self, point: dict) -> bool:
        return all(c.evaluate(point) > c.bound for c in self.constraints)

    def contains_closed(self, point: dict) -> bool:
        return all(c.evaluate(point) >= c.bound for c in self.constraints)

    def canonical_constraints(self):
        return frozenset(c.canonical() for c in self.constraints)

    def __repr__(self):
        return f"TubularRegion({self.name or '?'}, {len(self.constraints)} constraints)"


# ---------------------------------------------------------------------------
# the subconvexity matrix M and the region recipe
# ---------------------------------------------------------------------------

def subconvexity_matrix(G: PermutationGroup, types, profile: SubconvexityProfile,
                        cyc: CyclotomicProfile):
    """M[(tau, kappa)] = alpha_kappa * zeta_deg(kappa) * ind of tau acting on one
    conjugation orbit of kappa.

    Central kappa gives a zero column (one-point orbit).  The entry is
    independent of the representative of tau (class invariance; enforced
    by the representative-sweep test).
    """
    matrix = {}
    for kappa in types:
        orbit = sorted(x.images for x in G.class_of(kappa.representative).members)
        pos = {x: i for i, x in enumerate(orbit)}
        alpha = profile.alpha_of(kappa.label)
        for tau in types:
            step = conjugation_step([tau.representative.images])
            action = tuple(pos[y] + 1 for (y,) in map(step, orbit))
            ind = len(orbit) - cycle_count(action)
            matrix[(tau.label, kappa.label)] = alpha * kappa.zeta_degree * ind
    return matrix


def _check_abelian_normal(G, T):
    T = frozenset(T)
    if not all(t in G for t in T):
        raise ContractViolationError("witness subgroup is not contained in the group")
    if normal_subgroup_mask(G, T) is None:
        raise ContractViolationError("witness is not a normal subgroup")
    if not is_abelian_normal(G, T):
        raise ContractViolationError("witness subgroup is not abelian")
    return T


def witness_type_labels(T, types):
    """Labels of the types lying inside T (decided by representative membership)."""
    return tuple(t.label for t in types if t.representative in T)


def build_region(G: PermutationGroup, T, types, profile: SubconvexityProfile,
                 cyc: CyclotomicProfile, name=None,
                 matrix=None) -> TubularRegion:
    """The tubular region attached to the abelian normal witness T.

    Constraint families: sigma_tau > gamma on T-types; sigma_tau > 1
    elsewhere; and for each non-T type the mixed constraint
    sigma_tau + sum_k M[tau,k] sigma_k > 1 + sum_k M[tau,k] over T-types k,
    omitted when every M[tau,k] vanishes.
    """
    T = _check_abelian_normal(G, T)
    t_labels = set(witness_type_labels(T, types))
    if matrix is None:
        matrix = subconvexity_matrix(G, types, profile, cyc)
    variables = [t.label for t in types]
    cons = []
    for t in types:
        if t.label in t_labels:
            cons.append(constraint({t.label: 1}, profile.gamma))
        else:
            cons.append(constraint({t.label: 1}, 1))
    for t in types:
        if t.label in t_labels:
            continue
        coeffs = {t.label: Fraction(1)}
        total = Fraction(0)
        for k in types:
            if k.label not in t_labels:
                continue
            m = matrix[(t.label, k.label)]
            if m:
                coeffs[k.label] = m
                total += m
        if total:
            cons.append(constraint(coeffs, 1 + total))
    return TubularRegion(variables, cons, name=name)


def absolute_convergence_orthant(types) -> TubularRegion:
    """sigma_tau > 1 for every nontrivial tame type."""
    if not types:
        raise ValidationError("no tame types: the orthant is undefined")
    variables = [t.label for t in types]
    return TubularRegion(variables, [constraint({v: 1}, 1) for v in variables],
                         name="abs-convergence")
