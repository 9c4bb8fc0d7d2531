"""Tubular meromorphicity regions from hybrid subconvexity data.

A region is a finite list of strict rational linear inequalities in the
real parts of the variables indexed by the nontrivial tame types.  Every
region carries a pure lower bound on each variable and only positive
coefficients, so its recession cone is exactly the nonnegative orthant
and the all-large point lies in it; the hull machinery relies on that.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolationError, ParseError, ValidationError
from .hull_lp import _integer_row
from .perm import (PermutationGroup, content_lines, conjugation_step, cycle_count,
                   is_abelian_normal)
from .ramtypes import CyclotomicProfile, min_weight

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

    def slack(self, point: dict) -> Fraction:
        """sum_v c_v * point_v - bound: positive where the strict row holds."""
        return sum((c * point[lab] for lab, c in self.coefficients), -self.bound)


def constraint(coeffs: dict, bound) -> LinearConstraint:
    items = tuple(sorted((lab, Fraction(c)) for lab, c in coeffs.items() if c != 0))
    if not items:
        raise ValidationError("a constraint needs at least one nonzero coefficient")
    return LinearConstraint(coefficients=items, bound=Fraction(bound))


class TubularRegion:
    """Open region cut out by strict linear inequalities with orthant recession
    cone; the constructor alone enforces the contract that hull_lp relies on,
    and `slack` alone evaluates the region at a point.

    Each row is held in two forms: the LinearConstraint in `constraints`,
    which slacks and reports read, and, for a mixed row, the integer row in
    `shifted_rows`, which hull_lp reads.  The constructor shifts each mixed
    row c once to the corner lb, the point of pure lower bounds: with
    y = lb + z the row c*y > bound reads c*z + c.slack(lb) > 0, and every
    pure row holds for all z >= 0.  `shifted_rows` holds c*z + c.slack(lb)
    made a primitive integer row, ((label, int coefficient), ...) and the
    int value, a positive multiple of the Fraction row.
    """

    def __init__(self, variables, constraints, name=None):
        self.variables = tuple(variables)
        if not self.variables:
            raise ValidationError("a region needs at least one variable")
        self.constraints = tuple(constraints)
        self.name = name
        index = {v: i for i, v in enumerate(self.variables)}
        self._pure_lower = {}  # label -> largest b/c over pure constraints c*sigma > b
        # every constraint has a coefficient and every coefficient is positive,
        # so the all-coordinates-large point satisfies them all: never empty
        for c in self.constraints:
            if not c.coefficients:
                raise ValidationError("a constraint needs at least one nonzero coefficient")
            if len({lab for lab, _ in c.coefficients}) < len(c.coefficients):
                raise ValidationError("a constraint names a variable twice")
            for lab, coef in c.coefficients:
                if lab not in index:
                    raise ValidationError(f"constraint variable {lab} outside the index")
                if coef < 0:
                    raise ValidationError("region coefficients must be nonnegative")
                if coef == 0:
                    raise ValidationError("region coefficients must be nonzero")
            if len(c.coefficients) == 1:
                (lab, coef), = c.coefficients
                val = c.bound / coef
                self._pure_lower[lab] = max(self._pure_lower.get(lab, val), val)
        missing = [v for v in self.variables if v not in self._pure_lower]
        if missing:
            raise ValidationError(f"variables without a pure lower bound: {missing}")
        rows = []
        for c in self.constraints:
            if len(c.coefficients) > 1:
                row = _integer_row({**dict(c.coefficients), None: c.slack(self._pure_lower)})
                value = row.pop(None)
                rows.append((tuple(row.items()), value))
        self.shifted_rows = tuple(rows)

    def pure_lower_bound(self, label) -> Fraction:
        """Largest b/c over pure constraints c*sigma > b on `label`."""
        try:
            return self._pure_lower[label]
        except KeyError:
            raise ValidationError(f"no pure lower bound on {label}") from None

    def slack(self, point: dict) -> Fraction:
        """The least constraint slack at `point`: the point lies in the open
        region iff it is positive and in the closure iff it is >= 0."""
        return min(c.slack(point) for c in self.constraints)

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
    if not is_abelian_normal(G, T):
        raise ContractViolationError("witness is not an abelian normal subgroup")
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


# ---------------------------------------------------------------------------
# the 2-dimensional shortcut
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShortcutResult:
    applicable: bool
    reason: str
    tau: str | None = None
    kappa: str | None = None
    product: Fraction | None = None
    passes: bool | None = None


def shortcut_2d(G, T1, T2, wt, types, profile, cyc) -> ShortcutResult:
    """The pairwise product criterion deciding hull membership in 2-D.

    Requires the minimum-weight types to split as M\\{kappa} inside T1 and
    M\\{tau} inside T2 for distinct minimum types tau, kappa; then the
    point lies in the hull iff M[tau,kappa]*M[kappa,tau] < 1.
    """
    _, argmin = min_weight(wt, types)
    labels_min = [t.label for t in argmin]
    t1 = set(witness_type_labels(frozenset(T1), types))
    t2 = set(witness_type_labels(frozenset(T2), types))
    pair = None
    for tau in labels_min:
        for kappa in labels_min:
            if tau == kappa:
                continue
            rest = set(labels_min)
            if rest - {kappa} <= t1 and rest - {tau} <= t2:
                pair = (tau, kappa)
                break
        if pair:
            break
    if pair is None:
        return ShortcutResult(applicable=False,
                              reason="minimum-weight types do not split into the two witnesses")
    tau, kappa = pair
    matrix = subconvexity_matrix(G, types, profile, cyc)
    product = matrix[(tau, kappa)] * matrix[(kappa, tau)]
    return ShortcutResult(applicable=True, reason="", tau=tau, kappa=kappa,
                          product=product, passes=product < 1)
