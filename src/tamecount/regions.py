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
from functools import reduce

from .errors import ContractViolationError, ParseError, ValidationError
from .hull_lp import exact, over_lcm
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
    Each number is an int or a Fraction (hull_lp.exact), stored as a Fraction.
    """
    name: str
    gamma: Fraction
    alpha: dict
    beta: dict | None

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(exact(self.gamma, "gamma")))
        if not (0 <= self.gamma < 1):
            raise ValidationError("gamma must lie in [0, 1)")
        for what in ("alpha", "beta") if self.beta is not None else ("alpha",):
            table = {lab: x if type(x) is Fraction else Fraction(exact(x, f"{what} of {lab}"))
                     for lab, x in getattr(self, what).items()}
            if any(x < 0 for x in table.values()):
                raise ValidationError(f"{what} exponents must be nonnegative")
            object.__setattr__(self, what, table)

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


# preset -> the alpha of every type; each has gamma 1/2 and default_beta
PRESET_ALPHA = {"burgess-yang": Fraction(3, 8), "paper-d4": Fraction(3, 8),
                "paper-16t11": Fraction(3, 8), "convexity": Fraction(1, 2)}


def make_profile(preset: str, types, cyc: CyclotomicProfile, *,
                 gamma: Fraction | None = None) -> SubconvexityProfile:
    """Build a named preset (PRESET_ALPHA or lindelof) over the given type list."""
    labels = [t.label for t in types]
    if preset in PRESET_ALPHA:
        alpha = dict.fromkeys(labels, PRESET_ALPHA[preset])
        return SubconvexityProfile(name=preset, gamma=Fraction(1, 2), alpha=alpha,
                                   beta=default_beta(types, alpha, cyc))
    if preset == "lindelof":
        g = Fraction(1, 2) if gamma is None else Fraction(exact(gamma, "gamma"))
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
    coefficients: tuple  # ((label, int or Fraction), ...) sorted by label position
    bound: Fraction

    def slack(self, point: dict) -> Fraction:
        """sum_v c_v * point_v - bound: positive where the strict row holds."""
        return sum((c * point[lab] for lab, c in self.coefficients), -self.bound)


def constraint(coeffs: dict, bound) -> LinearConstraint:
    items = tuple(sorted((lab, Fraction(exact(c, "region coefficient")))
                         for lab, c in coeffs.items() if c != 0))
    if not items:
        raise ValidationError("a constraint needs at least one nonzero coefficient")
    return LinearConstraint(coefficients=items, bound=Fraction(exact(bound, "region bound")))


class TubularRegion:
    """Open region cut out by strict linear inequalities with orthant recession
    cone.  `_region_contract` alone enforces the contract that hull_lp relies
    on, and `slack` alone evaluates the region at a point.

    Each row is held once, as an integer row ((label, int a), ...), int b,
    int scale > 0 that stands for sum (a/scale)*sigma > b/scale.  From the
    rows come the pure lower bounds and, for each mixed row, the integer
    row in `shifted_rows`, which hull_lp reads.  A mixed row c*y > bound is
    shifted to the corner lb, the point of pure lower bounds: with y = lb + z
    it reads c*z + c.slack(lb) > 0, and every pure row holds for all z >= 0.
    `shifted_rows` holds c*z + c.slack(lb) as its primitive positive integer
    multiple, ((label, int coefficient), ...) in variable order and the int
    value; `mixed_labels` names, in variable order, each variable that a
    shifted row reads.  `pure_lower_pairs` holds each pure lower bound as
    an integer pair (numerator, denominator > 0) in lowest terms, in
    variable order; hull_lp reads them, and `pure_lower_bound` gives them
    as Fractions.  The public constructor and `build_region` both hand
    their integer rows to `_init`; `constraints` is the rows'
    LinearConstraint view.
    """

    def __init__(self, variables, constraints, name=None):
        self._init(variables, [_integer_constraint(c) for c in constraints], name)

    def _init(self, variables, rows, name):
        """The one init body of every region, on its integer rows."""
        self.variables = tuple(variables)
        self.name = name
        self._rows = tuple(rows)
        self._constraints = None
        pure = _region_contract(self.variables, self._rows)
        lower = []
        for v in self.variables:
            b, a = pure[v]
            g = math.gcd(b, a)
            lower.append((b // g, a // g))
        self.pure_lower_pairs = tuple(lower)
        self._pure_lower = {v: Fraction(b, a) for v, (b, a) in zip(self.variables, lower)}
        # the corner lb over den, the lcm of the pure rows' a: each mixed
        # row times den has the value den * (sum a*lb - b); then the row
        # over the gcd of its entries, its coefficients in variable order
        den = reduce(math.lcm, [a for _, a in pure.values()], 1)
        corner = {lab: b * (den // a) for lab, (b, a) in pure.items()}
        position = {v: i for i, v in enumerate(self.variables)}
        shifted = []
        for coefs, b, _ in self._rows:
            if len(coefs) > 1:
                value = sum([a * corner[lab] for lab, a in coefs], -b * den)
                g = math.gcd(value, den * reduce(math.gcd, [a for _, a in coefs]))
                coefs = sorted(coefs, key=lambda c: position[c[0]])
                shifted.append((tuple([(lab, a * den // g) for lab, a in coefs]), value // g))
        self.shifted_rows = tuple(shifted)
        read = {lab for coefs, _ in shifted for lab, _ in coefs}
        self.mixed_labels = tuple([v for v in self.variables if v in read])

    @property
    def constraints(self):
        """The rows as LinearConstraints, in row order, built on first read:
        for a region given to the constructor, equal to the tuple given."""
        if self._constraints is None:
            self._constraints = tuple(
                LinearConstraint(tuple((lab, Fraction(a, s)) for lab, a in coefs), Fraction(b, s))
                for coefs, b, s in self._rows)
        return self._constraints

    def pure_lower_bound(self, label) -> Fraction:
        """Largest b/c over pure constraints c*sigma > b on `label`."""
        try:
            return self._pure_lower[label]
        except KeyError:
            raise ValidationError(f"no pure lower bound on {label}") from None

    def slack(self, point: dict) -> Fraction:
        """The least constraint slack at `point`: the point lies in the open
        region iff it is positive and in the closure iff it is >= 0.  Over
        one common denominator den of the point, row (coefs, b, s) has
        slack (sum a*den*p_v - b*den) / (s*den); the least row is found by
        integer cross products, and only its slack is made a Fraction."""
        den, nums = over_lcm([point[v] for v in self.variables])
        nums = dict(zip(self.variables, nums))
        least, least_s = None, 1
        for coefs, b, s in self._rows:
            value = sum([a * nums[lab] for lab, a in coefs], -b * den)
            # value / s against least / least_s, both scales positive
            if least is None or value * least_s < least * s:
                least, least_s = value, s
        return Fraction(least, least_s * den)

    def __repr__(self):
        return f"TubularRegion({self.name or '?'}, {len(self._rows)} constraints)"


def _integer_constraint(c: LinearConstraint):
    """c as the integer row ((label, int), ...), int bound, int scale: c
    times its scale, the lcm of its denominators."""
    scale, nums = over_lcm([exact(x, "region coefficient") for _, x in c.coefficients]
                           + [exact(c.bound, "region bound")])
    return tuple(zip([lab for lab, _ in c.coefficients], nums)), nums[-1], scale


def _region_contract(variables, rows):
    """The region contract, on integer rows ((label, int a), ...), int b,
    int scale: at least one variable, none named twice; every row has a
    coefficient, names no variable twice, reads only the variables, and
    every coefficient is positive; and every variable has a pure lower
    bound.  So the all-coordinates-large point satisfies every row: the
    region is never empty, and its recession cone is the orthant.  Returns
    {label: (b, a)} with b/a the largest over the one-coefficient rows
    a*sigma_label > b, compared as integer cross products; b is read from
    those alone."""
    if not variables:
        raise ValidationError("a region needs at least one variable")
    index = set(variables)
    if len(index) < len(variables):
        raise ValidationError("a region names a variable twice")
    pure = {}
    for coefs, b, _ in rows:
        if not coefs:
            raise ValidationError("a constraint needs at least one nonzero coefficient")
        if len({lab for lab, _ in coefs}) < len(coefs):
            raise ValidationError("a constraint names a variable twice")
        for lab, a in coefs:
            if lab not in index:
                raise ValidationError(f"constraint variable {lab} outside the index")
            if a < 0:
                raise ValidationError("region coefficients must be nonnegative")
            if a == 0:
                raise ValidationError("region coefficients must be nonzero")
        if len(coefs) == 1:
            (lab, a), = coefs
            if lab not in pure or b * pure[lab][1] > pure[lab][0] * a:
                pure[lab] = b, a
    missing = [v for v in variables if v not in pure]
    if missing:
        raise ValidationError(f"variables without a pure lower bound: {missing}")
    return pure


# ---------------------------------------------------------------------------
# the subconvexity matrix M and the region recipe
# ---------------------------------------------------------------------------

def subconvexity_matrix(G: PermutationGroup, types, profile: SubconvexityProfile,
                        cyc: CyclotomicProfile, columns=None):
    """M[(tau, kappa)] = alpha_kappa * zeta_deg(kappa) * ind of tau acting on one
    conjugation orbit of kappa, for every tau and every kappa whose label is
    in `columns` (every kappa when None).

    One conjugation step over all type representatives serves every
    column.  A column with alpha_kappa = 0, or with central kappa (a
    one-point orbit), is zero and costs no conjugation.  The entry is
    independent of the representative of tau (class invariance; enforced
    by the representative-sweep test).  Every type label must have an alpha.
    """
    alphas = [profile.alpha_of(t.label) for t in types]
    step = conjugation_step([tau.representative.images for tau in types])
    matrix = {}
    for kappa, alpha in zip(types, alphas):
        if columns is not None and kappa.label not in columns:
            continue
        members = G.class_of(kappa.representative).members
        if not alpha or len(members) == 1:
            for tau in types:
                matrix[(tau.label, kappa.label)] = Fraction(0)
            continue
        unit = alpha * kappa.zeta_degree
        orbit = sorted(x.images for x in members)
        pos = {x: i for i, x in enumerate(orbit)}
        conjugates = [step(x) for x in orbit]
        for i, tau in enumerate(types):
            action = tuple(pos[ys[i]] + 1 for ys in conjugates)
            matrix[(tau.label, kappa.label)] = unit * (len(orbit) - cycle_count(action))
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
    omitted when every M[tau,k] vanishes.  `matrix` needs only the T-type
    columns.  Each row is written as an integer row over its scale:
    gamma.den * sigma > gamma.num on T-types, sigma > 1 elsewhere, and a
    mixed row times lcd, the lcm of the denominators of its M entries.
    """
    T = _check_abelian_normal(G, T)
    t_labels = witness_type_labels(T, types)
    if matrix is None:
        matrix = subconvexity_matrix(G, types, profile, cyc, columns=t_labels)
    gp, gq = profile.gamma.numerator, profile.gamma.denominator
    in_t = set(t_labels)
    rows = [(((t.label, gq),), gp, gq) if t.label in in_t else (((t.label, 1),), 1, 1)
            for t in types]
    for t in types:
        if t.label in in_t:
            continue
        entries = [(k, m) for k in t_labels if (m := matrix[(t.label, k)])]
        if not entries:
            continue
        lcd, nums = over_lcm([m for _, m in entries])
        row = [(t.label, lcd)] + [(k, a) for (k, _), a in zip(entries, nums)]
        # the bound 1 + sum_k M[tau,k], times lcd, is the coefficient sum
        rows.append((tuple(sorted(row)), sum(nums, lcd), lcd))
    region = TubularRegion.__new__(TubularRegion)
    region._init([t.label for t in types], rows, name)
    return region


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
    point lies in the hull iff M[tau,kappa]*M[kappa,tau] < 1.  T1 and T2
    must be abelian normal subgroups of G, as for `build_region`.
    """
    t1 = set(witness_type_labels(_check_abelian_normal(G, T1), types))
    t2 = set(witness_type_labels(_check_abelian_normal(G, T2), types))
    _, argmin = min_weight(wt, types)
    labels_min = [t.label for t in argmin]
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
    matrix = subconvexity_matrix(G, types, profile, cyc, columns={tau, kappa})
    product = matrix[(tau, kappa)] * matrix[(kappa, tau)]
    return ShortcutResult(applicable=True, reason="", tau=tau, kappa=kappa,
                          product=product, passes=product < 1)
