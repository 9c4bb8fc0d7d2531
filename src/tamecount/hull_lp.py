"""Exact rational linear programming and convex hulls of region unions.

The solver is a fraction-free tableau simplex with Bland's anti-cycling
rule: exact and deterministic.  Every LP here has only ">=" rows with
bound <= 0 over nonnegative variables, so the origin is feasible: each
row is negated so that its surplus starts basic, and the simplex runs
one phase from that basis.  Each tableau row is a sparse dict of nonzero
integers, a positive multiple of the row a Fraction tableau would hold,
so its basic column holds a positive integer, the multiple, instead of
1; the cost row is one more such row (Chvatal 1983, ch. 8).  An integer
LP row enters the tableau as it is.  A pivot on entry p of row r first
makes row r primitive (the gcd of its entries 1), then replaces each
other row k holding a in the pivot column by p*row_k - a*row_r
(Bareiss 1968 and Edmonds 1967 on fraction-free elimination); between
its own pivots a row is made primitive only once its multiple passes
_ROW_SCALE_BITS bits.  Positive row scaling changes no ratio rhs/a, no
reduced-cost sign and no basic index, so the pivots are those of the
Fraction simplex; the ratio test compares integer cross products.  The
objective value is read off the final cost row: its rhs entry over its
multiple, negated.  Fractions are built only from a Fraction LPProblem
and for the LPResult.  lp_solve stops with ResourceCapError after
DEFAULT_PIVOT_CAP pivots.

Both hull questions are where a line enters the closed hull of a union
of regions with a common recession cone, answered by one gauge LP of
the Balas extended formulation (Balas 1979; Charnes and Cooper 1962).
It shifts out each region's pure lower bounds (y = lb*lam + z with
z >= 0, the textbook lower-bound shift), so it keeps only the mixed
rows, all with bound 0, as TubularRegion stores them: primitive integer
rows.  A region gets a z column only for a coordinate that one of its
mixed rows reads; every other recession slack is shared, one per
coordinate, as the surplus of that coordinate's coupling row, an
inequality over one integer scale per coordinate (the recession cone is
the same for every region).  Around a corner below the entry it
maximises mu = sum lam, and the entry is 1/mu* past the corner; it has
no convexity row and no scalar column.  The corner and the coupling rows
are computed in integers, so the LP is built without a Fraction, and
every row is written as LPProblem stores it, so the problem skips the
checks of the public constructor.  The threshold is the entry of the
weight line s * wt.
The membership of a point p is the entry s* of the line p + s * 1: the
point is a closed member iff s* <= 0 and an open member iff s* < 0 (the
open hull is the interior of the closed one).  The certificate reads the
same optimum: each active point is its region's LP point plus t* * 1
(t* = -s*), and the first active point also takes up what the combination
still lacks of p.  Both rely on the region contract, which regions checks
in one place on every region's integer form: a pure lower bound on every
variable and only positive coefficients (an orthant recession cone).  A
region is read only through its variables, pure_lower_bound,
shifted_rows, mixed_labels and slack; this module imports no region
module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import ResourceCapError, ValidationError

DEFAULT_PIVOT_CAP = 100_000
# A tableau row that does not pivot is made primitive once its multiple of
# the Fraction row passes this many bits; without it such a row's entries
# grow with each pivot (283 bits on analyze wreath(C2,C10) against 67).
# Positive row scaling moves no pivot and no result.
_ROW_SCALE_BITS = 64


def rational_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """The Fraction a string literal names; any other type is refused, so a
    float never enters as its binary value."""
    if not isinstance(s, str):
        raise ValidationError(f"bad rational literal {s!r}: not a string")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad rational literal {s!r}") from None


def exact(x, what):
    """x itself when it is an int or a Fraction; any other type (a bool, a
    float, a string) is refused, so a float never enters as its binary value."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValidationError(f"{what} {x!r} is not an int or a Fraction")
    return x


# The lcm here and the row gcd of _primitive fold with reduce rather than
# unpack a list into math.lcm(*...): each such call builds an argument tuple,
# and the freed tuples pile up in the interpreter's tuple free list until a
# full collection, which integer pivoting (no GC-tracked Fractions) makes
# rare.  Over 480 golden passes that held ~1.8 MB of extra peak RSS.

def over_lcm(values):
    """The ints and Fractions `values` as integers over one scale: (S,
    [S * x]), with S the lcm of their denominators."""
    dens = [x.denominator for x in values]
    scale = reduce(math.lcm, dens, 1)
    if scale == 1:
        return 1, [x.numerator for x in values]
    return scale, [x.numerator * (scale // q) for x, q in zip(values, dens)]


# ---------------------------------------------------------------------------
# LP problems and the exact simplex
# ---------------------------------------------------------------------------

@dataclass
class LPProblem:
    """min objective . x  subject to x >= 0 and rows (coeffs, ">=", bound <= 0).

    A row and the objective are sparse: dicts {variable index: coefficient},
    the index in range(len(variables)), every coefficient and bound an int
    or a Fraction.  Construction stores each row and the objective as a
    tuple of (index, coefficient) pairs in index order, zeros dropped, so
    a row holds exactly its nonzeros.  Every row is ">=" with a bound <= 0,
    so the origin is feasible; construction refuses any other row and names
    it.  A None objective is a zero objective.
    """
    variables: tuple
    constraints: list  # ({index: int | Fraction}, ">=", int | Fraction <= 0)
    objective: dict | None = None

    def __post_init__(self):
        n = len(self.variables)
        if self.objective is not None:
            self.objective = _sparse_row(self.objective, n)
        constraints = []
        for k, constraint in enumerate(self.constraints):
            if not (isinstance(constraint, (tuple, list)) and len(constraint) == 3):
                raise ValidationError(f"LP row {k} is not a (row, rel, bound) triple")
            row, rel, bound = constraint
            row = _sparse_row(row, n)
            if rel != ">=" or exact(bound, "LP bound") > 0:
                raise ValidationError(f"LP row {k} reads {rel!r} {bound}: every row must be "
                                      f"'>=' with a bound <= 0")
            constraints.append((row, rel, bound))
        self.constraints = constraints

    @classmethod
    def _stored(cls, variables, constraints, objective):
        """The problem whose rows and objective are already in stored form
        ((index, int) pairs in index order, zeros dropped; every row ">="
        with an int bound <= 0), taken as they are: no check, no copy."""
        problem = cls.__new__(cls)
        problem.variables, problem.constraints, problem.objective = (
            variables, constraints, objective)
        return problem


def _sparse_row(row, n):
    """The (index, coefficient) pairs of a dict row, in index order, zeros dropped."""
    if not isinstance(row, dict):
        raise ValidationError("an LP row is a dict {variable index: coefficient}")
    for i, coef in row.items():
        if not (type(i) is int and 0 <= i < n):
            raise ValidationError(f"LP variable index {i!r} outside range({n})")
        if type(coef) is not int:
            exact(coef, "LP coefficient")
    return tuple(sorted((i, coef) for i, coef in row.items() if coef))


@dataclass
class LPResult:
    status: str  # optimal | unbounded
    value: Fraction | None = None
    assignment: dict | None = None
    pivots: int = 0  # simplex pivots from the surplus basis


def lp_solve(problem: LPProblem) -> LPResult:
    """Exact simplex with Bland's rule, fraction-free, from the origin.

    Every row a.x >= b has b <= 0, so it is negated to -a.x + s = -b >= 0
    and its surplus s starts basic: the surplus basis is feasible and there
    is no phase 1.  Each tableau row is an integer dict {column: nonzero
    int} with the rhs under column `total`; it is a positive multiple of
    the row that the Fraction simplex would hold, so its basic column
    holds that multiple instead of 1.  A row of ints enters as it is, a row
    with a Fraction times the lcm of its denominators.  The cost row is a
    dict row of the same kind, a positive multiple of the reduced costs,
    with its multiple under column total + 1 (where the Fraction simplex
    would hold the 1 of the objective value's basic column); _combine
    updates it like any other row.  The simplex reads only the signs of its
    entries; at the optimum its rhs entry is -(objective value) times that
    multiple, so the value is read off it with no sum over the objective.
    Fractions appear only where a Fraction row is read and where the result
    is written.  Raises ResourceCapError after DEFAULT_PIVOT_CAP pivots.
    """
    n = len(problem.variables)
    # column layout: one column per variable, then one surplus per row, then the rhs
    total = n + len(problem.constraints)
    tableau = []
    for k, (row, _, bound) in enumerate(problem.constraints):
        entries = {i: -coef for i, coef in row}
        entries[n + k] = 1
        if bound:
            entries[total] = -bound
        tableau.append(_integer_row(entries))
    basis = list(range(n, total))
    cost = _integer_row({**dict(problem.objective or ()), total + 1: 1})
    status, pivots, cost = _pivot_until_optimal(tableau, cost, basis, total,
                                                f"LP ({len(tableau)} rows x {n} variables)")
    if status == "unbounded":
        return LPResult(status="unbounded", pivots=pivots)
    values = [Fraction(0)] * n
    for row, b in zip(tableau, basis):
        if b < n:
            values[b] = Fraction(row.get(total, 0), row[b])
    # the cost row's rhs is -(objective value) times its multiple
    return LPResult(status="optimal", value=Fraction(-cost.get(total, 0), cost[total + 1]),
                    assignment=dict(zip(problem.variables, values)), pivots=pivots)


def _integer_row(entries):
    """A positive integer multiple of a dict of rationals (ints or
    Fractions): the dict itself when every entry is an int, else the dict
    times the lcm of its denominators (over_lcm)."""
    if all(type(v) is int for v in entries.values()):
        return entries
    return dict(zip(entries, over_lcm(list(entries.values()))[1]))


def _primitive(row):
    """row divided by the gcd of its entries; row is a dict of ints."""
    g = reduce(math.gcd, row.values(), 0)
    if g <= 1:  # 0 only for an empty row
        return row
    return {k: v // g for k, v in row.items()}


def _combine(row, p, a, pivot_row, scale_col):
    """p*row - a*pivot_row (p > 0) as a dict row, both factors first
    divided by their gcd: an entry that appears is created, an entry that
    cancels is deleted.  pivot_row is 0 in column scale_col, which holds
    the row's positive multiple of its Fraction row; the result is made
    primitive only once that multiple passes _ROW_SCALE_BITS bits."""
    g = math.gcd(p, a)
    if g != 1:
        p //= g
        a //= g
    new = row.copy() if p == 1 else {k: p * v for k, v in row.items()}
    get = new.get
    for k, v in pivot_row.items():
        w = get(k, 0) - a * v
        if w:
            new[k] = w
        else:
            del new[k]
    if new[scale_col].bit_length() > _ROW_SCALE_BITS:
        return _primitive(new)
    return new


def _pivot_until_optimal(tableau, cost, basis, total, stage):
    """Pivot by Bland's rule from the integer dict row `cost` (its multiple
    under column total + 1); returns the status, the pivot count and the
    final cost row.

    The cost row starts on the objective columns alone, below the surplus
    basis, and each pivot prices its entering column out, so a basic
    column never has a cost entry: the entering column is the smallest
    column below `total` (the rhs) with a negative cost.  The
    ratio test compares rhs/a as integer cross products; ties go to the
    row with the smallest basic index.  Positive row scaling changes
    neither a ratio nor a reduced-cost sign, so the pivots are those of
    the Fraction simplex.
    """
    pivots = 0
    while True:
        entering = min((j for j, v in cost.items() if v < 0 and j < total), default=None)
        if entering is None:
            return "optimal", pivots, cost
        leaving = None
        for i, row in enumerate(tableau):
            a = row.get(entering)
            if a is None or a <= 0:
                continue
            b = row.get(total, 0)
            if leaving is not None:
                # b / a against best_b / best_a, both denominators positive
                cross, best = b * best_a, best_b * a
                if cross > best or (cross == best and basis[i] > basis[leaving]):
                    continue
            leaving, best_b, best_a = i, b, a
        if leaving is None:
            return "unbounded", pivots, cost
        if pivots >= DEFAULT_PIVOT_CAP:
            raise ResourceCapError(
                f"{stage} exceeds the pivot cap of {DEFAULT_PIVOT_CAP}")
        _pivot(tableau, basis, leaving, entering)
        row = tableau[leaving]
        cost = _combine(cost, row[entering], cost[entering], row, total + 1)
        pivots += 1


def _pivot(tableau, basis, i, j):
    """Pivot on the positive entry (i, j) of the integer rows: row i is
    made primitive, with p its entry in column j, and every other row k
    with a nonzero entry a in column j becomes p*row_k - a*row_i, a
    positive multiple of its Fraction row with that multiple in its basic
    column (row i is 0 there)."""
    row = tableau[i] = _primitive(tableau[i])
    p = row[j]
    for k, other in enumerate(tableau):
        if k != i:
            a = other.get(j)
            if a is not None:
                tableau[k] = _combine(other, p, a, row, basis[k])
    basis[i] = j


def verify_lp_assignment(problem: LPProblem, assignment: dict) -> bool:
    """Exact re-substitution check: every variable nonnegative and every row met."""
    x = [assignment[v] for v in problem.variables]
    return all(v >= 0 for v in x) and all(
        sum((c * x[i] for i, c in row), Fraction(0)) >= bound
        for row, _, bound in problem.constraints)


# ---------------------------------------------------------------------------
# hull membership, certificates, thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HullCertificate:
    """Constructive witness: the query point as a convex combination of
    region points, each satisfying its region with slack >= epsilon."""
    lambdas: tuple           # one Fraction per region
    points: tuple            # dict per active region, None for inactive
    epsilon: Fraction        # least slack of an active point (> 0 for an open member)

    def to_json_dict(self, variables):
        return {
            "lambdas": [rational_str(l) for l in self.lambdas],
            "points": [None if p is None else {v: rational_str(p[v]) for v in variables}
                       for p in self.points],
            "epsilon": rational_str(self.epsilon),
        }


def certificate_from_json(data) -> HullCertificate:
    try:
        lambdas, points = data["lambdas"], data["points"]
        if not (isinstance(lambdas, list) and isinstance(points, list)):
            raise TypeError
        return HullCertificate(
            lambdas=tuple(parse_rational(s) for s in lambdas),
            points=tuple(None if p is None else {v: parse_rational(s) for v, s in p.items()}
                         for p in points),
            epsilon=parse_rational(data["epsilon"]))
    except (KeyError, TypeError, AttributeError):
        raise ValidationError("a certificate needs a list of lambdas, a list of points "
                              "(each a dict or null) and an epsilon") from None


def _common_variables(regions):
    variables = regions[0].variables
    for r in regions[1:]:
        if r.variables != variables:
            raise ValidationError("regions carry mixed variable indices")
    return variables


def _as_point(point, variables) -> dict:
    """The coordinates of a point or weight map, a dict {variable: value};
    each value must be an int (not a bool) or a Fraction, so a float never
    enters as its binary value."""
    if not isinstance(point, dict):
        raise ValidationError("a point or weight map is a dict {variable: value}")
    missing = [v for v in variables if v not in point]
    if missing:
        raise ValidationError(f"no value for the variables {missing}")
    return {v: exact(point[v], "coordinate or weight") for v in variables}


def _region_columns(regions):
    """The columns lam_j and the z_{j,v} that a mixed row reads, and every
    region's mixed rows over them; every gauge LP starts from these.

    Region j's scaled point is y_j = lb_j * lam_j + z_j with z_j >= 0, where
    lb_j holds the region's pure lower bounds.  Each pure row c*y >= b*lam
    has b/c <= lb, so z >= 0 and lam >= 0 imply it and it is dropped; a
    mixed row sum coef*y >= bound*lam becomes sum coef*z + value * lam >= 0,
    the primitive integer row that TubularRegion stores in shifted_rows.  A
    coordinate v that no mixed row of region j reads (not in its
    mixed_labels) needs no z_{j,v}: the recession cone is the nonnegative
    orthant, so one slack per coordinate serves every region, and it is the
    surplus of that coordinate's coupling row.  Returns the column names,
    one {v: index of z_{j,v}} per region and the mixed rows, each in
    LPProblem's stored form: lam_j comes before region j's z columns, which
    follow its mixed_labels, the order of a shifted row's coefficients.
    """
    names = [f"lam{j}" for j in range(len(regions))]
    columns = []
    for j, region in enumerate(regions):
        first = len(names)
        names += [f"z{j}.{v}" for v in region.mixed_labels]
        columns.append(dict(zip(region.mixed_labels, range(first, len(names)))))
    rows = []
    for j, (region, z) in enumerate(zip(regions, columns)):
        for coefs, value in region.shifted_rows:
            row = tuple([(z[lab], coef) for lab, coef in coefs])
            rows.append((((j, value),) + row if value else row, ">=", 0))
    return names, columns, rows


def _gauge_problem(regions, variables, lines, m):
    """The gauge LP of the line corner + r * direction (direction > 0) with
    corner = base + m * direction: variables lam_j and the z_{j,v} of
    _region_columns.  `lines` holds each coordinate v of base, direction
    and the pure lower bounds lb_j(v) over their one lcm S (over_lcm): (S,
    [S * base_v, S * direction_v, S * lb_0(v), S * lb_1(v), ...]).

    Maximise mu = sum_j lam_j subject to the mixed rows and, for each
    coordinate v, -sum_j ((lb_j(v) - corner_v) * lam_j + z_{j,v}) >=
    -direction_v, times the line's integer scale S (Charnes and Cooper
    1962): lam_j has the integer coefficient S * corner_v - S * lb_j(v).
    Dividing the lam and z of a hull point y <= corner + r * direction
    (sum lam = 1) by r > 0 gives a feasible point with mu = 1 / r, and
    back, so the line enters the closed hull at r = 1 / mu*.  The origin is
    feasible: every row is homogeneous or has bound -S * direction_v < 0.
    Every row is written in LPProblem's stored form, so the problem is
    built without its checks.
    """
    names, columns, constraints = _region_columns(regions)
    for v, (scale, (b, d, *lows)) in zip(variables, lines):
        corner = b + m * d
        row = [(j, corner - low) for j, low in enumerate(lows) if corner != low]
        row += [(z[v], -scale) for z in columns if v in z]
        constraints.append((tuple(row), ">=", -d))
    return LPProblem._stored(tuple(names), constraints,
                             tuple([(j, -1) for j in range(len(regions))]))


def _line_entry(question, regions, variables, base, direction):
    """The least s with base + s * direction in the closed hull
    (direction > 0), with mu* and the optimal assignment of its gauge LP.

    Every hull point y has y_v >= min_j lb_j(v), so s is at least
    max_v (min_j lb_j(v) - base_v) / direction_v.  The integer m is the
    floor of that bound less one, so the corner base + m * direction lies
    at least one step below the entry, mu* = 1 / (s - m) is at most 1 and
    s = m + 1 / mu*.  Each coordinate's floor is an integer floor division
    over the line's scale (over_lcm).  mu* is positive because the
    all-large point lies in the hull; the LP is bounded because every
    variable has a pure lower bound.  `question` names the LP in the error
    of a malformed region set.
    """
    lines = [over_lcm([base[v], direction[v]] + [r.pure_lower_bound(v) for r in regions])
             for v in variables]
    m = max((min(lows) - b) // d for _, (b, d, *lows) in lines) - 1
    result = lp_solve(_gauge_problem(regions, variables, lines, m))
    if result.status != "optimal":
        raise ValidationError(f"{question} LP is {result.status}; regions are malformed")
    mu = -result.value
    return m + 1 / mu, mu, result.assignment


def _certificate_from_assignment(assignment, mu, t, regions, variables,
                                 target) -> HullCertificate:
    """The certificate of a closed member `target` from the gauge optimum
    of its line along 1: mu* and the margin t = -s*."""
    lambdas = tuple(assignment[f"lam{j}"] / mu for j in range(len(regions)))
    # undo the gauge scaling and the lower-bound shift: active region j's
    # point is (lb_j * lam'_j + z'_j) / lam'_j + t * 1 (mu* cancels), where
    # only the z'_{j,v} of its mixed_labels are LP columns
    points = []
    for j, (region, lam) in enumerate(zip(regions, lambdas)):
        if not lam:
            points.append(None)
            continue
        point = {v: region.pure_lower_bound(v) + t for v in variables}
        scaled = assignment[f"lam{j}"]
        for v in region.mixed_labels:
            z = assignment[f"z{j}.{v}"]
            if z:
                point[v] += z / scaled
        points.append(point)
    # the lambdas sum to 1, so what the combination lacks of the target is
    # the coupling rows' surpluses and the recession-ray mass of inactive
    # regions (A y >= 0 with lam = 0), all nonnegative; the first active
    # point takes it up and stays in its region, because the recession cone
    # is the nonnegative orthant
    active = [(lam, p) for lam, p in zip(lambdas, points) if p is not None]
    first_lam, first = active[0]
    for v in variables:
        first[v] += (target[v] - sum(lam * p[v] for lam, p in active)) / first_lam
    epsilon = min(region.slack(p) for p, region in zip(points, regions) if p is not None)
    return HullCertificate(lambdas=lambdas, points=tuple(points), epsilon=epsilon)


def hull_membership(point, regions, mode="open"):
    """Membership of `point` in the hull of the union of the regions.

    Returns (True, HullCertificate) or (False, None).  The line
    point + s * 1 enters the closed hull at s* (one gauge LP, _line_entry),
    so the margin is t* = -s*: the point is a closed member iff s* <= 0 and
    an open member iff s* < 0 (the open hull is the interior of the closed
    one).  In open mode every certificate point has slack
    >= t* * (coefficient sum) > 0 on each constraint of its region.
    """
    if mode not in ("open", "closed"):
        raise ValidationError(f"unknown mode {mode!r}")
    if not regions:
        return False, None
    variables = _common_variables(regions)
    pt = _as_point(point, variables)
    s, mu, assignment = _line_entry("membership", regions, variables, pt,
                                    dict.fromkeys(variables, 1))
    if s > 0 or (mode == "open" and s == 0):
        return False, None
    return True, _certificate_from_assignment(assignment, mu, -s, regions, variables, pt)


def verify_certificate(cert: HullCertificate, regions, point) -> bool:
    """Independent check: one lambda and one point entry per region, lambdas
    a convex combination, epsilon >= 0, every active point a value for each
    variable, the combination equal to `point`, and every active point with
    region slack >= epsilon.  A certificate over no regions proves nothing.
    Each lambda, the epsilon and every coordinate of an active point must be
    an int (not a bool) or a Fraction, and each point a dict or None; any
    other value is a ValidationError."""
    if not regions:
        return False
    variables = _common_variables(regions)
    pt = _as_point(point, variables)
    lambdas = [exact(lam, "certificate lambda") for lam in cert.lambdas]
    if exact(cert.epsilon, "certificate epsilon") < 0:
        return False
    if any(p is not None and not isinstance(p, dict) for p in cert.points):
        raise ValidationError("a certificate point is a dict {variable: value} or None")
    if not len(lambdas) == len(cert.points) == len(regions):
        return False
    if any(lam < 0 for lam in lambdas) or sum(lambdas) != 1:
        return False
    active = [(lam, p, region) for lam, p, region in zip(lambdas, cert.points, regions) if lam]
    if any(p is None or any(v not in p for v in variables) for _, p, _ in active):
        return False
    for _, p, _ in active:
        for v in variables:
            exact(p[v], "certificate coordinate")
    if any(sum((lam * p[v] for lam, p, _ in active), Fraction(0)) != pt[v] for v in variables):
        return False
    return all(region.slack(p) >= cert.epsilon for _, p, region in active)


def line_threshold(wt, regions) -> Fraction:
    """Infimum s with (wt(tau) * s) in the closed hull of the union; `wt`
    is a dict {variable: weight} or a callable on the variables.

    The open region of validity of the specialization is s > threshold.
    It is where the line s * wt from the origin enters the closed hull:
    one gauge LP (_line_entry).
    """
    if not regions:
        raise ValidationError("no regions given")
    variables = _common_variables(regions)
    weights = _as_point({v: wt(v) for v in variables} if callable(wt) else wt, variables)
    if any(weights[v] <= 0 for v in variables):
        raise ValidationError("line thresholds need positive weights on all variables")
    return _line_entry("threshold", regions, variables, dict.fromkeys(variables, 0), weights)[0]


# ---------------------------------------------------------------------------
# the conditional hull test
# ---------------------------------------------------------------------------

def conditional_hull_point_check(point, witness_type_sets, gamma) -> bool:
    """Lindelof-preset hull test: the hull of the one-relaxed-orthant family
    contains every point exceeding 1 - (1-gamma)/n on covered coordinates
    (n = number of covered types) and exceeding 1 on uncovered ones.
    gamma and every value must be an int (not a bool) or a Fraction, so a
    float never enters as its binary value."""
    gamma = exact(gamma, "gamma")
    for value in point.values():
        exact(value, "coordinate")
    if not (0 <= gamma < 1):
        raise ValidationError("gamma must lie in [0, 1)")
    covered = set().union(*witness_type_sets)
    if not covered:
        raise ValidationError("no covered coordinates")
    missing = covered - point.keys()
    if missing:
        raise ValidationError(f"no value for covered coordinates {sorted(missing)}")
    n = len(covered)
    bound = 1 - Fraction(1 - gamma, n)
    for label, value in point.items():
        if label in covered:
            if not value > bound:
                return False
        else:
            if not value > 1:
                return False
    return True
