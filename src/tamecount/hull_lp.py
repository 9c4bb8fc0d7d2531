"""Exact rational linear programming and convex hulls of region unions.

The solver is a fraction-free two-phase tableau simplex with Bland's
anti-cycling rule: exact and deterministic.  Phase 1 starts from the
slack basis: a ">=" row with bound <= 0 is negated so that its surplus
starts basic, and only the other rows get artificials.  Each tableau row
is a sparse dict of nonzero integers, primitive (the gcd of its entries
is 1) and a positive multiple of the row a Fraction tableau would hold,
so its basic column holds a positive integer instead of 1; the cost row
is one more such row (Chvatal 1983, ch. 8).  A pivot on entry p of row r
replaces each other row k holding a in the pivot column by
p*row_k - a*row_r made primitive (Bareiss 1968 and Edmonds 1967 on
fraction-free elimination).  Positive row scaling changes no ratio
rhs/a, no reduced-cost sign and no basic index, so the pivots are those
of the Fraction simplex; the ratio test compares integer cross products.
Fractions are built only from the LPProblem and for the LPResult.
lp_solve stops with ResourceCapError after DEFAULT_PIVOT_CAP pivots.

Membership in the convex hull of a union of regions with a common
recession cone uses the Balas extended formulation (Balas 1979), in two
LPs that share their region columns and rows.  Both shift out each
region's pure lower bounds (y = lb*lam + z with z >= 0, the textbook
lower-bound shift), so they keep only the mixed rows, all with bound 0,
as TubularRegion stores them: primitive integer rows.  A region gets a z
column only for a coordinate that one of its mixed rows reads; every
other recession slack is shared, one per coordinate, as the surplus of
that coordinate's coupling row, which is an inequality scaled to
integers (the recession cone is the same for every region).  The
membership LP maximises the margin t with point - t*1 in the closed
hull.  The open hull is the interior of the closed one, so the point is a
closed member iff t >= 0 and an open member iff t > 0; only its
convexity row sum lam = 1 and the coupling rows of negative point
coordinates need artificials.  The threshold LP along a weight line is a
gauge LP around an integer m below the threshold: it maximises
mu = sum lam over a feasible cone section that contains the origin, and
the threshold is m + 1/mu*.  Every one of its rows starts from its
surplus, so it makes no phase-1 pivot.  Both rely on the region contract,
which regions checks in one place on every region's integer form: a pure
lower bound on every variable and only positive coefficients (an orthant
recession cone).  A region is read only through its variables,
pure_lower_bound, shifted_rows and slack; this module imports no region
module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import ResourceCapError, ValidationError

DEFAULT_PIVOT_CAP = 100_000


def rational_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad rational literal {s!r}") from None


# ---------------------------------------------------------------------------
# LP problems and the exact simplex
# ---------------------------------------------------------------------------

@dataclass
class LPProblem:
    """min objective . x  subject to rows (coeffs, rel, bound), rel in {>=, ==}.

    A row and the objective are sparse: dicts {variable index: coefficient},
    the index in range(len(variables)), every coefficient and bound an int
    or a Fraction.  Construction stores each row and the objective as a
    tuple of (index, coefficient) pairs in index order, zeros dropped, so
    a row holds exactly its nonzeros.  Variables are free unless flagged
    nonnegative.  A None objective is a pure feasibility problem.
    """
    variables: tuple
    constraints: list  # ({index: int | Fraction}, ">=" | "==", int | Fraction)
    objective: dict | None = None
    nonneg: tuple | None = None

    def __post_init__(self):
        n = len(self.variables)
        if self.nonneg is None:
            self.nonneg = (False,) * n
        if len(self.nonneg) != n:
            raise ValidationError("nonneg flags must match the variable arity")
        if self.objective is not None:
            self.objective = _sparse_row(self.objective, n)
        constraints = []
        for row, rel, bound in self.constraints:
            if rel not in (">=", "=="):
                raise ValidationError(f"unsupported relation {rel!r}")
            constraints.append((_sparse_row(row, n), rel, _rational(bound)))
        self.constraints = constraints


def _rational(x):
    if not isinstance(x, (int, Fraction)):
        raise ValidationError(f"LP coefficient or bound {x!r} is not an int or a Fraction")
    return x


def _sparse_row(row, n):
    """The (index, coefficient) pairs of a dict row, in index order, zeros dropped."""
    if not isinstance(row, dict):
        raise ValidationError("an LP row is a dict {variable index: coefficient}")
    for i, coef in row.items():
        if not (isinstance(i, int) and 0 <= i < n):
            raise ValidationError(f"LP variable index {i!r} outside range({n})")
        _rational(coef)
    return tuple(sorted((i, coef) for i, coef in row.items() if coef))


@dataclass
class LPResult:
    status: str  # optimal | infeasible | unbounded
    value: Fraction | None = None
    assignment: dict | None = None
    pivots: int = 0  # simplex pivots in both phases, artificial drive-out included


def lp_solve(problem: LPProblem) -> LPResult:
    """Exact two-phase simplex with Bland's rule, fraction-free.

    Phase 1 starts from the slack basis where it can: a ">=" row with
    bound <= 0 is negated, so its surplus has coefficient +1 and starts
    basic at -bound >= 0.  Only the other rows get artificials.  Each
    tableau row is a primitive integer dict {column: nonzero int} with the
    rhs under column `total`; it is a positive multiple of the row that
    the Fraction simplex would hold, so its basic column holds a positive
    integer instead of 1.  The cost row of each phase is a dict row of the
    same kind, a positive multiple of the reduced costs, and _combine
    updates it like any other row; only the signs of its entries are read.
    Fractions appear only where the problem is read and the result
    written.  Raises ResourceCapError after DEFAULT_PIVOT_CAP pivots.
    """
    n = len(problem.variables)
    # column layout: for each variable either one column (nonneg) or a +/- pair,
    # then one surplus per ">=" row, then one artificial per row without a
    # starting surplus, then the rhs
    col_of_var = []  # (plus_col, minus_col | None)
    ncols = 0
    for flag in problem.nonneg:
        if flag:
            col_of_var.append((ncols, None))
            ncols += 1
        else:
            col_of_var.append((ncols, ncols + 1))
            ncols += 2
    starts = [rel == ">=" and bound <= 0 for _, rel, bound in problem.constraints]
    art0 = ncols + sum(1 for _, rel, _ in problem.constraints if rel == ">=")
    total = art0 + starts.count(False)
    surplus = ncols
    art = art0
    tableau = []
    basis = []
    for (row, rel, bound), start in zip(problem.constraints, starts):
        flip = start or bound < 0  # rhs >= 0, a starting surplus at +1
        entries = {}
        for i, coef in row:
            if flip:
                coef = -coef
            plus, minus = col_of_var[i]
            entries[plus] = coef
            if minus is not None:
                entries[minus] = -coef
        if rel == ">=":
            entries[surplus] = 1 if flip else -1
            if start:
                basis.append(surplus)
            surplus += 1
        if not start:
            entries[art] = 1
            basis.append(art)
            art += 1
        if bound:
            entries[total] = -bound if flip else bound
        tableau.append(_integer_row(entries))
    shape = f"({len(tableau)} rows x {n} variables)"
    status, pivots, cost = _pivot_until_optimal(tableau, dict.fromkeys(range(art0, total), 1),
                                                basis, total, total, 0, f"LP phase 1 {shape}")
    if status == "unbounded":  # impossible in phase 1 (costs bounded below by 0)
        raise AssertionError("phase 1 cannot be unbounded")
    if cost.get(total, 0) < 0:
        return LPResult(status="infeasible", pivots=pivots)
    pivots += _drive_out_artificials(tableau, basis, art0)
    keep = []
    for i, b in enumerate(basis):
        if b >= art0:
            # redundant row: all structural coefficients zero
            if any(j < art0 for j in tableau[i]):
                raise AssertionError("artificial not driven out of a non-redundant row")
            continue
        keep.append(i)
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]
    # phase 2: artificial columns (art0 and up) may no longer enter
    objective = problem.objective or ()
    costs = {}
    for i, coef in objective:
        plus, minus = col_of_var[i]
        costs[plus] = coef
        if minus is not None:
            costs[minus] = -coef
    status, pivots, _ = _pivot_until_optimal(tableau, _integer_row(costs), basis, art0, total,
                                             pivots, f"LP phase 2 {shape}")
    if status == "unbounded":
        return LPResult(status="unbounded", pivots=pivots)
    values = [Fraction(0)] * total
    for row, b in zip(tableau, basis):
        values[b] = Fraction(row.get(total, 0), row[b])
    assignment = {var: values[plus] if minus is None else values[plus] - values[minus]
                  for var, (plus, minus) in zip(problem.variables, col_of_var)}
    value = sum((coef * assignment[problem.variables[i]] for i, coef in objective), Fraction(0))
    return LPResult(status="optimal", value=value, assignment=assignment, pivots=pivots)


# The row gcd and lcm fold with reduce rather than unpack a dict view or a
# generator into math.gcd(*...): each such call builds an argument tuple,
# and the freed tuples pile up in the interpreter's tuple free list until a
# full collection, which integer pivoting (no GC-tracked Fractions) makes
# rare.  Over 480 golden passes that held ~1.8 MB of extra peak RSS.

def _integer_row(entries):
    """The primitive integer dict row that is a positive multiple of a dict
    of rationals (ints or Fractions); a zero entry stays 0."""
    scale = reduce(math.lcm, (v.denominator for v in entries.values()), 1)
    return _primitive({k: v.numerator * (scale // v.denominator) for k, v in entries.items()})


def _primitive(row):
    """row divided by the gcd of its entries; row is a dict of ints."""
    g = reduce(math.gcd, row.values(), 0)
    if g <= 1:  # 0 only for an empty row
        return row
    return {k: v // g for k, v in row.items()}


def _combine(row, p, a, pivot_row):
    """The primitive dict row that is a positive multiple of p*row -
    a*pivot_row (p > 0): an entry that appears is created, an entry that
    cancels is deleted."""
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
    return _primitive(new)


def _pivot_until_optimal(tableau, cost, basis, limit, total, pivots, stage):
    """Price out the basis from the integer dict row `cost`, then pivot by
    Bland's rule; returns the status, the running pivot count and the cost
    row, a positive multiple of the reduced costs (column `total` holds the
    negated objective).

    A basic column has no cost entry, so the entering column is the
    smallest column below `limit` with a negative cost.  The ratio test
    compares rhs/a as integer cross products; ties go to the row with the
    smallest basic index.  Positive row scaling changes neither a ratio nor
    a reduced-cost sign, so the pivots are those of the Fraction simplex.
    """
    for row, b in zip(tableau, basis):
        if b in cost:
            cost = _combine(cost, row[b], cost[b], row)
    while True:
        entering = min((j for j, v in cost.items() if v < 0 and j < limit), default=None)
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
        cost = _combine(cost, row[entering], cost[entering], row)
        pivots += 1


def _pivot(tableau, basis, i, j):
    """Pivot on entry (i, j) of the integer rows: row i is negated if its
    entry is negative (only an artificial drive-out, at rhs 0, picks such
    an entry), then every other row k with a nonzero entry a in column j
    becomes p*row_k - a*row_i, made primitive."""
    row = tableau[i]
    p = row[j]
    if p < 0:
        row = tableau[i] = {k: -v for k, v in row.items()}
        p = -p
    for k, other in enumerate(tableau):
        if k != i:
            a = other.get(j)
            if a is not None:
                tableau[k] = _combine(other, p, a, row)
    basis[i] = j


def _drive_out_artificials(tableau, basis, art0):
    """Pivot artificials out of the basis where a row allows; returns the pivot count."""
    pivots = 0
    for i, b in enumerate(basis):
        if b < art0:
            continue
        pivot_col = min((j for j in tableau[i] if j < art0), default=None)
        if pivot_col is not None:
            _pivot(tableau, basis, i, pivot_col)
            pivots += 1
    return pivots


def verify_lp_assignment(problem: LPProblem, assignment: dict) -> bool:
    """Exact re-substitution check of every constraint."""
    x = [assignment[v] for v in problem.variables]
    for row, rel, bound in problem.constraints:
        lhs = sum((c * x[i] for i, c in row), Fraction(0))
        if rel == ">=" and lhs < bound:
            return False
        if rel == "==" and lhs != bound:
            return False
    for flag, v in zip(problem.nonneg, problem.variables):
        if flag and assignment[v] < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Balas membership, certificates, thresholds
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
        return HullCertificate(
            lambdas=tuple(parse_rational(s) for s in data["lambdas"]),
            points=tuple(None if p is None else {v: parse_rational(s) for v, s in p.items()}
                         for p in data["points"]),
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
    if isinstance(point, dict):
        missing = [v for v in variables if v not in point]
        if missing:
            raise ValidationError(f"no value for the variables {missing}")
        return {v: Fraction(point[v]) for v in variables}
    values = list(point)
    if len(values) != len(variables):
        raise ValidationError("value count does not match the variable index")
    return {v: Fraction(x) for v, x in zip(variables, values)}


def _region_columns(regions, variables):
    """The columns lam_j and the z_{j,v} that a mixed row reads, and every
    region's mixed rows over them; both Balas LPs start from these.

    Region j's scaled point is y_j = lb_j * lam_j + z_j with z_j >= 0, where
    lb_j holds the region's pure lower bounds.  Each pure row c*y >= b*lam
    has b/c <= lb, so z >= 0 and lam >= 0 imply it and it is dropped; a
    mixed row sum coef*y >= bound*lam becomes sum coef*z + value * lam >= 0,
    the primitive integer row that TubularRegion stores in shifted_rows.  A
    coordinate v that no mixed row of region j reads needs no z_{j,v}: the
    recession cone is the nonnegative orthant, so one slack per coordinate
    serves every region, and it is the surplus of that coordinate's
    coupling row.  Returns the column names, {(j, v): index of z_{j,v}} and
    the mixed rows.
    """
    names = [f"lam{j}" for j in range(len(regions))]
    z = {}  # (j, v) -> index of z_{j,v}
    for j, region in enumerate(regions):
        read = {lab for coefs, _ in region.shifted_rows for lab, _ in coefs}
        for v in variables:
            if v in read:
                z[j, v] = len(names)
                names.append(f"z{j}.{v}")
    rows = []
    for j, region in enumerate(regions):
        for coefs, value in region.shifted_rows:
            r = {z[j, lab]: coef for lab, coef in coefs}
            r[j] = value
            rows.append((r, ">=", 0))
    return names, z, rows


def _coupling_row(z, v, lam_coefs, bound):
    """-sum_j (lam_coefs[j] * lam_j + z_{j,v}) >= bound, scaled by the least
    positive integer that makes every entry an int; returns the row, the
    scale (the caller's scalar column gets -scale) and the scaled bound."""
    scale = reduce(math.lcm, (x.denominator for x in lam_coefs), bound.denominator)
    row = {j: -x.numerator * (scale // x.denominator) for j, x in enumerate(lam_coefs)}
    for j in range(len(lam_coefs)):
        if (j, v) in z:
            row[z[j, v]] = -scale
    return row, scale, bound.numerator * (scale // bound.denominator)


def _balas_problem(regions, variables, point):
    """The max-margin membership LP of `point`: variables lam_j, the
    z_{j,v} of _region_columns, then the margin t.

    Maximise t subject to sum_j lam_j = 1, the mixed rows and, for each
    coordinate v, -sum_j y_{j,v} - t >= -point_v, scaled to integers.
    lp_solve starts every mixed row and every coupling row with
    point_v >= 0 from its surplus, so only the convexity row and the
    coupling rows with point_v < 0 need artificials.  A threshold has its
    own LP, _gauge_problem, with neither the convexity row nor a scalar.
    """
    names, z, mixed = _region_columns(regions, variables)
    t = len(names)
    names.append("t")
    constraints = [(dict.fromkeys(range(len(regions)), 1), "==", 1)] + mixed
    for v in variables:
        row, scale, bound = _coupling_row(z, v, [r.pure_lower_bound(v) for r in regions],
                                          -point[v])
        row[t] = -scale
        constraints.append((row, ">=", bound))
    return LPProblem(variables=tuple(names), constraints=constraints, objective={t: -1},
                     nonneg=(True,) * t + (False,))


def _gauge_problem(regions, variables, wt, m):
    """The threshold LP along the weight line, in gauge form around the
    integer m: variables lam_j and the z_{j,v} of _region_columns.

    Maximise mu = sum_j lam_j subject to the mixed rows and, for each
    coordinate v, -sum_j ((lb_j(v) - m * wt_v) * lam_j + z_{j,v}) >= -wt_v,
    scaled to integers.  Dividing a hull point y <= s * wt (sum lam = 1) by
    s - m > 0 gives a feasible point with mu = 1 / (s - m), and back, so
    the threshold is m + 1 / mu*; line_threshold picks m at least one
    below the threshold, so mu* <= 1.  The origin is feasible: every row is
    homogeneous or has rhs wt_v > 0, so lp_solve starts every row from its
    surplus and makes no phase-1 pivot.
    """
    names, z, constraints = _region_columns(regions, variables)
    for v in variables:
        shift = m * wt[v]
        row, _, bound = _coupling_row(z, v, [r.pure_lower_bound(v) - shift for r in regions],
                                      -wt[v])
        constraints.append((row, ">=", bound))
    return LPProblem(variables=tuple(names), constraints=constraints,
                     objective=dict.fromkeys(range(len(regions)), -1),
                     nonneg=(True,) * len(names))


def _certificate_from_assignment(assignment, regions, variables, target) -> HullCertificate:
    lambdas = tuple(assignment[f"lam{j}"] for j in range(len(regions)))
    t = assignment["t"]
    # undo the lower-bound shift on the active regions: y_{j,v} =
    # lb_{j,v} * lam_j + z_{j,v}, with z_{j,v} = 0 where the LP has no such
    # column.  What they leave of target - t * 1 is the coupling rows'
    # surpluses and the recession-ray mass of inactive regions (A y >= 0
    # with lam = 0), all nonnegative; fold it into an active point, which
    # stays feasible because the recession cone is the nonnegative orthant
    y = {}
    stray = {v: target[v] - t for v in variables}
    for j, (region, lam) in enumerate(zip(regions, lambdas)):
        if lam:
            y[j] = {v: region.pure_lower_bound(v) * lam + assignment.get(f"z{j}.{v}", 0)
                    for v in variables}
            for v in variables:
                stray[v] -= y[j][v]
    # shifting every active point by t * 1 moves the combination from
    # target - t * 1 onto the target itself, since the lambdas sum to 1
    points = []
    absorbed = False
    for j, lam in enumerate(lambdas):
        if lam == 0:
            points.append(None)
            continue
        point = {v: y[j][v] / lam + t for v in variables}
        if not absorbed and any(stray[v] for v in variables):
            point = {v: point[v] + stray[v] / lam for v in variables}
            absorbed = True
        points.append(point)
    epsilon = min(region.slack(p) for p, region in zip(points, regions) if p is not None)
    return HullCertificate(lambdas=lambdas, points=tuple(points), epsilon=epsilon)


def hull_membership(point, regions, mode="open"):
    """Membership of `point` in the hull of the union of the regions.

    Returns (True, HullCertificate) or (False, None).  One LP maximises the
    margin t such that point - t*1 lies in the closed Balas hull: the point
    is a closed member iff t >= 0 and an open member iff t > 0.  In open
    mode every certificate point has slack >= t * (coefficient sum) > 0 on
    each constraint of its region.
    """
    if mode not in ("open", "closed"):
        raise ValidationError(f"unknown mode {mode!r}")
    if not regions:
        return False, None
    variables = _common_variables(regions)
    pt = _as_point(point, variables)
    # always feasible (the all-large point lies in every region) and bounded
    # (every variable has a pure lower bound)
    result = lp_solve(_balas_problem(regions, variables, pt))
    if result.status != "optimal":
        raise ValidationError(f"membership LP is {result.status}; regions are malformed")
    margin = result.assignment["t"]
    if margin < 0 or (mode == "open" and margin == 0):
        return False, None
    return True, _certificate_from_assignment(result.assignment, regions, variables, pt)


def verify_certificate(cert: HullCertificate, regions, point) -> bool:
    """Independent check: one lambda and one point entry per region, lambdas
    a convex combination, epsilon >= 0, every active point a value for each
    variable, the combination equal to `point`, and every active point with
    region slack >= epsilon.  A certificate over no regions proves nothing."""
    if not regions:
        return False
    variables = _common_variables(regions)
    pt = _as_point(point, variables)
    if not len(cert.lambdas) == len(cert.points) == len(regions) or cert.epsilon < 0:
        return False
    if any(l < 0 for l in cert.lambdas) or sum(cert.lambdas) != 1:
        return False
    active = [(lam, p, region)
              for lam, p, region in zip(cert.lambdas, cert.points, regions) if lam]
    if any(p is None or any(v not in p for v in variables) for _, p, _ in active):
        return False
    if any(sum((lam * p[v] for lam, p, _ in active), Fraction(0)) != pt[v] for v in variables):
        return False
    return all(region.slack(p) >= cert.epsilon for _, p, region in active)


def line_threshold(wt, regions) -> Fraction:
    """Infimum s with (wt(tau) * s) in the closed hull of the union.

    The open region of validity of the specialization is s > threshold.
    One gauge LP (_gauge_problem) around the integer
    m = floor(max_v min_j lb_j(v) / wt_v) - 1 gives it as m + 1 / mu*.
    Every hull point y has y_v >= min_j lb_j(v), so the threshold is at
    least m + 1 and mu* = 1 / (threshold - m) is at most 1; it is positive
    because the all-large point lies in the hull.
    """
    if not regions:
        raise ValidationError("no regions given")
    variables = _common_variables(regions)
    weights = _as_point({v: wt(v) for v in variables} if callable(wt) else wt, variables)
    if any(weights[v] <= 0 for v in variables):
        raise ValidationError("line thresholds need positive weights on all variables")
    m = math.floor(max(min(r.pure_lower_bound(v) for r in regions) / weights[v]
                       for v in variables)) - 1
    result = lp_solve(_gauge_problem(regions, variables, weights, m))
    if result.status != "optimal":
        raise ValidationError(f"threshold LP is {result.status}; regions are malformed")
    return m - 1 / result.value


# ---------------------------------------------------------------------------
# the conditional hull test
# ---------------------------------------------------------------------------

def conditional_hull_point_check(point, witness_type_sets, gamma) -> bool:
    """Lindelof-preset hull test: the hull of the one-relaxed-orthant family
    contains every point exceeding 1 - (1-gamma)/n on covered coordinates
    (n = number of covered types) and exceeding 1 on uncovered ones."""
    gamma = Fraction(gamma)
    if not (0 <= gamma < 1):
        raise ValidationError("gamma must lie in [0, 1)")
    covered = set()
    for s in witness_type_sets:
        covered |= set(s)
    if not covered:
        raise ValidationError("no covered coordinates")
    missing = covered - point.keys()
    if missing:
        raise ValidationError(f"no value for covered coordinates {sorted(missing)}")
    n = len(covered)
    bound = 1 - Fraction(1 - gamma, n)
    for label, value in point.items():
        value = Fraction(value)
        if label in covered:
            if not value > bound:
                return False
        else:
            if not value > 1:
                return False
    return True
