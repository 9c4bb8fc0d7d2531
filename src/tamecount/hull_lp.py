"""Exact rational linear programming and convex hulls of region unions.

The solver is a two-phase tableau simplex over fractions.Fraction with
Bland's anti-cycling rule: exact and deterministic.  Phase 1 starts from
the slack basis: a ">=" row with bound <= 0 is negated so that its
surplus starts basic, and only the other rows get artificials.  It works
on sparse rows with an integer ratio test: each tableau row is a dict of
its nonzero entries, a pivot touches only the nonzero columns of the
pivot row and builds each updated entry from integers with one
normalisation, and the ratio test compares rhs/a as integer cross
products; lp_solve stops with ResourceCapError after DEFAULT_PIVOT_CAP
pivots.

Membership in the convex hull of a union of regions with a common
recession cone uses the Balas extended formulation: one LP maximises the
margin t with point - t*1 in the closed hull.  The open hull is the
interior of the closed one, so the point is a closed member iff t >= 0
and an open member iff t > 0.  The LP shifts out each region's pure lower
bounds (y = lb*lam + z with z >= 0, the textbook lower-bound shift), so
it keeps only the mixed rows, all with bound 0, and the 1 + |variables|
equality rows, which alone need artificials.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceCapError, ValidationError
from .ramtypes import min_weight
from .regions import subconvexity_matrix

DEFAULT_PIVOT_CAP = 100_000
_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


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

    Variables are free unless flagged nonnegative.  A None objective is a
    pure feasibility problem.
    """
    variables: tuple
    constraints: list  # (tuple[Fraction], ">=" | "==", Fraction)
    objective: tuple | None = None
    nonneg: tuple | None = None

    def __post_init__(self):
        n = len(self.variables)
        if self.nonneg is None:
            self.nonneg = tuple(False for _ in range(n))
        if len(self.nonneg) != n:
            raise ValidationError("nonneg flags must match the variable arity")
        if self.objective is not None and len(self.objective) != n:
            raise ValidationError("objective arity mismatch")
        for row, rel, _ in self.constraints:
            if len(row) != n:
                raise ValidationError("constraint arity mismatch")
            if rel not in (">=", "=="):
                raise ValidationError(f"unsupported relation {rel!r}")


@dataclass
class LPResult:
    status: str  # optimal | infeasible | unbounded
    value: Fraction | None = None
    assignment: dict | None = None
    pivots: int = 0  # simplex pivots in both phases, artificial drive-out included


def lp_solve(problem: LPProblem) -> LPResult:
    """Exact two-phase simplex with Bland's rule.

    Phase 1 starts from the slack basis where it can: a ">=" row with
    bound <= 0 is negated, so its surplus has coefficient +1 and starts
    basic at -bound >= 0.  Only the other rows get artificials.  Each
    tableau row is a dict {column: nonzero Fraction} with the rhs under
    column `total`; the two cost rows are dense lists.
    Raises ResourceCapError after DEFAULT_PIVOT_CAP pivots.
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
    bounds = [Fraction(bound) for _, _, bound in problem.constraints]
    starts = [rel == ">=" and bound <= 0
              for (_, rel, _), bound in zip(problem.constraints, bounds)]
    art0 = ncols + sum(1 for _, rel, _ in problem.constraints if rel == ">=")
    total = art0 + starts.count(False)
    surplus = ncols
    art = art0
    tableau = []
    basis = []
    for (row, rel, _), bound, start in zip(problem.constraints, bounds, starts):
        flip = start or bound < 0  # rhs >= 0, a starting surplus at +1
        entries = {}
        for i, coef in enumerate(row):
            if coef:
                if flip:
                    coef = -coef
                plus, minus = col_of_var[i]
                entries[plus] = coef
                if minus is not None:
                    entries[minus] = -coef
        if rel == ">=":
            entries[surplus] = _ONE if flip else _MINUS_ONE
            if start:
                basis.append(surplus)
            surplus += 1
        if not start:
            entries[art] = _ONE
            basis.append(art)
            art += 1
        if bound:
            entries[total] = -bound if flip else bound
        tableau.append(entries)
    m = len(tableau)
    cost1 = [_ZERO] * art0 + [_ONE] * (total - art0) + [_ZERO]
    shape = f"({m} rows x {n} variables)"
    _reduce_cost_row(cost1, tableau, basis)
    status, pivots = _pivot_until_optimal(tableau, cost1, basis, total, 0,
                                          f"LP phase 1 {shape}")
    if status == "unbounded":  # impossible in phase 1 (costs bounded below by 0)
        raise AssertionError("phase 1 cannot be unbounded")
    if cost1[total] < 0:
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
    # phase 2
    if problem.objective is None:
        objective = [_ZERO] * n
    else:
        objective = [Fraction(c) for c in problem.objective]
    cost2 = [_ZERO] * (total + 1)
    for i, coef in enumerate(objective):
        plus, minus = col_of_var[i]
        cost2[plus] = coef
        if minus is not None:
            cost2[minus] = -coef
    forbidden = set(range(art0, total))
    _reduce_cost_row(cost2, tableau, basis)
    status, pivots = _pivot_until_optimal(tableau, cost2, basis, total, pivots,
                                          f"LP phase 2 {shape}", forbidden=forbidden)
    if status == "unbounded":
        return LPResult(status="unbounded", pivots=pivots)
    values = [_ZERO] * total
    for row, b in zip(tableau, basis):
        values[b] = row.get(total, _ZERO)
    assignment = {}
    for i, var in enumerate(problem.variables):
        plus, minus = col_of_var[i]
        assignment[var] = values[plus] - (values[minus] if minus is not None else 0)
    value = sum((objective[i] * assignment[v] for i, v in enumerate(problem.variables)),
                Fraction(0)) if problem.objective is not None else Fraction(0)
    return LPResult(status="optimal", value=value, assignment=assignment, pivots=pivots)


def _eliminate(cost, coef, nonzeros):
    """cost -= coef * row in place for a dense cost row, where nonzeros lists
    the row's nonzero entries as (column, numerator, denominator).

    Columns where the row is zero cannot change, so they are skipped; each
    updated entry is built from integers with a single normalisation.
    """
    cn, cd = coef.numerator, coef.denominator
    for k, rn, rd in nonzeros:
        v = cost[k]
        d = cd * rd
        cost[k] = Fraction(v.numerator * d - cn * rn * v.denominator, v.denominator * d)


def _eliminate_sparse(target, coef, nonzeros):
    """The same update on a dict row: an entry that appears is created, an
    entry that cancels is deleted."""
    cn, cd = coef.numerator, coef.denominator
    get = target.get
    for k, rn, rd in nonzeros:
        v = get(k)
        if v is None:
            target[k] = Fraction(-cn * rn, cd * rd)
            continue
        vd = v.denominator
        d = cd * rd
        num = v.numerator * d - cn * rn * vd
        if num:
            target[k] = Fraction(num, vd * d)
        else:
            del target[k]


def _reduce_cost_row(cost, tableau, basis):
    for row, b in zip(tableau, basis):
        if cost[b]:
            nonzeros = [(k, v.numerator, v.denominator) for k, v in row.items()]
            _eliminate(cost, cost[b], nonzeros)


def _pivot_until_optimal(tableau, cost, basis, total, pivots, stage, forbidden=frozenset()):
    """Pivot by Bland's rule; returns the status and the running pivot count.

    The ratio test compares rhs/a as integer cross products and builds no
    Fraction; ties go to the row with the smallest basic index.
    """
    while True:
        entering = None
        skip = forbidden.union(basis)
        for j in range(total):
            if j not in skip and cost[j].numerator < 0:
                entering = j
                break
        if entering is None:
            return "optimal", pivots
        leaving = None
        for i, row in enumerate(tableau):
            a = row.get(entering)
            if a is None or a.numerator <= 0:
                continue
            b = row.get(total, _ZERO)
            # rhs / a = (bn * ad) / (bd * an), with a positive denominator
            num = b.numerator * a.denominator
            den = b.denominator * a.numerator
            if leaving is not None:
                cross, best = num * best_den, best_num * den
                if cross > best or (cross == best and basis[i] > basis[leaving]):
                    continue
            leaving, best_num, best_den = i, num, den
        if leaving is None:
            return "unbounded", pivots
        if pivots >= DEFAULT_PIVOT_CAP:
            raise ResourceCapError(
                f"{stage} exceeds the pivot cap of {DEFAULT_PIVOT_CAP}")
        nonzeros = _pivot(tableau, basis, leaving, entering)
        coef = cost[entering]
        if coef:
            _eliminate(cost, coef, nonzeros)
            cost[entering] = _ZERO
        pivots += 1


def _pivot(tableau, basis, i, j):
    """Pivot on entry (i, j) of the dict rows, in place, touching only row
    i's nonzero columns; returns those columns other than j as
    (column, numerator, denominator) for the caller's cost row."""
    row = tableau[i]
    pn, pd = row[j].numerator, row[j].denominator
    nonzeros = []
    for k, v in row.items():
        if k != j:
            row[k] = r = Fraction(v.numerator * pd, v.denominator * pn)
            nonzeros.append((k, r.numerator, r.denominator))
    row[j] = _ONE
    for k, other in enumerate(tableau):
        if k != i:
            coef = other.pop(j, None)
            if coef is not None:
                _eliminate_sparse(other, coef, nonzeros)
    basis[i] = j
    return nonzeros


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
        lhs = sum((c * xi for c, xi in zip(row, x)), Fraction(0))
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
    lambdas = tuple(parse_rational(s) for s in data["lambdas"])
    points = tuple(None if p is None else {v: parse_rational(s) for v, s in p.items()}
                   for p in data["points"])
    return HullCertificate(lambdas=lambdas, points=points,
                           epsilon=parse_rational(data["epsilon"]))


def certificate_roundtrip(cert: HullCertificate, variables) -> HullCertificate:
    return certificate_from_json(json.loads(json.dumps(cert.to_json_dict(variables))))


def _common_variables(regions):
    if not regions:
        return None
    variables = regions[0].variables
    for r in regions[1:]:
        if r.variables != variables:
            raise ValidationError("regions carry mixed variable indices")
    return variables


def _as_point(point, variables) -> dict:
    if isinstance(point, dict):
        missing = [v for v in variables if v not in point]
        if missing:
            raise ValidationError(f"point misses coordinates {missing}")
        return {v: Fraction(point[v]) for v in variables}
    values = list(point)
    if len(values) != len(variables):
        raise ValidationError("point dimension does not match the variable index")
    return {v: Fraction(x) for v, x in zip(variables, values)}


def _balas_problem(regions, variables, *, point=None, wt=None):
    """Variables: lam_j, z_{j,v}, then one scalar.

    Region j's scaled point is y_j = lb_j * lam_j + z_j with z_j >= 0, where
    lb_j holds the region's pure lower bounds.  Each pure row c*y >= b*lam
    has b/c <= lb, so z >= 0 and lam >= 0 imply it and it is dropped; a
    mixed row sum coef*y >= bound*lam becomes
    sum coef*z + (sum coef*lb - bound) * lam >= 0.  With a weight line:
    minimise s subject to sum_j y_j = s * wt.  With a point: maximise the
    margin t subject to sum_j y_j + t * 1 = point.  Every region row has
    bound 0, so lp_solve starts it from its surplus and only the
    1 + len(variables) equality rows need artificials.
    """
    lower = [{v: region.pure_lower_bound(v) for v in variables} for region in regions]
    names = [f"lam{j}" for j in range(len(regions))]
    for j in range(len(regions)):
        names.extend(f"z{j}.{v}" for v in variables)
    scalar = "s" if wt is not None else "t"
    names.append(scalar)
    nonneg = [True] * (len(names) - 1) + [False]
    index = {nm: i for i, nm in enumerate(names)}
    ncols = len(names)

    def row():
        return [Fraction(0)] * ncols

    constraints = []
    r = row()
    for j in range(len(regions)):
        r[index[f"lam{j}"]] = Fraction(1)
    constraints.append((tuple(r), "==", Fraction(1)))
    for j, region in enumerate(regions):
        for c in region.mixed_constraints():
            r = row()
            for lab, coef in c.coefficients:
                r[index[f"z{j}.{lab}"]] = coef
            r[index[f"lam{j}"]] = sum((coef * lower[j][lab] for lab, coef in c.coefficients),
                                      -c.bound)
            constraints.append((tuple(r), ">=", Fraction(0)))
    for v in variables:
        r = row()
        for j in range(len(regions)):
            r[index[f"lam{j}"]] = lower[j][v]
            r[index[f"z{j}.{v}"]] = Fraction(1)
        if wt is not None:
            r[index["s"]] = -Fraction(wt[v])
            constraints.append((tuple(r), "==", Fraction(0)))
        else:
            r[index["t"]] = Fraction(1)
            constraints.append((tuple(r), "==", point[v]))
    objective = row()
    objective[index[scalar]] = Fraction(1) if wt is not None else Fraction(-1)
    return LPProblem(variables=tuple(names), constraints=constraints,
                     objective=tuple(objective), nonneg=tuple(nonneg))


def _certificate_from_assignment(assignment, regions, variables) -> HullCertificate:
    lambdas = tuple(assignment[f"lam{j}"] for j in range(len(regions)))
    # undo the lower-bound shift: y_{j,v} = lb_{j,v} * lam_j + z_{j,v}
    y = [{v: region.pure_lower_bound(v) * lam + assignment[f"z{j}.{v}"] for v in variables}
         for j, (region, lam) in enumerate(zip(regions, lambdas))]
    # inactive regions may carry recession-ray mass (A y >= 0 with lam = 0);
    # fold it into an active point, which stays feasible because the
    # recession cone is the nonnegative orthant
    stray = {v: Fraction(0) for v in variables}
    for j, lam in enumerate(lambdas):
        if lam == 0:
            for v in variables:
                stray[v] += y[j][v]
    # shifting every active point by t * 1 moves the combination from
    # point - t * 1 onto the point itself, since the lambdas sum to 1
    t = assignment["t"]
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
    epsilon = min(c.evaluate(p) - c.bound
                  for p, region in zip(points, regions) if p is not None
                  for c in region.constraints)
    return HullCertificate(lambdas=lambdas, points=tuple(points), epsilon=epsilon)


def _assert_orthant_recession(regions):
    # TubularRegion construction already guarantees this; re-assert rather
    # than trust the caller, since Balas validity depends on it.
    for region in regions:
        for v in region.variables:
            region.pure_lower_bound(v)
        for c in region.constraints:
            if any(coef < 0 for _, coef in c.coefficients):
                raise ValidationError("negative coefficient breaks the recession-cone contract")


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
    _assert_orthant_recession(regions)
    pt = _as_point(point, variables)
    # always feasible (the all-large point lies in every region) and bounded
    # (every variable has a pure lower bound)
    result = lp_solve(_balas_problem(regions, variables, point=pt))
    if result.status != "optimal":
        raise ValidationError(f"membership LP is {result.status}; regions are malformed")
    margin = result.assignment["t"]
    if margin < 0 or (mode == "open" and margin == 0):
        return False, None
    return True, _certificate_from_assignment(result.assignment, regions, variables)


def verify_certificate(cert: HullCertificate, regions, point) -> bool:
    """Independent check: recompute the convex combination and all slacks."""
    variables = _common_variables(regions)
    pt = _as_point(point, variables)
    if any(l < 0 for l in cert.lambdas) or sum(cert.lambdas) != 1:
        return False
    if len(cert.lambdas) != len(regions):
        return False
    for v in variables:
        total = Fraction(0)
        for lam, p in zip(cert.lambdas, cert.points):
            if lam == 0:
                continue
            if p is None:
                return False
            total += lam * p[v]
        if total != pt[v]:
            return False
    for lam, p, region in zip(cert.lambdas, cert.points, regions):
        if lam == 0:
            continue
        for c in region.constraints:
            if c.evaluate(p) - c.bound < cert.epsilon:
                return False
    return True


def line_threshold(wt, regions) -> Fraction:
    """Infimum s with (wt(tau) * s) in the closed hull of the union.

    The open region of validity of the specialization is s > threshold.
    """
    if not regions:
        raise ValidationError("no regions given")
    variables = _common_variables(regions)
    _assert_orthant_recession(regions)
    weights = {v: Fraction(wt(v) if callable(wt) else wt[v]) for v in variables}
    if any(weights[v] <= 0 for v in variables):
        raise ValidationError("line thresholds need positive weights on all variables")
    problem = _balas_problem(regions, variables, wt=weights)
    result = lp_solve(problem)
    if result.status != "optimal":
        raise ValidationError(f"threshold LP is {result.status}; regions are malformed")
    return result.value


# ---------------------------------------------------------------------------
# the 2-dimensional shortcut and the conditional hull test
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
    from .regions import witness_type_labels
    a, argmin = min_weight(wt, types)
    del a
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
