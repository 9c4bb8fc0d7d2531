"""Shared property-suite machinery used by the unit tests and the
acceptance suite (dual-route oracles and exhaustive group checks)."""
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import tamecount.hull_lp as hull_lp
from tamecount import hull_membership, verify_certificate
from tamecount.perm import (PermutationGroup, _class_union, _close, compose, conjugation_step,
                            normal_subgroups, orbit, prime_factors, product_representation,
                            quotient, subgroup_as_group, subgroup_generated, subgroup_key,
                            upper_central_series, wreath_product)
from tamecount.regions import TubularRegion, constraint


# the golden requests, plus a wreath product and a direct product with many
# more types than witness columns; each with its auto witnesses
RECIPE_CASES = [("4T3", "disc", "paper-d4"), ("8T4", "disc", "paper-d4"),
                ("4T3", "cond-d4", "paper-d4"), ("8T11", "disc", "paper-16t11"),
                ("16T11", "disc", "paper-16t11"), ("4T3", "inv-gamma:1/5", "paper-d4"),
                ("wreath(4T3,C3)", "disc", "burgess-yang"),
                ("product(4T3,8T11)", "disc", "burgess-yang")]


# groups for the relabelling oracle (`test_invariance.py`): the golden
# groups, the groups benchmark and two products of unequal factors.  The
# verdict is compared on all but the last two (orders 2,048 and 1,536, with
# bases of 8 and 6 points), whose normal-subgroup lattice takes minutes
INVARIANCE_SPECS = ["S3", "C12", "4T3", "8T4", "8T11", "16T11", "product(4T3,C3)",
                    "product(4T3,S3)", "wreath(C2,C4)", "wreath(4T3,C2)",
                    "product(C2,16T11)", "product(4T3,8T11)", "wreath(C2,C8)", "wreath(4T3,C3)"]


# ---------------------------------------------------------------------------
# region and certificate views for comparisons
# ---------------------------------------------------------------------------

def canonical(c):
    """Primitive integral form of a LinearConstraint, for set comparison
    of constraint lists."""
    values = [coef for _, coef in c.coefficients] + [c.bound]
    scale = math.lcm(*(x.denominator for x in values))
    ints = [x.numerator * (scale // x.denominator) for x in values]
    g = math.gcd(*ints) or 1
    *coefs, bound = [n // g for n in ints]
    return tuple((lab, n) for (lab, _), n in zip(c.coefficients, coefs)), bound


def canonical_constraints(region):
    return frozenset(canonical(c) for c in region.constraints)


def mixed_constraints(region):
    """The constraints of a region that read more than one variable."""
    return [c for c in region.constraints if len(c.coefficients) > 1]


def ref_build_region(T, types, profile, matrix):
    """The region recipe through `constraint` and the public TubularRegion
    constructor, as `build_region` wrote it before it built integer rows:
    the oracle for its shifted rows, pure lower bounds and constraint view.
    `matrix` needs the columns of the types in T."""
    t_labels = {t.label for t in types if t.representative in T}
    cons = [constraint({t.label: 1}, profile.gamma if t.label in t_labels else 1)
            for t in types]
    for t in types:
        if t.label in t_labels:
            continue
        coeffs = {t.label: Fraction(1)}
        total = Fraction(0)
        for k in types:
            if k.label in t_labels and matrix[(t.label, k.label)]:
                coeffs[k.label] = matrix[(t.label, k.label)]
                total += matrix[(t.label, k.label)]
        if total:
            cons.append(constraint(coeffs, 1 + total))
    return TubularRegion([t.label for t in types], cons)


def certificate_roundtrip(cert, variables):
    """A certificate through its JSON form and back."""
    return hull_lp.certificate_from_json(json.loads(json.dumps(cert.to_json_dict(variables))))


def cyclic(n):
    return PermutationGroup(n, [tuple(range(2, n + 1)) + (1,)], name=f"C{n}")


def d4_deg4():
    return PermutationGroup(4, ["(1,2,3,4)", "(1,3)"], name="D4")


def s4():
    return PermutationGroup(4, ["(1,2,3,4)", "(1,2)"], name="S4")


def s3():
    return PermutationGroup(3, ["(1,2,3)", "(1,2)"], name="S3")


# ---------------------------------------------------------------------------
# LP vs Caratheodory
# ---------------------------------------------------------------------------

def solve_square(matrix, rhs):
    """Gaussian elimination over Fractions; None if singular or inconsistent."""
    m = len(matrix)
    n = len(matrix[0])
    aug = [list(row) + [r] for row, r in zip(matrix, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c]
        aug[r] = [v / inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if len(pivots) < n:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def region_vertices(region):
    """Basic points of the closure: every d-subset of tight rows."""
    variables = region.variables
    d = len(variables)
    rows = [([dict(c.coefficients).get(v, Fraction(0)) for v in variables], c.bound)
            for c in region.constraints]
    vertices = []
    for combo in combinations(range(len(rows)), d):
        x = solve_square([rows[i][0] for i in combo], [rows[i][1] for i in combo])
        if x is None:
            continue
        if region.slack(dict(zip(variables, x))) >= 0:
            vertices.append(tuple(x))
    return sorted(set(vertices))


def caratheodory_member(point, regions):
    """Closed-hull membership by direct linear solves over vertex/ray columns.

    A feasible convex-plus-ray combination has a basic solution supported
    on linearly independent columns, so enumerating all full-column-rank
    supports of size <= d+1 (with at least one vertex) is exhaustive.
    """
    variables = regions[0].variables
    d = len(variables)
    x = [point[v] for v in variables]
    columns = []
    for region in regions:
        for vert in region_vertices(region):
            columns.append((list(vert) + [Fraction(1)], "vertex"))
    for i in range(d):
        ray = [Fraction(0)] * (d + 1)
        ray[i] = Fraction(1)
        columns.append((ray, "ray"))
    target = x + [Fraction(1)]
    seen = set()
    dedup = []
    for col, kind in columns:
        key = tuple(col)
        if key not in seen:
            seen.add(key)
            dedup.append((col, kind))
    for k in range(1, d + 2):
        for combo in combinations(range(len(dedup)), k):
            if not any(dedup[i][1] == "vertex" for i in combo):
                continue
            matrix = [[dedup[i][0][r] for i in combo] for r in range(d + 1)]
            sol = solve_square(matrix, target)
            if sol is not None and all(v >= 0 for v in sol):
                return True
    return False


def random_region(rng, variables, max_mixed):
    cons = []
    for v in variables:
        cons.append(constraint({v: 1}, Fraction(rng.randint(0, 8), 4)))
    for _ in range(rng.randint(0, max_mixed)):
        subject = rng.choice(variables)
        others = [v for v in variables if v != subject]
        rng.shuffle(others)
        coeffs = {subject: Fraction(1)}
        for v in others[: rng.randint(1, len(others))]:
            coeffs[v] = rng.choice([Fraction(1, 4), Fraction(3, 8), Fraction(1, 2),
                                    Fraction(1), Fraction(3, 2)])
        cons.append(constraint(coeffs, Fraction(rng.randint(2, 12), 4)))
    return TubularRegion(variables, cons)


def random_query_point(rng, regions, variables):
    if rng.random() < 0.45:
        # convex combination of region points: guaranteed closed member
        weights = [Fraction(rng.randint(0, 4)) for _ in regions]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        total = sum(weights)
        point = {v: Fraction(0) for v in variables}
        for w, region in zip(weights, regions):
            corner = {v: region.pure_lower_bound(v) for v in variables}
            for c in mixed_constraints(region):
                subject, coef = c.coefficients[0]
                deficit = -c.slack(corner)
                if deficit > 0:
                    corner[subject] += deficit / coef
            bump = Fraction(rng.randint(0, 3), 4)
            for v in variables:
                point[v] += (w / total) * (corner[v] + bump)
        return point
    return {v: Fraction(rng.randint(0, 14), 4) for v in variables}


ORACLE_CASES = [
    # (dimension, region_count, max_mixed, instances, seed)
    (2, 1, 2, 120, 11),
    (2, 2, 2, 130, 22),
    (2, 3, 1, 100, 33),
    (3, 1, 1, 80, 44),
    (3, 2, 1, 70, 55),
]


def run_oracle_case(dimension, region_count, max_mixed, instances, seed):
    """Returns (instances, disagreements) for one random-instance family."""
    rng = random.Random(seed)
    variables = tuple("xyz"[:dimension])
    disagreements = 0
    for _ in range(instances):
        regions = [random_region(rng, variables, max_mixed)
                   for _ in range(region_count)]
        point = random_query_point(rng, regions, variables)
        lp_member, cert = hull_membership(point, regions, mode="closed")
        if lp_member != caratheodory_member(point, regions):
            disagreements += 1
        if lp_member and not verify_certificate(cert, regions, point):
            disagreements += 1
    return instances, disagreements


@dataclass
class GeneralLP:
    """An LP in the general form that `lp_solve` does not take: ">=" and
    "==" rows with bounds of either sign, and variables that are free
    unless flagged nonnegative.  Rows and the objective are dicts
    {variable index: coefficient}.  `dense_lp_solve` solves it."""
    variables: tuple
    constraints: list  # ({index: coefficient}, ">=" | "==", bound)
    objective: dict
    nonneg: tuple


def ref_balas_problem(regions, variables, *, point=None, wt=None):
    """The Balas LP with one z_{j,v} per region and coordinate and equality
    coupling rows, each lam coefficient recomputed from the region's rows
    (test oracle for `hull_lp.line_threshold` and the margin of
    `hull_lp.hull_membership`: same optimal value).

    Variables: lam_j, z_{j,v}, then one free scalar.  With a weight line:
    minimise s subject to sum_j lam_j = 1 and sum_j y_j = s * wt.  With a
    point: maximise the margin t subject to sum_j lam_j = 1 and
    sum_j y_j + t * 1 = point.
    """
    lower = [{v: region.pure_lower_bound(v) for v in variables} for region in regions]
    names = [f"lam{j}" for j in range(len(regions))]
    z = {}  # (j, v) -> index of z_{j,v}
    for j in range(len(regions)):
        for v in variables:
            z[j, v] = len(names)
            names.append(f"z{j}.{v}")
    scalar = len(names)
    names.append("s" if wt is not None else "t")
    constraints = [(dict.fromkeys(range(len(regions)), 1), "==", 1)]
    for j, region in enumerate(regions):
        for c in mixed_constraints(region):
            r = {z[j, lab]: coef for lab, coef in c.coefficients}
            r[j] = sum((coef * lower[j][lab] for lab, coef in c.coefficients), -c.bound)
            constraints.append((r, ">=", 0))
    for v in variables:
        r = {}
        for j in range(len(regions)):
            r[j] = lower[j][v]
            r[z[j, v]] = 1
        if wt is not None:
            r[scalar] = -wt[v]
            constraints.append((r, "==", 0))
        else:
            r[scalar] = 1
            constraints.append((r, "==", point[v]))
    return GeneralLP(variables=tuple(names), constraints=constraints,
                     objective={scalar: 1 if wt is not None else -1},
                     nonneg=(True,) * scalar + (False,))


def ref_gauge_problem(regions, variables, base, direction):
    """The gauge LP of the line base + s * direction as `hull_lp` built it
    in Fractions, from each region's LinearConstraint view and pure lower
    bounds (test oracle for the integer build of `hull_lp._line_entry`):
    m = floor(max_v (min_j lb_j(v) - base_v) / direction_v) - 1 in
    Fractions and the corner base + m * direction.  Columns: every lam_j,
    then region by region a z_{j,v} for each v that one of its mixed rows
    reads, in variable order.  Rows: each mixed row c*y > bound of region j
    as c*z + c.slack(lb_j) * lam_j >= 0, then each coupling row
    -sum_j ((lb_j(v) - corner_v) * lam_j + z_{j,v}) >= -direction_v times
    the lcm of the denominators of its lam coefficients and its bound.
    Returns (m, LPProblem)."""
    m = math.floor(max((min(r.pure_lower_bound(v) for r in regions) - base[v]) / direction[v]
                       for v in variables)) - 1
    corner = {v: base[v] + m * direction[v] for v in variables}
    names = [f"lam{j}" for j in range(len(regions))]
    z = {}  # (j, v) -> index of z_{j,v}
    for j, region in enumerate(regions):
        read = {lab for c in mixed_constraints(region) for lab, _ in c.coefficients}
        for v in variables:
            if v in read:
                z[j, v] = len(names)
                names.append(f"z{j}.{v}")
    constraints = []
    for j, region in enumerate(regions):
        lower = {v: region.pure_lower_bound(v) for v in variables}
        for c in mixed_constraints(region):
            row = {z[j, lab]: coef for lab, coef in c.coefficients}
            row[j] = c.slack(lower)
            constraints.append((row, ">=", 0))
    for v in variables:
        lam_coefs = [r.pure_lower_bound(v) - corner[v] for r in regions]
        bound = -Fraction(direction[v])
        scale = math.lcm(*(x.denominator for x in lam_coefs), bound.denominator)
        row = {j: -x * scale for j, x in enumerate(lam_coefs)}
        for j in range(len(regions)):
            if (j, v) in z:
                row[z[j, v]] = -scale
        constraints.append(({i: int(x) for i, x in row.items()}, ">=", int(bound * scale)))
    return m, hull_lp.LPProblem(variables=tuple(names), constraints=constraints,
                                objective=dict.fromkeys(range(len(regions)), -1))


def balas_optima(regions, **target):
    """The answers of hull_lp and of the reference formulation, solved by
    `dense_lp_solve`, to one threshold (wt=, from `hull_lp.line_threshold`)
    or margin (point=) question.  hull_lp's margin is t* = -s*, where the
    line point + s * 1 enters the hull at s* (the gauge LP that
    `hull_lp.hull_membership` solves)."""
    variables = regions[0].variables
    status, ref, _ = dense_lp_solve(ref_balas_problem(regions, variables, **target))
    assert status == "optimal"
    if "wt" in target:
        return hull_lp.line_threshold(target["wt"], regions), ref
    entry, _, _ = hull_lp._line_entry("membership", regions, variables, target["point"],
                                      dict.fromkeys(variables, 1))
    return -entry, -ref


def run_balas_reference_case(dimension, region_count, max_mixed, instances, seed):
    """Returns (LPs compared, value mismatches) over the oracle's random
    regions: a threshold along random positive weights and the margin of
    the oracle's query point, per instance."""
    rng = random.Random(seed)
    variables = tuple("xyz"[:dimension])
    mismatches = 0
    for _ in range(instances):
        regions = [random_region(rng, variables, max_mixed)
                   for _ in range(region_count)]
        wt = {v: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for v in variables}
        point = random_query_point(rng, regions, variables)
        for target in ({"wt": wt}, {"point": point}):
            new, ref = balas_optima(regions, **target)
            if new != ref:
                mismatches += 1
    return 2 * instances, mismatches


def run_conditional_hull_draws(count, seed=99):
    """Lemma-containment property: formula membership implies Balas membership."""
    from tamecount import conditional_hull_point_check
    rng = random.Random(seed)
    failures = 0
    for _ in range(count):
        n_cov = rng.randint(2, 4)
        n_unc = rng.randint(0, 2)
        covered = [f"c{i}" for i in range(n_cov)]
        uncovered = [f"u{i}" for i in range(n_unc)]
        variables = tuple(covered + uncovered)
        gamma = Fraction(rng.randint(0, 9), 10)
        regions = []
        for j in range(n_cov):
            cons = [constraint({v: 1}, gamma if v == covered[j] else Fraction(1))
                    for v in variables]
            regions.append(TubularRegion(variables, cons))
        witness_sets = [{covered[j]} for j in range(n_cov)]
        bound = 1 - Fraction(1 - gamma, n_cov)
        point = {v: bound + Fraction(rng.randint(1, 40), 40) for v in covered}
        point.update({v: 1 + Fraction(rng.randint(1, 40), 40) for v in uncovered})
        if not conditional_hull_point_check(point, witness_sets, gamma):
            failures += 1
            continue
        member, _ = hull_membership(point, regions, mode="open")
        if not member:
            failures += 1
    return count, failures


# ---------------------------------------------------------------------------
# dense reference solver: the original two-phase Fraction simplex, which
# updates every tableau entry on each pivot and takes general rows.  On an
# LPProblem (origin feasible, every variable nonnegative) its phase 1 makes
# no pivot, and lp_solve must take the same pivots as its phase 2.
# ---------------------------------------------------------------------------

dense_pivots = []  # (row, column) of every dense pivot since the list was last cleared


def dense_lp_solve(problem):
    """The dense solution of an LPProblem or a GeneralLP; returns (status,
    value, assignment) and records each pivot in dense_pivots."""
    n = len(problem.variables)
    nonneg = problem.nonneg if isinstance(problem, GeneralLP) else (True,) * n
    # column layout: for each variable either one column (nonneg) or a +/- pair
    col_of_var = []  # (plus_col, minus_col | None)
    ncols = 0
    for flag in nonneg:
        if flag:
            col_of_var.append((ncols, None))
            ncols += 1
        else:
            col_of_var.append((ncols, ncols + 1))
            ncols += 2
    # surplus columns follow the structural ones; a ">=" row with bound <= 0
    # is negated so that its surplus (+1) starts basic, and only the other
    # rows get an artificial
    art0 = ncols + sum(1 for _, rel, _ in problem.constraints if rel == ">=")
    surplus = ncols
    rows = []
    rhs = []
    basis = []
    for row, rel, bound in problem.constraints:
        expanded = [Fraction(0)] * art0
        for i, coef in dict(row).items():  # a dict or LPProblem's (index, coefficient) pairs
            plus, minus = col_of_var[i]
            expanded[plus] += coef
            if minus is not None:
                expanded[minus] -= coef
        bound = Fraction(bound)
        start = None
        if rel == ">=":
            expanded[surplus] = Fraction(-1)
            if bound <= 0:
                start = surplus
            surplus += 1
        if bound < 0 or start is not None:
            expanded = [-v for v in expanded]
            bound = -bound
        rows.append(expanded)
        rhs.append(bound)
        basis.append(start)
    m = len(rows)
    artificial_rows = [i for i in range(m) if basis[i] is None]
    total = art0 + len(artificial_rows)
    for i in range(m):
        rows[i].extend(Fraction(0) for _ in artificial_rows)
    for k, i in enumerate(artificial_rows):
        rows[i][art0 + k] = Fraction(1)
        basis[i] = art0 + k
    tableau = [rows[i] + [rhs[i]] for i in range(m)]
    cost1 = [Fraction(0)] * (total + 1)
    for j in range(art0, total):
        cost1[j] = Fraction(1)
    _reduce_cost_row(cost1, tableau, basis)
    status = _dense_pivot_until_optimal(tableau, cost1, basis, total)
    if status == "unbounded":  # impossible in phase 1 (costs bounded below by 0)
        raise AssertionError("phase 1 cannot be unbounded")
    if -cost1[-1] > 0:
        return "infeasible", None, None
    _drive_out_artificials(tableau, basis, art0)
    keep = []
    for i, b in enumerate(basis):
        if b >= art0:
            # redundant row: all structural coefficients zero
            if any(tableau[i][j] != 0 for j in range(art0)):
                raise AssertionError("artificial not driven out of a non-redundant row")
            continue
        keep.append(i)
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]
    # phase 2
    objective = [Fraction(0)] * n
    for i, coef in dict(problem.objective or ()).items():
        objective[i] = Fraction(coef)
    cost2 = [Fraction(0)] * (total + 1)
    for i, coef in enumerate(objective):
        plus, minus = col_of_var[i]
        cost2[plus] += coef
        if minus is not None:
            cost2[minus] -= coef
    forbidden = set(range(art0, total))
    _reduce_cost_row(cost2, tableau, basis)
    status = _dense_pivot_until_optimal(tableau, cost2, basis, total, forbidden=forbidden)
    if status == "unbounded":
        return "unbounded", None, None
    values = [Fraction(0)] * total
    for i, b in enumerate(basis):
        values[b] = tableau[i][-1]
    assignment = {}
    for i, var in enumerate(problem.variables):
        plus, minus = col_of_var[i]
        assignment[var] = values[plus] - (values[minus] if minus is not None else 0)
    value = sum((objective[i] * assignment[v] for i, v in enumerate(problem.variables)),
                Fraction(0))
    return "optimal", value, assignment


def _reduce_cost_row(cost, tableau, basis):
    for i, b in enumerate(basis):
        coef = cost[b]
        if coef:
            row = tableau[i]
            for j in range(len(cost)):
                cost[j] -= coef * row[j]


def _dense_pivot_until_optimal(tableau, cost, basis, total, forbidden=frozenset()):
    while True:
        entering = None
        for j in range(total):
            if j in forbidden or j in basis:
                continue
            if cost[j] < 0:
                entering = j
                break
        if entering is None:
            return "optimal"
        leaving = None
        best = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return "unbounded"
        _dense_pivot(tableau, cost, basis, leaving, entering)


def _dense_pivot(tableau, cost, basis, i, j):
    dense_pivots.append((i, j))
    row = tableau[i]
    piv = row[j]
    tableau[i] = [v / piv for v in row]
    row = tableau[i]
    for k, other in enumerate(tableau):
        if k != i and other[j]:
            coef = other[j]
            tableau[k] = [ov - coef * rv for ov, rv in zip(other, row)]
    if cost[j]:
        coef = cost[j]
        for idx in range(len(cost)):
            cost[idx] -= coef * row[idx]
    basis[i] = j


def _drive_out_artificials(tableau, basis, art0):
    for i, b in enumerate(basis):
        if b < art0:
            continue
        row = tableau[i]
        pivot_col = None
        for j in range(art0):
            if row[j] != 0:
                pivot_col = j
                break
        if pivot_col is not None:
            _dense_pivot(tableau, [Fraction(0)] * len(row), basis, i, pivot_col)


# ---------------------------------------------------------------------------
# element-set oracles: the walkers that the class-data tests replaced in
# `tamecount.perm`, kept verbatim apart from their names
# ---------------------------------------------------------------------------

def ref_is_subgroup(G: PermutationGroup, subset) -> bool:
    subset = frozenset(subset)
    if G.identity not in subset:
        return False
    imgs = {g.images for g in subset}
    return all(compose(a.images, b.images) in imgs for a in subset for b in subset)


def ref_is_normal(G: PermutationGroup, subset) -> bool:
    imgs = {g.images for g in subset}
    step = conjugation_step([h.images for h in G.generators])
    return all(imgs.issuperset(step(g)) for g in imgs)


def ref_is_abelian_set(subset) -> bool:
    elems = sorted(subset)
    return all(compose(a.images, b.images) == compose(b.images, a.images)
               for i, a in enumerate(elems) for b in elems[i + 1:])


def ref_all_subgroups(G: PermutationGroup):
    """Every subgroup of G by brute-force closure growth (test oracle)."""
    trivial = frozenset({G.identity})
    known = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            for g in G.elements:
                if g in H:
                    continue
                grown = subgroup_generated(G, set(H) | {g})
                if grown not in known:
                    known.add(grown)
                    new.append(grown)
        frontier = new
    return sorted(known, key=subgroup_key)


def ref_abelian_invariants(G: PermutationGroup, subset):
    """Invariant factors [d_1 >= d_2 >= ...] of the abelian group <subset>.

    A cyclic subgroup generated by an element of maximal order is a direct
    factor of a finite abelian group, so peeling one off and recursing on
    the quotient carrier yields the decomposition.
    """
    group = subgroup_as_group(G, subset)
    invariants = []
    while group.order > 1:
        top = min(group.elements, key=lambda g: (-g.order(), g.images))
        invariants.append(top.order())
        group = quotient(group, subgroup_generated(group, [top])).carrier
    return invariants


def ref_h1ur_layers(G: PermutationGroup, N, T):
    """`h1ur_chain` layers with each layer's invariants peeled from its
    quotient carrier (the layers themselves from `upper_central_series`)."""
    series = upper_central_series(subgroup_as_group(G, N))
    layers = [frozenset(T) & Z for Z in series]
    out = []
    for prev, cur in zip(layers, layers[1:]):
        if len(cur) > len(prev):
            carrier = quotient(subgroup_as_group(G, cur), prev).carrier
            out.append((len(cur) // len(prev),
                        tuple(ref_abelian_invariants(carrier, carrier.elements))))
    return out


def ref_upper_central_series(G: PermutationGroup):
    """[Z_0=1, Z_1=Z(G), ...] by testing every element against every generator."""
    elems = G.elements
    series = [frozenset({G.identity})]
    while True:
        Z = series[-1]
        nxt = frozenset(
            g for g in elems
            if all((h.inverse() * (g.inverse() * (h * g))) in Z for h in G.generators)
        )
        if nxt == Z:
            break
        series.append(nxt)
    return series


def ref_sylow_orders(G: PermutationGroup):
    """Prime factorization of |G| as {p: p^k}."""
    return {p: p ** k for p, k in prime_factors(G.order).items()}


# ---------------------------------------------------------------------------
# exhaustive group suites
# ---------------------------------------------------------------------------

def class_index_groups_up_to_200():
    from tamecount import resolve_entry
    return [
        d4_deg4(),
        s4(),
        resolve_entry("8T11").group,
        resolve_entry("16T11").group,
        wreath_product(cyclic(2), cyclic(3)),
        wreath_product(d4_deg4(), cyclic(2)),          # order 128
        product_representation(d4_deg4(), cyclic(3)),  # order 24
    ]


def run_class_and_index_checks():
    """Class partitions and index invariance, exhaustive over |G| <= 200."""
    failures = 0
    checked = 0
    for G in class_index_groups_up_to_200():
        assert G.order <= 200
        classes = G.conjugacy_classes()
        if sum(c.size for c in classes) != G.order:
            failures += 1
        union = set()
        for c in classes:
            if union & c.members:
                failures += 1
            union |= c.members
        if union != set(G.elements):
            failures += 1
        from tamecount import index_of
        for g in G.elements:
            base = index_of(g)
            checked += 1
            for h in G.generators:
                if index_of(g.conjugate_by(h)) != base:
                    failures += 1
            for u in range(1, g.order() + 1):
                if math.gcd(u, g.order()) == 1 and index_of(g ** u) != base:
                    failures += 1
    return checked, failures


def normal_scan_groups_up_to_100():
    from tamecount import resolve_entry
    return [
        s3(),
        d4_deg4(),
        cyclic(12),
        wreath_product(cyclic(2), cyclic(2)),
        s4(),
        resolve_entry("8T11").group,
        product_representation(d4_deg4(), cyclic(3)),
        wreath_product(cyclic(2), cyclic(4)),          # order 64
    ]


def ref_normal_subgroup_lattice(G: PermutationGroup):
    """(class masks, element sets) of the normal subgroups, in key order,
    each join N*S found as the `_close` fixpoint from N under one class
    generating S: the lattice before its joins became one pass over the
    class products."""
    prod = G.class_products()
    seeds = {}  # normal closure of a class -> one class generating it
    for c in range(1, len(prod)):
        seeds.setdefault(_close(prod, 1, (c,)), c)
    known = orbit(1, lambda N: [_close(prod, N, (c,)) for seed, c in seeds.items() if seed & ~N])
    members = sorted(((_class_union(G, mask), mask) for mask in known),
                     key=lambda member: subgroup_key(member[0]))
    return tuple(mask for _, mask in members), tuple(N for N, _ in members)


def run_normal_join_vs_bruteforce():
    """Join-closure normal subgroups vs the brute-force subgroup scan."""
    failures = 0
    checked = 0
    for G in normal_scan_groups_up_to_100():
        assert G.order <= 100
        expected = {frozenset(H) for H in ref_all_subgroups(G) if ref_is_normal(G, H)}
        got = {frozenset(N) for N in normal_subgroups(G)}
        checked += len(expected)
        if got != expected:
            failures += 1
    return checked, failures


def run_wreath_additivity_checks():
    """Index additivity on base tuples and a(N) = a(N wr B) on catalog pairs."""
    from tamecount import index_of
    failures = 0
    checked = 0
    pairs = [(d4_deg4(), 2), (cyclic(2), 3), (cyclic(3), 2)]
    for N, m in pairs:
        B = cyclic(m)
        W = wreath_product(N, B)
        n = N.degree
        a_N = min(index_of(g) for g in N.elements if not g.is_identity())
        a_W = min(index_of(g) for g in W.elements if not g.is_identity())
        checked += 1
        if a_N != a_W:
            failures += 1
        from tamecount.perm import Permutation
        import itertools
        for combo in itertools.islice(itertools.product(N.elements, repeat=m), 64):
            images = []
            for block, g in enumerate(combo):
                images.extend(g(i) + block * n for i in range(1, n + 1))
            w = Permutation(images)
            checked += 1
            if index_of(w) != sum(index_of(g) for g in combo):
                failures += 1
    return checked, failures
