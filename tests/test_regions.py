"""Subconvexity matrix entries and the region recipe."""
import random
from fractions import Fraction

import pytest

from _suites import (RECIPE_CASES, canonical, canonical_constraints, mixed_constraints,
                     ref_build_region)
from tamecount import (absolute_convergence_orthant, analyze, build_region, make_profile,
                       subconvexity_matrix)
from tamecount.errors import ContractViolationError, ParseError, ValidationError
from tamecount.catalog import resolve_entry, resolve_weight
from tamecount.concentration import analysis_witnesses
from tamecount.perm import conjugate, cycle_count, parse_permutation, subgroup_generated
from tamecount.ramtypes import tame_types
from tamecount.regions import (SubconvexityProfile, constraint, default_beta,
                               parse_subconvexity_file)
from tamecount.hull_lp import hull_membership


def canon(expr_pairs):
    """Set of canonicalized (coefficients, bound) pairs for comparison."""
    out = set()
    for coeffs, bound in expr_pairs:
        out.add(canonical(constraint(coeffs, bound)))
    return out


@pytest.fixture(scope="module")
def d4_setup(d4_quartic, d4_types, cyc_q):
    G = d4_quartic.group
    by_label = {t.label: t for t in d4_types}
    TB = subgroup_generated(G, by_label["2B"].members)
    TC = subgroup_generated(G, by_label["2C"].members)
    prof = make_profile("burgess-yang", d4_types, cyc_q)
    return G, d4_types, TB, TC, prof


class TestSubconvexityMatrix:
    def test_d4_entry_2b_2c(self, d4_setup, cyc_q):
        G, types, _, _, prof = d4_setup
        M = subconvexity_matrix(G, types, prof, cyc_q)
        assert M[("2B", "2C")] == Fraction(3, 8)
        assert M[("4A", "2C")] == Fraction(3, 8)

    def test_central_column_zero(self, d4_setup, cyc_q):
        G, types, _, _, prof = d4_setup
        M = subconvexity_matrix(G, types, prof, cyc_q)
        assert all(M[(t.label, "2A")] == 0 for t in types)

    def test_lindelof_all_zero(self, d4_setup, cyc_q):
        G, types, _, _, _ = d4_setup
        prof = make_profile("lindelof", types, cyc_q)
        M = subconvexity_matrix(G, types, prof, cyc_q)
        assert all(v == 0 for v in M.values())

    def test_representative_sweep_invariance(self, q8c2_deg8, cyc_q):
        # the matrix entry must not depend on which member of tau acts
        G = q8c2_deg8.group
        types = q8c2_deg8.types(cyc_q)
        prof = make_profile("burgess-yang", types, cyc_q)
        M = subconvexity_matrix(G, types, prof, cyc_q)
        for kappa in types:
            orbit = sorted(x.images for x in G.class_of(kappa.representative).members)
            pos = {x: i for i, x in enumerate(orbit)}
            for tau in types:
                for rep in tau.members:
                    action = tuple(pos[conjugate(rep.images, x)] + 1 for x in orbit)
                    ind = len(orbit) - cycle_count(action)
                    entry = prof.alpha_of(kappa.label) * kappa.zeta_degree * ind
                    assert entry == M[(tau.label, kappa.label)]


class TestBuildRegion:
    def test_d4_tc_is_the_six_paper_constraints(self, d4_setup, cyc_q):
        G, types, _, TC, prof = d4_setup
        region = build_region(G, TC, types, prof, cyc_q)
        expected = canon([
            ({"2A": 1}, Fraction(1, 2)),
            ({"2C": 1}, Fraction(1, 2)),
            ({"2B": 1}, 1),
            ({"4A": 1}, 1),
            ({"2B": 1, "2C": Fraction(3, 8)}, Fraction(11, 8)),
            ({"4A": 1, "2C": Fraction(3, 8)}, Fraction(11, 8)),
        ])
        assert canonical_constraints(region) == frozenset(expected)

    def test_d4_tb_symmetric(self, d4_setup, cyc_q):
        G, types, TB, _, prof = d4_setup
        region = build_region(G, TB, types, prof, cyc_q)
        expected = canon([
            ({"2A": 1}, Fraction(1, 2)),
            ({"2B": 1}, Fraction(1, 2)),
            ({"2C": 1}, 1),
            ({"4A": 1}, 1),
            ({"2C": 1, "2B": Fraction(3, 8)}, Fraction(11, 8)),
            ({"4A": 1, "2B": Fraction(3, 8)}, Fraction(11, 8)),
        ])
        assert canonical_constraints(region) == frozenset(expected)

    def test_16t11_tb_has_four_mixed(self, q8c2_deg16, t16_types, cyc_q):
        G = q8c2_deg16.group
        by_label = {t.label: t for t in t16_types}
        TB = subgroup_generated(G, by_label["2B"].members)
        prof = make_profile("burgess-yang", t16_types, cyc_q)
        region = build_region(G, TB, types=t16_types, profile=prof, cyc=cyc_q)
        mixed = {canonical(c) for c in mixed_constraints(region)}
        expected = canon([
            ({"2C": 1, "2B": Fraction(3, 8)}, Fraction(11, 8)),
            ({"2D": 1, "2B": Fraction(3, 8)}, Fraction(11, 8)),
            ({"4C": 1, "2B": Fraction(3, 8)}, Fraction(11, 8)),
            ({"4D": 1, "2B": Fraction(3, 8)}, Fraction(11, 8)),
        ])
        assert mixed == frozenset(expected)
        assert region.pure_lower_bound("2A") == Fraction(1, 2)
        assert region.pure_lower_bound("2B") == Fraction(1, 2)
        for lab in ("2C", "2D", "4A", "4B", "4C", "4D"):
            assert region.pure_lower_bound(lab) == 1

    def test_lindelof_region_is_orthant(self, d4_setup, cyc_q):
        G, types, _, TC, _ = d4_setup
        prof = make_profile("lindelof", types, cyc_q, gamma=Fraction(1, 2))
        region = build_region(G, TC, types, prof, cyc_q)
        assert not region.shifted_rows
        assert region.pure_lower_bound("2C") == Fraction(1, 2)
        assert region.pure_lower_bound("2B") == 1

    def test_nonabelian_witness_rejected(self, d4_setup, cyc_q):
        G, types, _, _, prof = d4_setup
        with pytest.raises(ContractViolationError):
            build_region(G, G.element_set(), types, prof, cyc_q)

    def test_non_normal_witness_rejected(self, d4_setup, cyc_q):
        from tamecount.perm import parse_permutation
        G, types, _, _, prof = d4_setup
        H = subgroup_generated(G, [parse_permutation("(1,3)", 4)])
        with pytest.raises(ContractViolationError):
            build_region(G, H, types, prof, cyc_q)

    def test_witness_outside_group_rejected(self, cyc_q):
        G = resolve_entry("8T4").group
        types = tame_types(G, cyc_q)
        prof = make_profile("burgess-yang", types, cyc_q)
        outside = parse_permutation("(1,7,6,4)(2,3,5,8)", 8)
        T = subgroup_generated(G, [outside])
        assert outside not in G
        with pytest.raises(ContractViolationError, match="not contained in the group"):
            build_region(G, T, types, prof, cyc_q)

    def test_common_t_type_bound_across_witnesses(self, q8c2_deg16, t16_types, cyc_q):
        # 2A is central, so every witness region gives it the gamma bound
        G = q8c2_deg16.group
        prof = make_profile("burgess-yang", t16_types, cyc_q)
        by_label = {t.label: t for t in t16_types}
        for lab in ("2B", "2C", "2D"):
            T = subgroup_generated(G, by_label[lab].members)
            region = build_region(G, T, t16_types, prof, cyc_q)
            assert region.pure_lower_bound("2A") == Fraction(1, 2)
            assert region.variables == tuple(t.label for t in t16_types)

    def test_alpha_monotonicity(self, d4_setup, cyc_q):
        # smaller alpha -> entrywise smaller M -> implied (superset) region
        G, types, _, TC, _ = d4_setup
        rng = random.Random(5)
        labels = [t.label for t in types]
        for _ in range(20):
            small, large = {}, {}
            for lab in labels:
                lo = Fraction(rng.randint(0, 8), 16)
                hi = lo + Fraction(rng.randint(0, 8), 16)
                small[lab], large[lab] = lo, hi
            p_small = SubconvexityProfile("s", Fraction(1, 2), small, None)
            p_large = SubconvexityProfile("l", Fraction(1, 2), large, None)
            r_small = build_region(G, TC, types, p_small, cyc_q)
            r_large = build_region(G, TC, types, p_large, cyc_q)
            for _ in range(12):
                point = {lab: Fraction(rng.randint(2, 10), 4) for lab in labels}
                if r_large.slack(point) > 0:
                    assert r_small.slack(point) > 0

    def test_region_membership_matches_hull_on_single_region(self, d4_setup, cyc_q):
        G, types, _, TC, prof = d4_setup
        region = build_region(G, TC, types, prof, cyc_q)
        rng = random.Random(3)
        for _ in range(15):
            point = {t.label: Fraction(rng.randint(1, 10), 4) for t in types}
            member, _ = hull_membership(point, [region], mode="open")
            assert member == (region.slack(point) > 0)


@pytest.fixture(scope="module", params=RECIPE_CASES, ids=" ".join)
def recipe_case(request, cyc_q):
    label, weight, preset = request.param
    entry = resolve_entry(label)
    types = entry.types(cyc_q)
    wt = resolve_weight(weight, entry, types)
    return entry.group, types, wt, analysis_witnesses(entry.group, types, wt), preset


class TestIntegerRecipe:
    @pytest.mark.parametrize("lindelof", [False, True], ids=["preset", "lindelof"])
    def test_build_region_matches_constraint_recipe(self, recipe_case, cyc_q, lindelof):
        G, types, wt, witnesses, preset = recipe_case
        prof = make_profile("lindelof" if lindelof else preset, types, cyc_q)
        full = subconvexity_matrix(G, types, prof, cyc_q)
        regions = []
        for T in witnesses:
            want = ref_build_region(T, types, prof, full)
            for region in (build_region(G, T, types, prof, cyc_q),
                           build_region(G, T, types, prof, cyc_q, matrix=full)):
                assert region.shifted_rows == want.shifted_rows
                assert all(region.pure_lower_bound(v) == want.pure_lower_bound(v)
                           for v in want.variables)
                # values, order and types (Fraction, not int) of the view
                assert repr(region.constraints) == repr(want.constraints)
            regions.append(region)
        # slack reads the integer rows; it is the least slack of the view's
        # rows at seeded points and at the analysis's certificate points
        rng = random.Random(len(types))
        pairs = [(region, {t.label: Fraction(rng.randint(1, 24), rng.choice([1, 2, 8, 15]))
                           for t in types})
                 for region in regions for _ in range(3)]
        cert = analyze(G, types, wt, witnesses, prof, cyc_q).certificate
        pairs += [(region, p) for region, p in zip(regions, cert.points) if p is not None]
        for region, p in pairs:
            assert region.slack(p) == min(c.slack(p) for c in region.constraints)

    def test_column_restricted_matrix_equals_full(self, recipe_case, cyc_q):
        G, types, _, witnesses, preset = recipe_case
        prof = make_profile(preset, types, cyc_q)
        full = subconvexity_matrix(G, types, prof, cyc_q)
        columns = {t.label for T in witnesses for t in types if t.representative in T}
        part = subconvexity_matrix(G, types, prof, cyc_q, columns=columns)
        assert part == {key: m for key, m in full.items() if key[1] in columns}

    def test_missing_alpha_outside_the_witnesses_still_refused(self, cyc_q):
        # the matrix computes only witness columns but reads every alpha
        entry = resolve_entry("wreath(4T3,C3)")
        G, types = entry.group, entry.types(cyc_q)
        wt = resolve_weight("disc", entry, types)
        witnesses = analysis_witnesses(G, types, wt)
        read = {t.label for T in witnesses for t in types if t.representative in T}
        outside = [t.label for t in types if t.label not in read]
        assert outside
        prof = make_profile("burgess-yang", types, cyc_q)
        alpha = {lab: a for lab, a in prof.alpha.items() if lab != outside[0]}
        partial = SubconvexityProfile(prof.name, prof.gamma, alpha, prof.beta)
        with pytest.raises(ValidationError, match=f"no alpha for type {outside[0]}$"):
            analyze(G, types, wt, witnesses, partial, cyc_q)


class TestAbsoluteConvergence:
    def test_d4_four_constraints(self, d4_types):
        region = absolute_convergence_orthant(d4_types)
        assert len(region.constraints) == 4
        assert all(c.bound == 1 for c in region.constraints)

    def test_16t11_eight_constraints(self, t16_types):
        assert len(absolute_convergence_orthant(t16_types).constraints) == 8

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            absolute_convergence_orthant([])


class TestRegionInvariants:
    def test_recession_cone_enforced(self):
        from tamecount.regions import TubularRegion, LinearConstraint
        with pytest.raises(ValidationError, match="pure lower bound"):
            TubularRegion(("x", "y"), [constraint({"x": 1}, 1)])
        with pytest.raises(ValidationError, match="nonnegative"):
            TubularRegion(("x",), [LinearConstraint((("x", Fraction(-1)),), Fraction(0))])

    @pytest.mark.parametrize("use", ["line_threshold", "hull_membership", "slack"])
    def test_region_without_variables_rejected(self, use):
        # no use of a region over no variables is reached: the constructor refuses it
        from tamecount.regions import TubularRegion
        from tamecount.hull_lp import line_threshold
        calls = {"line_threshold": lambda r: line_threshold({}, [r]),
                 "hull_membership": lambda r: hull_membership({}, [r]),
                 "slack": lambda r: r.slack({})}
        with pytest.raises(ValidationError, match="at least one variable"):
            calls[use](TubularRegion((), []))

    def test_small_coefficient_region_accepted(self):
        # {a > 500}: a large bound over a small coefficient is not empty
        from tamecount.regions import TubularRegion
        region = TubularRegion(["a"], [constraint({"a": Fraction(1, 100)}, 5)])
        assert region.pure_lower_bound("a") == 500
        assert region.slack({"a": Fraction(501)}) > 0

    def test_int_input_read_exactly(self):
        # 1/1 is the Fraction 1, not the float 1.0 that hull_lp cannot scale
        from tamecount.regions import TubularRegion, LinearConstraint
        from tamecount.hull_lp import line_threshold
        rows = (LinearConstraint((("x", 1),), 1), LinearConstraint((("y", 2),), 1),
                LinearConstraint((("x", 1), ("y", 1)), 3))
        region = TubularRegion(["x", "y"], rows)
        assert region.constraints == rows
        assert repr(region.pure_lower_bound("x")) == "Fraction(1, 1)"
        assert region.pure_lower_bound("y") == Fraction(1, 2)
        assert region.shifted_rows == (((("x", 2), ("y", 2)), -3),)
        assert line_threshold({"x": 1, "y": 1}, [region]) == Fraction(3, 2)
        member, cert = hull_membership({"x": 2, "y": 2}, [region], mode="open")
        assert member and cert.epsilon > 0

    def test_fraction_input_read_exactly(self):
        from tamecount.regions import TubularRegion, LinearConstraint
        region = TubularRegion(["x"], [LinearConstraint((("x", Fraction(3, 7)),), Fraction(2, 5))])
        assert region.pure_lower_bound("x") == Fraction(14, 15)
        assert region.slack({"x": Fraction(14, 15)}) == 0

    @pytest.mark.parametrize("bad", [0.5, "1/2", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("where", ["coefficient", "bound"])
    def test_inexact_input_rejected(self, bad, where):
        from tamecount.regions import TubularRegion, LinearConstraint
        coef, bound = (bad, 1) if where == "coefficient" else (1, bad)
        with pytest.raises(ValidationError, match="not an int or a Fraction"):
            TubularRegion(["x"], [LinearConstraint((("x", coef),), bound)])

    def test_zero_or_no_coefficient_rejected(self):
        from tamecount.regions import TubularRegion, LinearConstraint
        with pytest.raises(ValidationError, match="nonzero"):
            TubularRegion(("a",), [LinearConstraint((("a", Fraction(0)),), Fraction(1))])
        with pytest.raises(ValidationError, match="nonzero"):
            TubularRegion(("a",), [constraint({"a": 1}, 0), LinearConstraint((), Fraction(-1))])

    def test_repeated_variable_rejected(self):
        # read as 2x + y > 4 by a slack but as x + y by an LP column map
        from tamecount.regions import TubularRegion, LinearConstraint
        repeated = LinearConstraint((("x", Fraction(1)), ("x", Fraction(1)), ("y", Fraction(1))),
                                    Fraction(4))
        with pytest.raises(ValidationError, match="names a variable twice"):
            TubularRegion(("x", "y"), [constraint({"x": 1}, 0), constraint({"y": 1}, 0), repeated])

    def test_repeated_region_variable_rejected(self):
        # the Balas LP would get two z columns of one name, and the
        # certificate of (2, 2) an epsilon of -1/2
        from tamecount.regions import TubularRegion
        with pytest.raises(ValidationError, match="a region names a variable twice"):
            TubularRegion(("x", "x", "y"), [constraint({"x": 1}, 1), constraint({"y": 1}, 1),
                                            constraint({"x": 1, "y": 1}, 3)])

    def test_pure_lower_bound_is_the_largest(self):
        from tamecount.regions import TubularRegion
        rows = (constraint({"x": 2}, 1), constraint({"x": 3}, 2), constraint({"x": 1}, -1),
                constraint({"y": 1}, 0), constraint({"x": 1, "y": 1}, 5))
        region = TubularRegion(("x", "y"), rows)
        # the view reads the rows back from their integer form, in order
        assert region.constraints == rows
        assert region.pure_lower_bound("x") == Fraction(2, 3)
        assert region.pure_lower_bound("y") == 0
        # the one mixed row, x + y > 5, has slack 2/3 - 5 at the corner (2/3, 0)
        corner = {"x": Fraction(2, 3), "y": Fraction(0)}
        assert region.constraints[-1].slack(corner) == Fraction(2, 3) - 5
        assert region.shifted_rows == (((("x", 3), ("y", 3)), -13),)
        with pytest.raises(ValidationError, match="no pure lower bound on z"):
            region.pure_lower_bound("z")

    def test_shifted_rows_are_primitive_integer_rows(self):
        from tamecount.regions import TubularRegion
        rows = (constraint({"x": 3}, 2), constraint({"y": 1}, 0),
                constraint({"x": 1, "y": 1}, 5), constraint({"x": 2, "y": 4}, 2))
        region = TubularRegion(("x", "y"), rows)
        assert region.constraints == rows
        # at the corner (2/3, 0): x + y - 13/3 is 3x + 3y - 13, and
        # 2x + 4y - 2/3 is 2 * (3x + 6y - 1) / 3
        corner = {"x": Fraction(2, 3), "y": Fraction(0)}
        assert [c.slack(corner) for c in region.constraints[2:]] == [Fraction(-13, 3),
                                                                     Fraction(-2, 3)]
        assert region.shifted_rows == (((("x", 3), ("y", 3)), -13),
                                       ((("x", 3), ("y", 6)), -1))

    def test_mixed_labels_and_shifted_rows_follow_the_variables(self):
        # variables out of label order: a shifted row lists its coefficients
        # in variable order, and mixed_labels names each variable a mixed
        # row reads once, in that order; w is read by no mixed row
        from tamecount.regions import TubularRegion
        rows = [constraint({v: 1}, 1) for v in ("y", "w", "x")] + [
            constraint({"x": 1, "y": 2}, 4), constraint({"y": 1}, 2)]
        region = TubularRegion(("y", "w", "x"), rows)
        assert region.constraints[3].coefficients == (("x", 1), ("y", 2))
        # at the corner (y, w, x) = (2, 1, 1): x + 2y - 4 = 1
        assert region.shifted_rows == (((("y", 2), ("x", 1)), 1),)
        assert region.mixed_labels == ("y", "x")
        assert TubularRegion(("x",), [constraint({"x": 1}, 1)]).mixed_labels == ()

    def test_beta_defaults(self, d4_types, cyc_q):
        alpha = {t.label: Fraction(3, 8) for t in d4_types}
        beta = default_beta(d4_types, alpha, cyc_q)
        assert beta["2A"] == Fraction(1, 3)   # size-1 rational L-function: Weyl
        assert beta["2B"] == Fraction(3, 4)   # 3/8 * size 2
        assert beta["4A"] == Fraction(3, 4)

    def test_gamma_range_validated(self, d4_types):
        with pytest.raises(ValidationError):
            SubconvexityProfile("bad", Fraction(1), {t.label: Fraction(0) for t in d4_types}, None)


class TestSubconvexityFile:
    def test_parse(self, d4_types):
        prof = parse_subconvexity_file(
            "# D4\ngamma 1/2\n\nalpha * 3/8\nalpha 2A 1/4\nbeta * 3/4\n", d4_types)
        assert prof.gamma == Fraction(1, 2)
        assert prof.alpha == {"2A": Fraction(1, 4), "2B": Fraction(3, 8),
                              "2C": Fraction(3, 8), "4A": Fraction(3, 8)}
        assert set(prof.beta.values()) == {Fraction(3, 4)}

    @pytest.mark.parametrize("text, lineno, label", [
        ("alpha 4a 1/2\nalpha * 3/8\n", 1, "4a"),
        ("gamma 1/2\nalpha * 3/8\n\nbeta 2Z 1/2\nbeta * 3/4\n", 4, "2Z"),
    ])
    def test_unknown_label_rejected(self, d4_types, text, lineno, label):
        with pytest.raises(ParseError, match=f"line {lineno}: unknown type label '{label}'"):
            parse_subconvexity_file(text, d4_types)
