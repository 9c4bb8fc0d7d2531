"""Exact simplex, Balas hull membership, thresholds, and the
LP-vs-Caratheodory dual-route checks."""
import copy
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import _suites
from tamecount import (LPProblem, conditional_hull_point_check, hull_membership,
                       line_threshold, lp_solve, make_profile, shortcut_2d,
                       verify_certificate, weight_conductor_d4, weight_discriminant)
import tamecount.hull_lp as hull_lp
from tamecount.catalog import resolve_weight
from tamecount.cli import _parse_manifest, main as cli_main, run_analysis_request
from tamecount.concentration import analysis_witnesses
from tamecount.errors import ContractViolationError, ResourceCapError, ValidationError
from tamecount.hull_lp import (HullCertificate, rational_str, parse_rational,
                               verify_lp_assignment)
from tamecount.perm import parse_permutation, subgroup_generated
from tamecount.regions import TubularRegion, build_region, constraint


# ---------------------------------------------------------------------------
# plain LP
# ---------------------------------------------------------------------------

def beale_problem():
    """Beale's instance, on which the textbook largest-coefficient rule
    cycles: min -3/4 a + 150 b - 1/50 c + 6 d  s.t. 1/4 a - 60 b - 1/25 c +
    9 d <= 0, 1/2 a - 90 b - 1/50 c + 3 d <= 0 and c <= 1; Bland's rule
    reaches the optimum -1/20."""
    rows = [
        ({0: Fraction(-1, 4), 1: Fraction(60), 2: Fraction(1, 25), 3: Fraction(-9)}, ">=",
         Fraction(0)),
        ({0: Fraction(-1, 2), 1: Fraction(90), 2: Fraction(1, 50), 3: Fraction(-3)}, ">=",
         Fraction(0)),
        ({2: Fraction(-1)}, ">=", Fraction(-1)),
    ]
    return LPProblem(variables=("a", "b", "c", "d"), constraints=rows,
                     objective={0: Fraction(-3, 4), 1: Fraction(150), 2: Fraction(-1, 50),
                                3: Fraction(6)})


class TestLpSolve:
    def test_minimize_lower_bound(self):
        # min -x  s.t. -x >= -3: the least objective, -3, at the bound x = 3
        p = LPProblem(variables=("x",), constraints=[({0: Fraction(-1)}, ">=", Fraction(-3))],
                      objective={0: Fraction(-1)})
        r = lp_solve(p)
        assert r.status == "optimal" and r.value == -3
        assert verify_lp_assignment(p, r.assignment)

    def test_unbounded(self):
        p = LPProblem(variables=("x",), constraints=[({0: Fraction(1)}, ">=", Fraction(0))],
                      objective={0: Fraction(-1)})
        assert lp_solve(p).status == "unbounded"

    def test_exact_rational_optimum(self):
        # min -s s.t. -3s >= -19/16 and -2s >= -27/32: optimum -27/64
        p = LPProblem(variables=("s",),
                      constraints=[({0: Fraction(-3)}, ">=", Fraction(-19, 16)),
                                   ({0: Fraction(-2)}, ">=", Fraction(-27, 32))],
                      objective={0: Fraction(-1)})
        r = lp_solve(p)
        assert r.value == -min(Fraction(19, 48), Fraction(27, 64))

    @pytest.mark.parametrize("row,objective", [
        ({0: Fraction(1), 1: Fraction(2)}, None),
        ({-1: Fraction(1)}, None),
        ({"x": Fraction(1)}, None),
        ({0: Fraction(1)}, {1: Fraction(1)}),
    ], ids=["row_index_1", "row_index_-1", "row_label", "objective_index_1"])
    def test_index_out_of_range(self, row, objective):
        with pytest.raises(ValidationError, match="outside range"):
            LPProblem(variables=("x",), constraints=[(row, ">=", 0)], objective=objective)

    @pytest.mark.parametrize("row,objective", [({True: 1}, None), ({1: 1}, {False: 1})],
                             ids=["row_index_True", "objective_index_False"])
    def test_bool_index_rejected(self, row, objective):
        # True == 1 would put the entry in column 1, y
        with pytest.raises(ValidationError, match="outside range"):
            LPProblem(variables=("x", "y"), constraints=[(row, ">=", 0)], objective=objective)

    @pytest.mark.parametrize("row", [({0: 1}, ">="), ({0: 1}, ">=", 0, 0), {0: 1}, None],
                             ids=["pair", "quadruple", "bare_dict", "none"])
    def test_row_not_a_triple_rejected(self, row):
        # row 1 is named; row 0 is a valid triple
        with pytest.raises(ValidationError, match=r"LP row 1 is not a \(row, rel, bound\) triple"):
            LPProblem(variables=("x",), constraints=[({0: 1}, ">=", -1), row])

    def test_dense_row_rejected(self):
        with pytest.raises(ValidationError, match="dict"):
            LPProblem(variables=("x",), constraints=[((Fraction(1),), ">=", 0)])

    @pytest.mark.parametrize("row,bound,objective", [
        ({0: 0.5}, 0, None),
        ({0: 1}, 0.1, None),
        ({0: 1}, 0, {0: 1.0}),
        ({0: "1"}, 0, None),
    ], ids=["float_coefficient", "float_bound", "float_objective", "str_coefficient"])
    def test_non_rational_input_rejected(self, row, bound, objective):
        with pytest.raises(ValidationError, match="not an int or a Fraction"):
            LPProblem(variables=("x",), constraints=[(row, ">=", bound)], objective=objective)

    @pytest.mark.parametrize("rel,bound", [("==", 0), ("<=", 0), (">=", 1), (">=", Fraction(1, 9))],
                             ids=["equality", "less_equal", "bound_1", "bound_1/9"])
    def test_row_without_the_origin_rejected(self, rel, bound):
        # row 1 is named; row 0 is a valid ">=" row with bound <= 0
        with pytest.raises(ValidationError, match=r"LP row 1 reads .*'>=' with a bound <= 0"):
            LPProblem(variables=("x",), constraints=[({0: 1}, ">=", -1), ({0: 1}, rel, bound)])

    def test_degenerate_cycling_terminates(self):
        p = beale_problem()
        r = lp_solve(p)
        assert (r.status, r.value) == ("optimal", Fraction(-1, 20))
        assert verify_lp_assignment(p, r.assignment)

    def test_pivot_cap_counts_every_pivot(self, monkeypatch):
        # min -x - y  s.t. x + 2y <= 3 and 2x + y <= 3, x, y >= 0
        p = LPProblem(variables=("x", "y"),
                      constraints=[({0: Fraction(-1), 1: Fraction(-2)}, ">=", Fraction(-3)),
                                   ({0: Fraction(-2), 1: Fraction(-1)}, ">=", Fraction(-3))],
                      objective={0: Fraction(-1), 1: Fraction(-1)})
        pivots = lp_solve(p).pivots
        assert pivots > 1
        monkeypatch.setattr(hull_lp, "DEFAULT_PIVOT_CAP", pivots)
        assert lp_solve(p).value == -2
        monkeypatch.setattr(hull_lp, "DEFAULT_PIVOT_CAP", pivots - 1)
        with pytest.raises(ResourceCapError, match=r"LP \(2 rows x 2 variables\) exceeds the pivot cap of"):
            lp_solve(p)

    def test_pivot_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(hull_lp, "DEFAULT_PIVOT_CAP", 3)
        assert cli_main(["analyze", "4T3", "--weight", "disc"]) == 3
        assert "LP (" in capsys.readouterr().err

    def test_16t11_pivot_counts(self, recorded_lps):
        # the threshold LP, then the membership LP of the pole point (both
        # gauge LPs); any change of pivot rule, tie-break or starting basis
        # moves these counts
        run_analysis_request("16T11", "disc", "paper-16t11", "Q")
        assert [r.pivots for _, r in recorded_lps] == [16, 16]
        assert [r.status for _, r in recorded_lps] == ["optimal", "optimal"]

    def test_16t11_lps_match_dense_reference(self, recorded_lps):
        run_analysis_request("16T11", "disc", "paper-16t11", "Q")
        assert len(recorded_lps) == 2
        for problem, result in recorded_lps:
            _suites.dense_pivots.clear()
            assert (_suites.dense_lp_solve(problem)
                    == (result.status, result.value, result.assignment))
            assert result.pivots == len(_suites.dense_pivots)

    def test_16t11_balas_shape(self, recorded_lps):
        # 8 regions over 8 variables: the 64 pure rows are shifted out,
        # leaving 24 mixed rows and 8 coupling rows; the columns are 8 lam
        # and the 30 z_{j,v} whose v a mixed row of region j reads (not
        # all 64).  The threshold and the membership LP are both gauge
        # LPs: neither has a convexity row or a scalar column
        run_analysis_request("16T11", "disc", "paper-16t11", "Q")
        shapes = [(len(p.constraints), len(p.variables)) for p, _ in recorded_lps]
        assert shapes == [(32, 38), (32, 38)]

    @pytest.mark.parametrize("request_args,shape,pivots,bits", [
        (("product(4T3,8T11)", "disc", "burgess-yang", "Q"), (1016, 1061), [123, 49], [45, 14]),
        (("product(C2,16T11)", "disc", "burgess-yang", "Q"), (137, 158), [140, 140], [69, 69]),
    ], ids=["largest_lp", "most_pivots"])
    def test_entry_growth(self, monkeypatch, request_args, shape, pivots, bits):
        # a row is made primitive when it pivots, or once its multiple of
        # the Fraction row passes _ROW_SCALE_BITS (64) bits.  Pinned: the
        # bit length of the largest entry of the LP rows and of every row
        # _combine returns, per LP.  product(4T3,8T11) has the largest LPs
        # of this suite and stays below the rule; on product(C2,16T11) the
        # rule holds 159 and 155 bits to 69 (16 and 28 with every row made
        # primitive after each pivot)
        largest, solved = [], []
        combine, solve = hull_lp._combine, hull_lp.lp_solve

        def combining(*args):
            row = combine(*args)
            largest[-1] = max(largest[-1], *(abs(v).bit_length() for v in row.values()))
            return row

        def solving(problem):
            largest.append(max(abs(c).bit_length() for row, _, bound in problem.constraints
                               for c in (bound, *(c for _, c in row))))
            solved.append((problem, solve(problem)))
            return solved[-1][1]

        monkeypatch.setattr(hull_lp, "_combine", combining)
        monkeypatch.setattr(hull_lp, "lp_solve", solving)
        run_analysis_request(*request_args)
        assert [(len(p.constraints), len(p.variables)) for p, _ in solved] == [shape] * 2
        assert [r.pivots for _, r in solved] == pivots
        assert largest == bits

    @pytest.mark.parametrize("scale_bits", [0, 10 ** 6], ids=["every_update", "never"])
    def test_primitive_rule_moves_nothing(self, monkeypatch, recorded_lps, scale_bits):
        # the gauge LPs of product(C2,16T11), where the rule makes rows
        # primitive between pivots: making every updated row primitive, or
        # none until it pivots, gives the same pivots and the same optimum
        run_analysis_request("product(C2,16T11)", "disc", "burgess-yang", "Q")
        monkeypatch.setattr(hull_lp, "_ROW_SCALE_BITS", scale_bits)
        for problem, result in recorded_lps:
            assert lp_solve(problem) == result


# ---------------------------------------------------------------------------
# D4 regions for hull tests
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def d4_regions(d4_quartic, d4_types, cyc_q):
    G = d4_quartic.group
    prof = make_profile("burgess-yang", d4_types, cyc_q)
    by_label = {t.label: t for t in d4_types}
    TB = subgroup_generated(G, by_label["2B"].members)
    TC = subgroup_generated(G, by_label["2C"].members)
    RB = build_region(G, TB, d4_types, prof, cyc_q, name="Omega_B")
    RC = build_region(G, TC, d4_types, prof, cyc_q, name="Omega_C")
    return RB, RC


@pytest.fixture(scope="module")
def d4_disc_regions(d4_quartic, d4_types, cyc_q):
    """The 4T3 regions of a disc analysis under paper-d4, and the weights."""
    G = d4_quartic.group
    wt = resolve_weight("disc", d4_quartic, d4_types)
    prof = make_profile("paper-d4", d4_types, cyc_q)
    regions = [build_region(G, T, d4_types, prof, cyc_q)
               for T in analysis_witnesses(G, d4_types, wt)]
    return regions, wt.weights


@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(999, 1000), Fraction(1001, 1000),
                                   1 + Fraction(1, 2 ** 22)],
                         ids=["1/2", "999/1000", "1001/1000", "1+2^-22"])
def test_margin_lps_match_dense_reference(d4_disc_regions, recorded_lps, scale):
    """The gauge LPs of an open-membership probe at scale * threshold along
    the disc weights: large denominators, unlike the property test's."""
    regions, weights = d4_disc_regions
    threshold = line_threshold(weights, regions)
    member, _ = hull_membership({v: scale * threshold * w for v, w in weights.items()},
                                regions, mode="open")
    assert member == (scale > 1)
    assert len(recorded_lps) == 2
    for problem, result in recorded_lps:
        _suites.dense_pivots.clear()
        assert _suites.dense_lp_solve(problem) == (result.status, result.value, result.assignment)
        assert result.pivots == len(_suites.dense_pivots)


def d4_point(a2, b2, c2, a4):
    return {"2A": Fraction(a2), "2B": Fraction(b2), "2C": Fraction(c2), "4A": Fraction(a4)}


class TestHullMembership:
    def test_deep_interior(self, d4_regions):
        member, cert = hull_membership(d4_point(2, 2, 2, 2), list(d4_regions), mode="open")
        assert member
        assert verify_certificate(cert, list(d4_regions), d4_point(2, 2, 2, 2))

    def test_conductor_pole_point_member(self, d4_regions):
        point = d4_point(2, 1, 1, 2)
        member, cert = hull_membership(point, list(d4_regions), mode="open")
        assert member
        assert cert.epsilon > 0
        assert verify_certificate(cert, list(d4_regions), point)

    def test_quartic_point_below_threshold(self, d4_regions):
        # the quartic line at s = 1/2 sits below the 9/16 threshold
        point = d4_point(1, 1, Fraction(1, 2), Fraction(3, 2))
        member, cert = hull_membership(point, list(d4_regions), mode="open")
        assert not member and cert is None
        member, cert = hull_membership(point, list(d4_regions), mode="closed")
        assert not member

    def test_open_implies_closed(self, d4_regions):
        random.seed(7)
        regions = list(d4_regions)
        for _ in range(25):
            point = d4_point(*(Fraction(random.randint(1, 12), 4) for _ in range(4)))
            open_member, _ = hull_membership(point, regions, mode="open")
            closed_member, _ = hull_membership(point, regions, mode="closed")
            if open_member:
                assert closed_member

    def test_zero_regions_nonmember(self):
        member, cert = hull_membership({"x": Fraction(1)}, [], mode="open")
        assert not member and cert is None

    def test_single_region_reduces_to_feasibility(self, d4_regions):
        RB = d4_regions[0]
        inside = d4_point(1, 1, 2, 2)
        assert RB.slack(inside) > 0
        member, _ = hull_membership(inside, [RB], mode="open")
        assert member
        outside = d4_point(1, 1, 1, 1)  # violates 2C > 1 and the mixed rows of Omega_B
        assert RB.slack(outside) <= 0
        member, _ = hull_membership(outside, [RB], mode="open")
        assert not member

    def test_mixed_variable_indices_rejected(self, d4_regions):
        other = TubularRegion(("x",), [constraint({"x": 1}, 1)])
        with pytest.raises(ValidationError, match="mixed"):
            hull_membership({"x": Fraction(2)}, [d4_regions[0], other])

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_one_lp_per_query(self, d4_regions, recorded_lps, mode):
        regions = list(d4_regions)
        inside = d4_point(2, 1, 1, 2)
        outside = d4_point(1, 1, Fraction(1, 2), Fraction(3, 2))
        for point, expected in ((inside, True), (outside, False)):
            recorded_lps.clear()
            member, _ = hull_membership(point, regions, mode=mode)
            assert member is expected
            assert [r.status for _, r in recorded_lps] == ["optimal"]

    def test_certificate_roundtrip_bit_exact(self, d4_regions):
        point = d4_point(2, 1, 1, 2)
        _, cert = hull_membership(point, list(d4_regions), mode="open")
        again = _suites.certificate_roundtrip(cert, d4_regions[0].variables)
        assert again == cert
        assert verify_certificate(again, list(d4_regions), point)


class TestVerifyCertificateRejects:
    """Certificates that prove nothing about the point."""

    @staticmethod
    def _two_active(regions, weights):
        """A valid open-mode certificate with two active regions, its point
        (11/10 of the threshold along the weights) and the active indices."""
        threshold = line_threshold(weights, regions)
        point = {v: Fraction(11, 10) * threshold * w for v, w in weights.items()}
        _, cert = hull_membership(point, regions, mode="open")
        active = [j for j, lam in enumerate(cert.lambdas) if lam]
        assert len(active) == 2 and verify_certificate(cert, regions, point)
        return cert, point, active

    def test_negative_lambda(self, d4_disc_regions):
        # lambdas 21/20 and -1/20 (sum 1) on a second point 10 higher in each
        # coordinate, the first point solved for: the combination is the point
        regions, weights = d4_disc_regions
        cert, point, (i, j) = self._two_active(regions, weights)
        lambdas, points = list(cert.lambdas), list(cert.points)
        lambdas[i], lambdas[j] = Fraction(21, 20), Fraction(-1, 20)
        points[j] = {v: x + 10 for v, x in points[j].items()}
        points[i] = {v: (point[v] - lambdas[j] * points[j][v]) / lambdas[i] for v in point}
        forged = HullCertificate(tuple(lambdas), tuple(points), cert.epsilon)
        assert not verify_certificate(forged, regions, point)

    def test_lambdas_not_summing_to_one(self, d4_disc_regions):
        # halved lambdas on doubled points: the combination is the point
        regions, weights = d4_disc_regions
        cert, point, _ = self._two_active(regions, weights)
        forged = HullCertificate(
            tuple(lam / 2 for lam in cert.lambdas),
            tuple(None if p is None else {v: 2 * x for v, x in p.items()} for p in cert.points),
            cert.epsilon)
        assert not verify_certificate(forged, regions, point)

    def test_points_not_combining_to_the_point(self, d4_disc_regions):
        # a raised coordinate keeps the point's slack >= epsilon
        regions, weights = d4_disc_regions
        cert, point, (i, _) = self._two_active(regions, weights)
        points = list(cert.points)
        points[i] = {**points[i], "2A": points[i]["2A"] + Fraction(1, 1000)}
        forged = HullCertificate(cert.lambdas, tuple(points), cert.epsilon)
        assert not verify_certificate(forged, regions, point)

    def test_fewer_points_than_lambdas(self, d4_disc_regions):
        # zip would pair 1/2 with 2 * pt and drop the second active region
        regions, _ = d4_disc_regions
        assert len(regions) == 4
        pt = d4_point(2, 2, 2, 2)
        cert = HullCertificate(lambdas=(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)),
                               points=({v: 2 * x for v, x in pt.items()},),
                               epsilon=Fraction(0))
        assert not verify_certificate(cert, regions, pt)

    def test_negative_epsilon(self, d4_disc_regions):
        regions, _ = d4_disc_regions
        pt = d4_point(*[Fraction(1, 10)] * 4)
        assert hull_membership(pt, regions, mode="closed") == (False, None)
        cert = HullCertificate(lambdas=(Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
                               points=(pt, None, None, None), epsilon=Fraction(-100))
        assert not verify_certificate(cert, regions, pt)

    def test_no_regions(self):
        cert = HullCertificate(lambdas=(), points=(), epsilon=Fraction(0))
        assert not verify_certificate(cert, [], {"x": Fraction(2)})

    def test_active_point_without_a_variable(self, d4_disc_regions):
        # a JSON certificate with one key of an active point dropped
        regions, _ = d4_disc_regions
        point = d4_point(2, 2, 2, 2)
        _, cert = hull_membership(point, regions, mode="open")
        data = cert.to_json_dict(regions[0].variables)
        active = next(p for p in data["points"] if p is not None)
        del active["4A"]
        assert not verify_certificate(hull_lp.certificate_from_json(data), regions, point)

    def test_point_not_a_dict(self, d4_disc_regions):
        regions, _ = d4_disc_regions
        pt = d4_point(2, 2, 2, 2)
        for points in [(5, None, None, None), (pt, 5, None, None)]:
            cert = HullCertificate(lambdas=(Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
                                   points=points, epsilon=Fraction(0))
            with pytest.raises(ValidationError, match="a certificate point is a dict"):
                verify_certificate(cert, regions, pt)

    @pytest.mark.parametrize("field, value", [("lambdas", None), ("points", None),
                                              ("epsilon", None), ("lambdas", 1),
                                              ("points", [["2", "2", "2", "2"]]),
                                              ("lambdas", "12"), ("points", "")],
                             ids=["no lambdas", "no points", "no epsilon", "int lambdas",
                                  "list point", "string lambdas", "string points"])
    def test_malformed_json(self, d4_disc_regions, field, value):
        regions, _ = d4_disc_regions
        _, cert = hull_membership(d4_point(2, 2, 2, 2), regions, mode="open")
        data = cert.to_json_dict(regions[0].variables)
        if value is None:
            del data[field]
        else:
            data[field] = value
        with pytest.raises(ValidationError, match="a certificate needs a list of lambdas"):
            hull_lp.certificate_from_json(data)


    @pytest.mark.parametrize("data", [
        {"lambdas": [1.0], "points": [{"x": "1"}], "epsilon": "0"},
        {"lambdas": ["1"], "points": [{"x": 0.1}], "epsilon": "0"},
        {"lambdas": ["1"], "points": [{"x": "1"}], "epsilon": 0},
    ], ids=["float lambda", "float coordinate", "int epsilon"])
    def test_non_string_rational_rejected(self, data):
        # 0.1 would load as 3602879701896397/36028797018963968
        with pytest.raises(ValidationError, match="bad rational literal .*not a string"):
            hull_lp.certificate_from_json(data)


class TestExactPoints:
    """A coordinate or weight is an int or a Fraction: a float would enter
    as its binary value, a bool as 0 or 1 and a string as a parsed literal."""

    region = TubularRegion(("x", "y"), [constraint({"x": 1}, 1), constraint({"y": 1}, 1)])
    values = pytest.mark.parametrize("value", [0.1, True, "3/2"], ids=["float", "bool", "str"])

    @values
    def test_line_threshold(self, value):
        assert line_threshold({"x": Fraction(1, 10), "y": 1}, [self.region]) == 10
        with pytest.raises(ValidationError, match="not an int or a Fraction"):
            line_threshold({"x": value, "y": 1}, [self.region])
        with pytest.raises(ValidationError, match="not an int or a Fraction"):
            line_threshold(lambda v: value, [self.region])

    @values
    def test_hull_membership(self, value):
        assert hull_membership({"x": 2, "y": Fraction(3, 2)}, [self.region])[0]
        with pytest.raises(ValidationError, match="not an int or a Fraction"):
            hull_membership({"x": 2, "y": value}, [self.region])

    @values
    def test_verify_certificate(self, value):
        point = {"x": 2, "y": Fraction(3, 2)}
        _, cert = hull_membership(point, [self.region])
        assert verify_certificate(cert, [self.region], point)
        with pytest.raises(ValidationError, match="not an int or a Fraction"):
            verify_certificate(cert, [self.region], {"x": 2, "y": value})


    def test_a_sequence_is_no_point(self):
        # a point or weight map names its variables: a list in variable order is refused
        point = {"x": 2, "y": Fraction(3, 2)}
        _, cert = hull_membership(point, [self.region])
        with pytest.raises(ValidationError, match="dict"):
            hull_membership([1, 1], [self.region])
        with pytest.raises(ValidationError, match="dict"):
            verify_certificate(cert, [self.region], [1, 1])
        with pytest.raises(ValidationError, match="dict"):
            line_threshold([1, 1], [self.region])


class TestMarginWithoutFloor:
    """The region x > 1: membership is exact at any margin, however small."""

    regions = [TubularRegion(("x",), [constraint({"x": 1}, 1)])]

    def test_tiny_positive_margin_is_open_member(self):
        point = {"x": 1 + Fraction(1, 2 ** 22)}
        member, cert = hull_membership(point, self.regions, mode="open")
        assert member and cert.epsilon == Fraction(1, 2 ** 22)
        assert verify_certificate(cert, self.regions, point)

    def test_boundary_is_closed_member_only(self):
        point = {"x": Fraction(1)}
        assert hull_membership(point, self.regions, mode="open") == (False, None)
        member, cert = hull_membership(point, self.regions, mode="closed")
        assert member and cert.epsilon == 0
        assert verify_certificate(cert, self.regions, point)

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_tiny_negative_margin_is_outside(self, mode):
        point = {"x": 1 - Fraction(1, 2 ** 22)}
        assert hull_membership(point, self.regions, mode=mode) == (False, None)


class TestLineThreshold:
    def test_quartic(self, d4_regions, d4_types):
        wt = weight_discriminant(d4_types, 4)
        assert line_threshold(lambda v: wt.weights[v], list(d4_regions)) == Fraction(9, 16)

    def test_conductor(self, d4_regions, d4_types):
        wt = weight_conductor_d4(d4_types)
        assert line_threshold(lambda v: wt.weights[v], list(d4_regions)) == Fraction(27, 32)

    def test_monotone_in_region_growth(self, d4_regions, d4_types):
        wt = weight_discriminant(d4_types, 4)
        base = line_threshold(lambda v: wt.weights[v], list(d4_regions))
        grown = [TubularRegion(r.variables,  # every bound relaxed by 1/8
                               [constraint(dict(c.coefficients), c.bound - Fraction(1, 8))
                                for c in r.constraints])
                 for r in d4_regions]
        assert line_threshold(lambda v: wt.weights[v], grown) <= base

    def test_weight_scaling(self, d4_regions, d4_types):
        wt = weight_discriminant(d4_types, 4)
        base = line_threshold(lambda v: wt.weights[v], list(d4_regions))
        scaled = line_threshold(lambda v: 3 * wt.weights[v], list(d4_regions))
        assert scaled == base / 3

    def test_weight_map_missing_a_variable_rejected(self, d4_regions):
        with pytest.raises(ValidationError, match="4A"):
            line_threshold({"2A": 1, "2B": 1, "2C": 1}, list(d4_regions))


class TestShortcut2d:
    def test_octic_disc_passes(self, d4_octic, octic_types, cyc_q):
        G = d4_octic.group
        by_label = {t.label: t for t in octic_types}
        TB = subgroup_generated(G, by_label["2B"].members)
        TC = subgroup_generated(G, by_label["2C"].members)
        wt = weight_discriminant(octic_types, 8)
        prof = make_profile("burgess-yang", octic_types, cyc_q)
        res = shortcut_2d(G, TB, TC, wt, octic_types, prof, cyc_q)
        assert res.applicable and res.product == Fraction(9, 64) and res.passes

    def test_lindelof_zero(self, d4_octic, octic_types, cyc_q):
        G = d4_octic.group
        by_label = {t.label: t for t in octic_types}
        TB = subgroup_generated(G, by_label["2B"].members)
        TC = subgroup_generated(G, by_label["2C"].members)
        wt = weight_discriminant(octic_types, 8)
        prof = make_profile("lindelof", octic_types, cyc_q)
        res = shortcut_2d(G, TB, TC, wt, octic_types, prof, cyc_q)
        assert res.applicable and res.product == 0 and res.passes

    def test_convexity_quarter(self, d4_octic, octic_types, cyc_q):
        G = d4_octic.group
        by_label = {t.label: t for t in octic_types}
        TB = subgroup_generated(G, by_label["2B"].members)
        TC = subgroup_generated(G, by_label["2C"].members)
        wt = weight_discriminant(octic_types, 8)
        prof = make_profile("convexity", octic_types, cyc_q)
        res = shortcut_2d(G, TB, TC, wt, octic_types, prof, cyc_q)
        assert res.applicable and res.product == Fraction(1, 4) and res.passes

    def test_inapplicable_split(self, d4_quartic, d4_types, cyc_q):
        # quartic disc: a single minimum type cannot split into two parts
        G = d4_quartic.group
        by_label = {t.label: t for t in d4_types}
        TB = subgroup_generated(G, by_label["2B"].members)
        TC = subgroup_generated(G, by_label["2C"].members)
        wt = weight_discriminant(d4_types, 4)
        prof = make_profile("burgess-yang", d4_types, cyc_q)
        res = shortcut_2d(G, TB, TC, wt, d4_types, prof, cyc_q)
        assert not res.applicable and res.reason

    def test_witnesses_must_be_abelian_normal_subgroups(self, d4_quartic, d4_types, cyc_q):
        # neither <(2,4)> nor <(1,2)(3,4)> is normal in 4T3, and (1,2) lies
        # outside it: the shortcut holds them to build_region's contract
        G = d4_quartic.group
        wt = weight_conductor_d4(d4_types)
        prof = make_profile("paper-d4", d4_types, cyc_q)
        T1 = subgroup_generated(G, [parse_permutation("(2,4)", 4)])
        T2 = subgroup_generated(G, [parse_permutation("(1,2)(3,4)", 4)])
        outside = {G.identity, parse_permutation("(1,2)", 4)}
        with pytest.raises(ContractViolationError, match="abelian normal"):
            build_region(G, T1, d4_types, prof, cyc_q)
        for pair in ((T1, T2), (T2, T1), (outside, T2), (T2, outside)):
            with pytest.raises(ContractViolationError):
                shortcut_2d(G, *pair, wt, d4_types, prof, cyc_q)


class TestConditionalHull:
    def test_coordinate_bound_formula(self):
        # n = 2 covered coordinates at gamma = 1/2: bound 3/4
        sets = [{"a"}, {"b"}]
        assert conditional_hull_point_check(
            {"a": Fraction(4, 5), "b": Fraction(4, 5)}, sets, Fraction(1, 2))
        assert not conditional_hull_point_check(
            {"a": Fraction(3, 4), "b": Fraction(1)}, sets, Fraction(1, 2))

    def test_all_ones_full_coverage(self):
        for gamma in (Fraction(0), Fraction(1, 2), Fraction(9, 10)):
            sets = [{"a", "b", "c"}]
            point = {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)}
            assert conditional_hull_point_check(point, sets, gamma)

    def test_uncovered_at_one_fails(self):
        sets = [{"a"}]
        point = {"a": Fraction(2), "b": Fraction(1)}
        assert not conditional_hull_point_check(point, sets, Fraction(1, 2))

    def test_covered_coordinate_without_value_rejected(self):
        for point in ({}, {"2B": 5}, {"2A": 2, "2B": 5}):
            with pytest.raises(ValidationError, match="2C"):
                conditional_hull_point_check(point, [{"2A"}, {"2C"}], 0)

    @pytest.mark.parametrize("point,gamma", [
        ({"a": 0.76, "b": Fraction(4, 5)}, Fraction(1, 2)),
        ({"a": Fraction(4, 5), "b": 0.76}, Fraction(1, 2)),
        ({"a": Fraction(0), "b": 0.76}, Fraction(1, 2)),
        ({"a": True, "b": Fraction(4, 5)}, Fraction(1, 2)),
        ({"a": Fraction(4, 5), "b": Fraction(4, 5)}, "1/2"),
        ({"a": Fraction(4, 5), "b": Fraction(4, 5)}, 0.5),
        ({"a": Fraction(4, 5), "b": Fraction(4, 5)}, False),
    ], ids=["float_value", "float_second_value", "float_after_a_failing_value", "bool_value",
            "str_gamma", "float_gamma", "bool_gamma"])
    def test_inexact_input_rejected(self, point, gamma):
        # 0.76 > 3/4 as a binary float; True is 1; '1/2' is a string: each
        # must be refused rather than read as a Fraction, whatever the
        # other values decide
        with pytest.raises(ValidationError, match="not an int or a Fraction"):
            conditional_hull_point_check(point, [{"a"}, {"b"}], gamma)


# ---------------------------------------------------------------------------
# dual-route oracles (smoke subsets; the acceptance suite runs them in full)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dimension,region_count,max_mixed,instances,seed", [
    (2, 2, 2, 40, 101),
    (3, 2, 1, 20, 102),
])
def test_balas_agrees_with_caratheodory_oracle(dimension, region_count, max_mixed,
                                               instances, seed):
    ran, disagreements = _suites.run_oracle_case(dimension, region_count, max_mixed,
                                                 instances, seed)
    assert ran == instances and disagreements == 0


# Regions the random oracle never draws (it uses unit pure coefficients
# with bounds in [0, 2]): each exercises one case of the lower-bound shift
# y = lb * lam + z, with lb the largest b/c over a variable's pure rows.
SHIFT_REGIONS = {
    "negative pure bound": TubularRegion(
        ("x", "y"), [constraint({"x": 1}, -1), constraint({"y": 1}, Fraction(1, 2)),
                     constraint({"x": 1, "y": 2}, 2)]),
    "two pure rows on one variable": TubularRegion(
        ("x", "y"), [constraint({"x": 1}, Fraction(1, 4)), constraint({"x": 3}, 2),
                     constraint({"y": 1}, 0), constraint({"x": 2, "y": 1}, 3)]),
    "non-unit pure coefficient": TubularRegion(
        ("x", "y"), [constraint({"x": 2}, 1), constraint({"y": 3}, 1),
                     constraint({"x": 1, "y": 1}, Fraction(3, 2))]),
}
SHIFT_GRID = [Fraction(k, 2) for k in range(-3, 7)]
SHIFT_STEP = Fraction(1, 1024)  # below every positive margin of a grid point here


@pytest.mark.parametrize("names", [(name,) for name in SHIFT_REGIONS] + [tuple(SHIFT_REGIONS)],
                         ids=lambda names: " + ".join(names))
def test_lower_bound_shift_cases_agree_with_caratheodory(names):
    regions = [SHIFT_REGIONS[name] for name in names]
    members = {"open": 0, "closed": 0}
    for x in SHIFT_GRID:
        for y in SHIFT_GRID:
            point = {"x": x, "y": y}
            lowered = {"x": x - SHIFT_STEP, "y": y - SHIFT_STEP}
            closed = _suites.caratheodory_member(point, regions)
            expected = {"closed": closed,
                        "open": closed and _suites.caratheodory_member(lowered, regions)}
            for mode in ("open", "closed"):
                member, cert = hull_membership(point, regions, mode=mode)
                assert member is expected[mode], (mode, point)
                if member:
                    members[mode] += 1
                    assert verify_certificate(cert, regions, point), (mode, point)
                    assert cert.epsilon > 0 if mode == "open" else cert.epsilon >= 0
    assert 0 < members["open"] < members["closed"] < len(SHIFT_GRID) ** 2


# ---------------------------------------------------------------------------
# the gauge LP against the reference formulation (one z per region and
# coordinate, equality coupling rows, a free scalar): the same optimal value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dimension,region_count,max_mixed,instances,seed", _suites.ORACLE_CASES)
def test_balas_matches_reference_on_oracle_regions(dimension, region_count, max_mixed,
                                                   instances, seed):
    compared, mismatches = _suites.run_balas_reference_case(dimension, region_count,
                                                            max_mixed, instances, seed)
    assert compared == 2 * instances and mismatches == 0


@pytest.mark.parametrize("names", [(name,) for name in SHIFT_REGIONS] + [tuple(SHIFT_REGIONS)],
                         ids=lambda names: " + ".join(names))
def test_balas_matches_reference_on_shift_regions(names):
    regions = [SHIFT_REGIONS[name] for name in names]
    for wt in ({"x": Fraction(1), "y": Fraction(1)}, {"x": Fraction(1, 3), "y": Fraction(2)}):
        new, ref = _suites.balas_optima(regions, wt=wt)
        assert new == ref, wt
    # a grid point with a negative coordinate puts the gauge corner
    # point + m * 1 on both sides of a pure lower bound, which no golden
    # or oracle point (all nonnegative) does
    assert min(SHIFT_GRID) < 0
    for x in SHIFT_GRID:
        for y in SHIFT_GRID:
            new, ref = _suites.balas_optima(regions, point={"x": x, "y": y})
            assert new == ref, (x, y)


def _gauge_builds(monkeypatch, requests):
    """(question, regions, base, direction, LPProblem) of every gauge LP
    that the analyses of `requests` (run_analysis_request arguments) build:
    the threshold along each weight line and the membership of each pole
    point."""
    built = []
    line_entry, gauge_problem = hull_lp._line_entry, hull_lp._gauge_problem

    def entering(question, regions, variables, base, direction):
        built.append((question, regions, base, direction))
        return line_entry(question, regions, variables, base, direction)

    def recording(*args):
        problem = gauge_problem(*args)
        built[-1] += (problem,)
        return problem

    monkeypatch.setattr(hull_lp, "_line_entry", entering)
    monkeypatch.setattr(hull_lp, "_gauge_problem", recording)
    for request in requests:
        run_analysis_request(*request)
    monkeypatch.undo()
    return built


def _golden_builds(monkeypatch):
    """The gauge LPs of the golden manifest's analyses (_gauge_builds)."""
    manifest = Path(__file__).parent / "golden" / "golden_manifest.txt"
    return _gauge_builds(monkeypatch, [parts for _, parts in _parse_manifest(manifest)])


def _is_positive_multiple(row, bound, ref_row, ref_bound):
    """Whether (row, bound) = r * (ref_row, ref_bound) for some r > 0, both
    rows sparse (index, coefficient) tuples."""
    if [i for i, _ in row] != [i for i, _ in ref_row]:
        return False
    pairs = [(c, r) for (_, c), (_, r) in zip(row, ref_row)] + [(bound, ref_bound)]
    ratio = next(Fraction(c, r) for c, r in pairs if r)
    return ratio > 0 and all(c == ratio * r for c, r in pairs)


@pytest.mark.parametrize("source", ["golden", "recipe"])
def test_integer_gauge_rows_are_multiples_of_the_fraction_build(monkeypatch, source):
    # _line_entry builds the corner and the coupling rows in integers, one
    # lcm per coordinate; each row is a positive multiple of the row the
    # Fraction formula builds around the same corner, bound sign included,
    # so the simplex takes the same pivots to the same optimum.  The rows
    # are written in stored form, skipping LPProblem's checks: given the
    # same rows as dicts, the public constructor stores the same problem,
    # every coefficient and bound an int
    if source == "golden":
        builds = _golden_builds(monkeypatch)
        assert len(builds) == 12
    else:
        builds = _gauge_builds(monkeypatch, [(*case, "Q") for case in _suites.RECIPE_CASES])
        assert len(builds) == 2 * len(_suites.RECIPE_CASES)
    for question, regions, base, direction, problem in builds:
        public = LPProblem(problem.variables,
                           [(dict(row), rel, bound) for row, rel, bound in problem.constraints],
                           dict(problem.objective))
        assert public == problem, question
        assert all(type(x) is int for row, _, bound in problem.constraints
                   for x in (bound, *(c for _, c in row)))
        m, ref = _suites.ref_gauge_problem(regions, regions[0].variables, base, direction)
        assert (problem.variables, problem.objective) == (ref.variables, ref.objective)
        assert len(problem.constraints) == len(ref.constraints)
        for (row, _, bound), (ref_row, _, ref_bound) in zip(problem.constraints,
                                                            ref.constraints):
            assert _is_positive_multiple(row, bound, ref_row, ref_bound), question
            assert (bound < 0) == (ref_bound < 0)
        # the entry is m + 1/mu*, so the integer corner is the Fraction one
        entry = hull_lp._line_entry(question, regions, regions[0].variables, base, direction)
        result = lp_solve(ref)
        assert entry[:2] == (m - 1 / result.value, -result.value)


def test_balas_matches_reference_on_golden_regions(monkeypatch):
    built = _golden_builds(monkeypatch)
    assert sorted(question for question, *_ in built) == ["membership"] * 6 + ["threshold"] * 6
    for question, regions, base, direction, _ in built:
        if question == "threshold":
            new, ref = _suites.balas_optima(regions, wt=direction)
        else:
            new, ref = _suites.balas_optima(regions, point=base)
        assert new == ref, (question, base, direction)


def test_golden_threshold_lps_make_no_phase_1_pivot(monkeypatch):
    # lp_solve has no phase 1: every golden gauge LP, threshold and
    # membership alike, has only ">=" rows with bound <= 0, so each row
    # starts from its surplus and every pivot improves the objective
    builds = _golden_builds(monkeypatch)
    assert len(builds) == 12
    for _, _, _, _, problem in builds:
        assert all(rel == ">=" and bound <= 0 for _, rel, bound in problem.constraints)
        result = lp_solve(problem)
        assert result.status == "optimal" and -1 <= result.value < 0
        assert result.pivots > 0
        # the value read off the final cost row is the objective at the optimum
        assert result.value == sum(c * result.assignment[problem.variables[i]]
                                   for i, c in problem.objective)


@pytest.mark.parametrize("source", ["cycling", "golden", "oracle"])
def test_lp_solve_leaves_its_problem_unchanged(monkeypatch, source):
    # lp_solve updates its tableau rows in place, so each must be a dict
    # the solve built itself: a solve leaves its problem equal to a deep
    # copy taken before it, and a second solve gives an equal LPResult.
    # The sources: the public constructor over Fractions, every golden
    # gauge LP and every gauge LP of the random-region oracle suite
    recorded = []
    solve = hull_lp.lp_solve

    def recording(problem):
        before = copy.deepcopy(problem)
        recorded.append((before, problem, solve(problem)))
        return recorded[-1][2]

    monkeypatch.setattr(hull_lp, "lp_solve", recording)
    if source == "cycling":
        hull_lp.lp_solve(beale_problem())
        count = 1
    elif source == "golden":
        _golden_builds(monkeypatch)
        count = 12
    else:
        for case in _suites.ORACLE_CASES:
            _suites.run_balas_reference_case(*case)
        count = 2 * sum(case[3] for case in _suites.ORACLE_CASES)
    monkeypatch.undo()
    assert len(recorded) == count
    for before, problem, result in recorded:
        assert problem == before
        assert lp_solve(problem) == result
        assert problem == before


@pytest.mark.parametrize("pure,wt,expected", [
    ({"x": -3, "y": -1}, (1, 1), -1),
    ({"x": 0, "y": 0}, (1, 1), 0),
    ({"x": Fraction(-1, 2), "y": Fraction(-3, 2)}, (1, 2), Fraction(-1, 2)),
])
def test_nonpositive_thresholds_match_reference(pure, wt, expected):
    # m = floor(max_v lb(v) / wt_v) - 1 is negative here, so the gauge rows
    # carry lb - m * wt with both signs of lb
    region = TubularRegion(("x", "y"), [constraint({v: 1}, b) for v, b in pure.items()])
    weights = {"x": Fraction(wt[0]), "y": Fraction(wt[1])}
    assert _suites.balas_optima([region], wt=weights) == (expected, expected)
    mixed = TubularRegion(("x", "y"), [constraint({"x": 1}, -3), constraint({"y": 1}, -2),
                                       constraint({"x": 1, "y": 1}, -4)])
    new, ref = _suites.balas_optima([region, mixed], wt=weights)
    assert new == ref <= expected


def test_conditional_hull_implies_balas_member():
    ran, failures = _suites.run_conditional_hull_draws(60, seed=77)
    assert ran == 60 and failures == 0


def test_rational_string_roundtrip():
    for q in [Fraction(23, 192), Fraction(-5, 3), Fraction(7)]:
        assert parse_rational(rational_str(q)) == q


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

positive_fraction = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8),
                                 max_denominator=16)


@settings(deadline=None, max_examples=30)
@given(scale=positive_fraction,
       weights=st.tuples(positive_fraction, positive_fraction,
                         positive_fraction, positive_fraction))
def test_threshold_scales_inversely(d4_regions, scale, weights):
    regions = list(d4_regions)
    labels = regions[0].variables
    table = dict(zip(labels, weights))
    base = line_threshold(lambda v: table[v], regions)
    scaled = line_threshold(lambda v: scale * table[v], regions)
    assert scaled == base / scale


@settings(deadline=None, max_examples=30)
@given(coords=st.tuples(positive_fraction, positive_fraction,
                        positive_fraction, positive_fraction))
def test_closed_member_certificates_always_verify(d4_regions, coords):
    regions = list(d4_regions)
    point = dict(zip(regions[0].variables, coords))
    member, cert = hull_membership(point, regions, mode="closed")
    if member:
        assert verify_certificate(cert, regions, point)
    else:
        assert cert is None


@settings(deadline=None, max_examples=30)
@given(coords=st.tuples(positive_fraction, positive_fraction,
                        positive_fraction, positive_fraction))
def test_open_member_certificates_have_positive_margin(d4_regions, coords):
    regions = list(d4_regions)
    point = dict(zip(regions[0].variables, coords))
    member, cert = hull_membership(point, regions, mode="open")
    if member:
        assert hull_membership(point, regions, mode="closed")[0]
        assert cert.epsilon > 0
        assert verify_certificate(cert, regions, point)
    else:
        assert cert is None


@settings(deadline=None, max_examples=30)
@given(coords=st.tuples(positive_fraction, positive_fraction,
                        positive_fraction, positive_fraction))
def test_membership_is_a_threshold_of_at_most_one(d4_regions, coords):
    """For p > 0 the hull holds s * p from the threshold of the line s * p
    on (the recession cone is the orthant), so p is a closed member iff the
    threshold is <= 1 and an open member iff it is < 1; threshold * p lies
    on the boundary."""
    regions = list(d4_regions)
    point = dict(zip(regions[0].variables, coords))
    threshold = line_threshold(point, regions)
    assert hull_membership(point, regions, mode="closed")[0] == (threshold <= 1)
    assert hull_membership(point, regions, mode="open")[0] == (threshold < 1)
    boundary = {v: threshold * x for v, x in point.items()}
    assert line_threshold(boundary, regions) == 1
    assert hull_membership(boundary, regions, mode="closed")[0]
    assert not hull_membership(boundary, regions, mode="open")[0]


# ---------------------------------------------------------------------------
# the sparse simplex against the dense reference solver (_suites): the same
# pivots on every origin-feasible LP
# ---------------------------------------------------------------------------

@st.composite
def fractions_over_3(draw, low, high):
    """A fraction in [low, high] with denominator at most 3: the set that
    `st.fractions(low, high, max_denominator=3)` draws, from two integer
    draws at a fraction of its cost."""
    q = draw(st.integers(1, 3))
    return Fraction(draw(st.integers(math.ceil(low * q), math.floor(high * q))), q)


small_fraction = fractions_over_3(-3, 3)


@st.composite
def small_lps(draw):
    """An LPProblem: ">=" rows with bounds in [-3, 0], so the origin is
    feasible, sometimes an all-zero row, and an optional objective; in
    half of the draws every integral entry is an int."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(st.tuples(*[small_fraction] * n), fractions_over_3(-3, 0)),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        rows.append(((Fraction(0),) * n, Fraction(0)))
    objective = draw(st.none() | st.tuples(*[small_fraction] * n))
    if draw(st.booleans()):
        # integral entries as ints: an all-int row enters the tableau as it is
        def exact(x):
            return int(x) if x.denominator == 1 else x
        rows = [(tuple(map(exact, coeffs)), exact(bound)) for coeffs, bound in rows]
        objective = None if objective is None else tuple(map(exact, objective))
    return LPProblem(variables=tuple(f"x{i}" for i in range(n)),
                     constraints=[(dict(enumerate(coeffs)), ">=", bound)
                                  for coeffs, bound in rows],
                     objective=None if objective is None else dict(enumerate(objective)))


@settings(deadline=None, max_examples=300)
@given(problem=small_lps())
def test_sparse_pivot_matches_dense_reference(problem):
    _suites.dense_pivots.clear()
    status, value, assignment = _suites.dense_lp_solve(problem)
    result = lp_solve(problem)
    assert (result.status, result.value, result.assignment) == (status, value, assignment)
    assert result.pivots == len(_suites.dense_pivots)
    if result.status == "optimal":
        assert verify_lp_assignment(problem, result.assignment)
        # the value read off the final cost row is the objective at the optimum
        assert result.value == sum((c * result.assignment[problem.variables[i]]
                                    for i, c in problem.objective or ()), Fraction(0))


def _load_benchmark_lp_shape():
    """The LP-shape counter of the benchmark's tracer (perfbench/tracing.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._lp_shape


benchmark_lp_shape = _load_benchmark_lp_shape()


@settings(deadline=None, max_examples=50)
@given(problem=small_lps(), data=st.data())
def test_explicit_zeros_and_key_order_change_nothing(problem, data):
    """Rows and objective given with explicit zeros and shuffled keys store,
    solve and count like the same maps without the zeros."""
    n = len(problem.variables)

    def noisy(pairs):
        row = dict(pairs)
        row.update((i, Fraction(0)) for i in data.draw(st.sets(st.integers(0, n - 1)))
                   if i not in row)
        return {i: row[i] for i in data.draw(st.permutations(list(row)))}

    clean = LPProblem(problem.variables,
                      [(dict(row), rel, bound) for row, rel, bound in problem.constraints],
                      None if problem.objective is None else dict(problem.objective))
    shuffled = LPProblem(problem.variables,
                         [(noisy(row), rel, bound) for row, rel, bound in problem.constraints],
                         None if problem.objective is None else noisy(problem.objective))
    assert shuffled == clean
    result = lp_solve(shuffled)
    assert result == lp_solve(clean)
    nonzeros = sum(len(row) for row, _, _ in clean.constraints)
    assert benchmark_lp_shape((shuffled,), {}, result)["nnz"] == nonzeros
