"""The exact-number boundary: every public entry that takes a number reads
an int or a Fraction exactly and refuses anything else (hull_lp.exact)."""
from fractions import Fraction

import pytest

from tamecount import (CyclotomicProfile, analyze, d4_gamma_family, direct_product_condition,
                       hull_membership, line_threshold, make_profile, resolve_entry,
                       weight_custom, weight_discriminant, weight_inv_gamma,
                       wreath_theta_from_params)
from tamecount.concentration import analysis_witnesses
from tamecount.errors import ValidationError
from tamecount.hull_lp import (HullCertificate, LPProblem, conditional_hull_point_check,
                               verify_certificate)
from tamecount.ramtypes import WeightFunction
from tamecount.regions import LinearConstraint, SubconvexityProfile, TubularRegion, constraint

Q = CyclotomicProfile.full_q()
D4_TYPES = resolve_entry("4T3").types(Q)


def _above_one():
    return [TubularRegion(["x"], [constraint({"x": 1}, 1)])]


def _verify_one(lam=1, coordinate=2, epsilon=0):
    """verify_certificate on the point x = 2 of the region x > 1 (slack 1),
    certified by one point with the given lambda, coordinate and epsilon."""
    cert = HullCertificate(lambdas=(lam,), points=({"x": coordinate},), epsilon=epsilon)
    return verify_certificate(cert, _above_one(), {"x": 2})


def _d4_weights(w):
    return {"2A": w, "2B": 1, "2C": 1, "4A": 1}


# each entry: the call that reads the number x, then (x, what the call
# returns) for an int x and for a Fraction x
ENTRIES = {
    "constraint coefficient": (lambda x: constraint({"x": x}, 1).coefficients,
                               [(2, (("x", 2),)), (Fraction(1, 3), (("x", Fraction(1, 3)),))]),
    "constraint bound": (lambda x: constraint({"x": 1}, x).bound,
                         [(2, 2), (Fraction(1, 3), Fraction(1, 3))]),
    "region coefficient": (
        lambda x: TubularRegion(["x"], [LinearConstraint((("x", x),), 1)]).pure_lower_bound("x"),
        [(2, Fraction(1, 2)), (Fraction(1, 3), 3)]),
    "region bound": (
        lambda x: TubularRegion(["x"], [LinearConstraint((("x", 1),), x)]).pure_lower_bound("x"),
        [(2, 2), (Fraction(1, 3), Fraction(1, 3))]),
    "LP coefficient": (lambda x: LPProblem(("y",), [({0: x}, ">=", 0)]).constraints[0][0],
                       [(2, ((0, 2),)), (Fraction(1, 3), ((0, Fraction(1, 3)),))]),
    "LP bound": (lambda x: LPProblem(("y",), [({0: 1}, ">=", x)]).constraints[0][2],
                 [(-1, -1), (Fraction(-1, 3), Fraction(-1, 3))]),
    "hull point": (lambda x: hull_membership({"x": x}, _above_one())[0],
                   [(1, False), (Fraction(4, 3), True)]),
    "threshold weight": (lambda x: line_threshold({"x": x}, _above_one()),
                         [(2, Fraction(1, 2)), (Fraction(1, 3), 3)]),
    "certificate lambda": (lambda x: _verify_one(lam=x),
                           [(1, True), (Fraction(1, 3), False)]),
    "certificate coordinate": (lambda x: _verify_one(coordinate=x),
                               [(2, True), (Fraction(3, 2), False)]),
    "certificate epsilon": (lambda x: _verify_one(epsilon=x),
                            [(2, False), (Fraction(1, 3), True)]),
    "conditional gamma": (
        lambda x: conditional_hull_point_check({"a": Fraction(1, 3)}, [{"a"}], x),
        [(0, True), (Fraction(1, 3), False)]),
    "conditional coordinate": (
        lambda x: conditional_hull_point_check({"a": x}, [{"a"}], Fraction(1, 3)),
        [(1, True), (Fraction(1, 3), False)]),
    "profile gamma": (lambda x: SubconvexityProfile("p", x, {"a": 0}, None).gamma,
                      [(0, 0), (Fraction(1, 3), Fraction(1, 3))]),
    "profile alpha": (lambda x: SubconvexityProfile("p", 0, {"a": x}, None).alpha_of("a"),
                      [(1, 1), (Fraction(1, 3), Fraction(1, 3))]),
    "profile beta": (lambda x: SubconvexityProfile("p", 0, {"a": 0}, {"a": x}).beta["a"],
                     [(1, 1), (Fraction(1, 3), Fraction(1, 3))]),
    "make_profile gamma": (lambda x: make_profile("lindelof", D4_TYPES, Q, gamma=x).name,
                           [(0, "lindelof(0)"), (Fraction(1, 3), "lindelof(1/3)")]),
    "WeightFunction": (lambda x: WeightFunction("w", {"a": x})("a"),
                       [(2, 2), (Fraction(1, 3), Fraction(1, 3))]),
    "weight_custom": (lambda x: weight_custom(_d4_weights(x), D4_TYPES)("2A"),
                      [(2, 2), (Fraction(1, 3), Fraction(1, 3))]),
    "weight_inv_gamma": (lambda x: weight_inv_gamma(D4_TYPES, x)("2B"),
                         [(1, 2), (Fraction(1, 5), Fraction(6, 5))]),
    "d4_gamma_family": (lambda x: d4_gamma_family(x).threshold,
                        [(1, Fraction(9, 16)), (Fraction(1, 4), Fraction(3, 4))]),
    "wreath_theta_from_params": (lambda x: wreath_theta_from_params(8, x, 16, 1, 1),
                                 [(2, 4), (Fraction(8, 3), 3)]),
    "direct_product a(N)": (lambda x: direct_product_condition(8, 1, x, 1).cap_exponent,
                            [(4, 2), (Fraction(8, 3), 3)]),
    "direct_product a(B)": (lambda x: direct_product_condition(8, 4, 4, x).passes,
                            [(2, False), (Fraction(7, 3), True)]),
}


@pytest.mark.parametrize("bad", [0.5, True, "1/2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_inexact_number_refused(entry, bad):
    call, _ = ENTRIES[entry]
    with pytest.raises(ValidationError, match="not an int or a Fraction"):
        call(bad)


@pytest.mark.parametrize("entry", ENTRIES)
def test_int_and_fraction_read_exactly(entry):
    call, cases = ENTRIES[entry]
    assert [type(x) for x, _ in cases] == [int, Fraction]
    for x, expected in cases:
        assert call(x) == expected, x


def test_weights_are_stored_as_fractions():
    wt = WeightFunction("w", {"a": 2, "b": Fraction(1, 3)})
    assert all(type(w) is Fraction for w in wt.weights.values())


def test_int_weights_give_the_fraction_report():
    # 1 / a_inv made sigma_a a float when a weight was an int
    entry = resolve_entry("4T3")
    fractions = weight_discriminant(D4_TYPES, 4)
    ints = WeightFunction(fractions.name, {lab: int(w) for lab, w in fractions.weights.items()})
    profile = make_profile("burgess-yang", D4_TYPES, Q)
    reports = [analyze(entry.group, D4_TYPES, wt, analysis_witnesses(entry.group, D4_TYPES, wt),
                       profile, Q, group_label="4T3").to_json_dict() for wt in (ints, fractions)]
    assert reports[0] == reports[1]
