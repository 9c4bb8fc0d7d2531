"""Documented refusals: each public entry refuses input outside its contract
with the error type and message it names, and the CLI maps a refused
request to its exit code without a traceback."""
import re
from fractions import Fraction

import pytest

from tamecount import (CyclotomicProfile, Permutation, PermutationGroup, TubularRegion,
                       analyze, conditional_hull_point_check, hull_membership,
                       line_threshold, make_profile, parse_permutation,
                       pointwise_class_centralizer, resolve_entry, weight_conductor_d4,
                       weight_discriminant, weight_inv_gamma, wreath_theta_bound,
                       wreath_theta_from_params, xi_exponent)
from tamecount.cli import main as cli_main
from tamecount.concentration import abelian_invariants, analysis_witnesses
from tamecount.errors import ContractViolationError, ParseError, ValidationError
from tamecount.ramtypes import type_of
from tamecount.regions import constraint, parse_subconvexity_file

Q = CyclotomicProfile.full_q()
D4 = resolve_entry("4T3").group
D4_TYPES = resolve_entry("4T3").types(Q)
Q8C2_TYPES = resolve_entry("8T11").types(Q)
C3 = resolve_entry("C3").group
C3_TYPES = resolve_entry("C3").types(Q)


def _above_one():
    return [TubularRegion(["x"], [constraint({"x": 1}, 1)])]


# each entry: the call, then the error it raises (an exception type, or the
# exit code of a CLI call) and a regular expression its message matches
ENTRIES = {
    "threshold zero weight": (lambda: line_threshold({"x": 0}, _above_one()),
                              ValidationError, "need positive weights"),
    "threshold no regions": (lambda: line_threshold({"x": 1}, []),
                             ValidationError, "no regions given"),
    "membership mode": (lambda: hull_membership({"x": 2}, _above_one(), mode="half-open"),
                        ValidationError, "unknown mode 'half-open'"),
    "conditional gamma 1": (lambda: conditional_hull_point_check({"a": 2}, [{"a"}], 1),
                            ValidationError, r"gamma must lie in \[0, 1\)"),
    "conditional no cover": (lambda: conditional_hull_point_check({"a": 2}, [set()], 0),
                             ValidationError, "no covered coordinates"),
    "profile preset": (lambda: make_profile("subconvex", D4_TYPES, Q),
                       ValidationError, "unknown profile preset 'subconvex'"),
    "profile beta": (lambda: parse_subconvexity_file("alpha * 0\nbeta 2A 0\n", D4_TYPES),
                     ParseError, r"misses beta for \['2C', '2B', '4A'\]"),
    "constraint all zero": (lambda: constraint({"x": 0}, 1),
                            ValidationError, "at least one nonzero coefficient"),
    "region variable": (lambda: TubularRegion(["x"], [constraint({"y": 1}, 1)]),
                        ValidationError, "constraint variable y outside the index"),
    "empty permutation": (lambda: Permutation(()),
                          ValidationError, "degree-0 permutations"),
    "non-bijection": (lambda: Permutation((1, 1)),
                      ValidationError, r"images \(1, 1\) are not a bijection of 1..2"),
    "identity degree 0": (lambda: Permutation.identity(0),
                          ValidationError, "degree must be positive"),
    "parse degree 0": (lambda: parse_permutation("()", 0),
                       ValidationError, "degree must be positive"),
    "generator degree": (lambda: PermutationGroup(3, [Permutation((2, 1))]),
                         ValidationError, "generator degree 2 != group degree 3"),
    "empty centralizer": (lambda: pointwise_class_centralizer(D4, []),
                          ValidationError, "centralizer of an empty set"),
    "units without 1": (lambda: CyclotomicProfile({4: [3]}),
                        ValidationError, "U_4 must contain 1"),
    "float unit": (lambda: CyclotomicProfile({4: [1.5, 3]}),
                   ValidationError, r"U_4 must be a collection of ints, not \[1.5, 3\]"),
    "bool unit": (lambda: CyclotomicProfile({4: [True, 3]}),
                  ValidationError, r"U_4 must be a collection of ints, not \[True, 3\]"),
    "string unit": (lambda: CyclotomicProfile({4: ["3", 1]}),
                    ValidationError, r"U_4 must be a collection of ints, not \['3', 1\]"),
    "letter unit": (lambda: CyclotomicProfile({4: ["x"]}),
                    ValidationError, r"U_4 must be a collection of ints, not \['x'\]"),
    "units not a collection": (lambda: CyclotomicProfile({4: 3}),
                               ValidationError, "U_4 must be a collection of ints, not 3"),
    "bool modulus": (lambda: CyclotomicProfile({True: [1]}),
                     ValidationError, "modulus True is not an int"),
    "float modulus": (lambda: CyclotomicProfile({4.0: [1, 3]}),
                      ValidationError, r"modulus 4\.0 is not an int"),
    # U_6, U_12 and U_12 fail against U_3, U_3 and U_4: the first pair is named
    "profile incompatible": (
        lambda: CyclotomicProfile({3: [1], 4: [1]}).validate_for_exponent(12),
        ValidationError, r"^profile incompatible: U_6 reduces outside U_3$"),
    "type of identity": (lambda: type_of(D4_TYPES, D4.identity),
                         ValidationError, "lies in no tame type"),
    "disc degree": (lambda: weight_discriminant(D4_TYPES, 8),
                    ValidationError, "types and degree disagree"),
    "conductor on 8T11": (lambda: weight_conductor_d4(Q8C2_TYPES),
                          ValidationError, "conductor table is defined for the D4"),
    "inv-gamma on 8T11": (lambda: weight_inv_gamma(Q8C2_TYPES, 1),
                          ValidationError, "inv-gamma weights are defined for the D4"),
    "inv-gamma gamma 0": (lambda: weight_inv_gamma(D4_TYPES, 0),
                          ValidationError, "gamma must be positive"),
    "witnesses of C3": (lambda: analysis_witnesses(C3, C3_TYPES,
                                                   weight_discriminant(C3_TYPES, 3)),
                        ValidationError, "no abelian normal witnesses exist"),
    "nonabelian invariants": (lambda: abelian_invariants(D4, D4.generators),
                              ContractViolationError, "abelian invariants of a nonabelian set"),
    "theta m 0": (lambda: wreath_theta_from_params(8, 2, 16, 0, 1),
                  ValidationError, "block count and field degree must be positive"),
    "theta no witnesses": (lambda: wreath_theta_bound(D4, [], 1, 1),
                           ValidationError, "at least one witness is required"),
    "xi no regions": (lambda: xi_exponent([], [], {}, {}, Fraction(1)),
                      ValidationError, "no regions given"),
    "analyze no witnesses": (
        lambda: analyze(D4, D4_TYPES, weight_discriminant(D4_TYPES, 4), [],
                        make_profile("paper-d4", D4_TYPES, Q), Q),
        ValidationError, "at least one abelian normal witness is required"),
    "batch missing manifest": (lambda: cli_main(["batch", "missing.manifest"]),
                               1, "manifest missing.manifest does not exist"),
    "unknown profile": (lambda: cli_main(["analyze", "4T3", "--weight", "disc",
                                          "--profile", "missing.profile"]),
                        2, "unknown profile spec 'missing.profile'"),
    "missing witnesses": (lambda: cli_main(["analyze", "4T3", "--weight", "disc",
                                            "--witnesses", "missing.wit"]),
                          2, "witness file missing.wit does not exist"),
}


@pytest.mark.parametrize("name", ENTRIES)
def test_refusal(name, tmp_path, monkeypatch, capsys):
    call, error, message = ENTRIES[name]
    monkeypatch.chdir(tmp_path)  # the CLI rows name files that do not exist
    if isinstance(error, int):
        assert call() == error
        err = capsys.readouterr().err
        assert re.search(message, err) and "Traceback" not in err, err
    else:
        with pytest.raises(error, match=message):
            call()
