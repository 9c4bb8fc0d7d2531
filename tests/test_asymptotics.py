"""Malle reports: thresholds, xi, b-brackets, the gamma family, analyze."""
from fractions import Fraction

import pytest

from tamecount import (analyze, b_bounds, d4_gamma_family, make_profile,
                       pole_order_bound, weight_conductor_d4, weight_discriminant,
                       weight_inv_gamma, weight_product_ramified, xi_exponent)
from tamecount.asymptotics import (VERDICT_ASYMPTOTIC, VERDICT_HULL_TOO_SMALL,
                                   VERDICT_POWER_SAVING)
from tamecount.catalog import resolve_entry, resolve_weight
from tamecount.cli import run_analysis_request
from tamecount.concentration import analysis_witnesses, classify
from tamecount.errors import ValidationError
from tamecount.hull_lp import verify_certificate
from tamecount.perm import is_nilpotent, upper_central_series
from tamecount.regions import SubconvexityProfile, build_region, witness_type_labels


def run(entry, types, wspec, profile_name, cyc, witnesses=None, gamma=None):
    if wspec == "disc":
        wt = weight_discriminant(types, entry.group.degree)
    elif wspec == "cond":
        wt = weight_conductor_d4(types)
    elif wspec == "prodram":
        wt = weight_product_ramified(types)
    else:
        wt = wspec
    prof = make_profile(profile_name, types, cyc, gamma=gamma)
    if witnesses is None:
        witnesses = analysis_witnesses(entry.group, types, wt)
    return analyze(entry.group, types, wt, witnesses, prof, cyc,
                   group_label=entry.label,
                   weight_name=wspec if isinstance(wspec, str) else wt.name)


class TestPaperAnalyses:
    def test_4t3_quartic(self, d4_quartic, d4_types, cyc_q):
        rep = run(d4_quartic, d4_types, "disc", "paper-d4", cyc_q)
        assert rep.threshold == Fraction(9, 16)
        assert rep.delta == Fraction(7, 16)
        assert rep.xi == Fraction(3, 8)
        assert rep.power_saving_exponent == Fraction(15, 22)
        assert (rep.b_low, rep.b_high) == (1, 1)
        assert rep.verdict == VERDICT_POWER_SAVING

    def test_d4_conductor(self, d4_quartic, d4_types, cyc_q):
        rep = run(d4_quartic, d4_types, "cond", "paper-d4", cyc_q)
        assert rep.threshold == Fraction(27, 32)
        assert rep.delta == Fraction(5, 32)
        assert rep.xi == Fraction(3, 8)
        assert rep.power_saving_exponent == Fraction(39, 44)

    def test_8t4_octic(self, d4_octic, octic_types, cyc_q):
        rep = run(d4_octic, octic_types, "disc", "paper-d4", cyc_q)
        assert rep.threshold == Fraction(27, 128)
        assert rep.delta == Fraction(5, 128)
        assert rep.xi == Fraction(41, 96)
        assert rep.power_saving_exponent == Fraction(61, 274)
        assert (rep.b_low, rep.b_high) == (2, 3)  # deg P8 in [1, 2]

    def test_8t11(self, q8c2_deg8, cyc_q):
        types = q8c2_deg8.types(cyc_q)
        rep = run(q8c2_deg8, types, "disc", "paper-16t11", cyc_q)
        assert rep.threshold == Fraction(23, 80)
        assert rep.delta == Fraction(17, 80)
        assert rep.xi == Fraction(3, 8)
        assert rep.power_saving_exponent == Fraction(19, 55)

    def test_16t11(self, q8c2_deg16, t16_types, cyc_q):
        rep = run(q8c2_deg16, t16_types, "disc", "paper-16t11", cyc_q)
        assert rep.threshold == Fraction(23, 192)
        assert rep.delta == Fraction(1, 192)
        assert rep.xi == Fraction(7, 18)
        assert rep.power_saving_exponent == Fraction(97, 800)
        assert (rep.b_low, rep.b_high) == (2, 4)  # deg P16 in [1, 3]
        assert rep.published_check == "matches-published"

    def test_explicit_witnesses_match_spec_example(self, d4_quartic, d4_types, cyc_q):
        # {T_B, T_C} alone already give the worked numbers
        from tamecount.perm import subgroup_generated
        G = d4_quartic.group
        by_label = {t.label: t for t in d4_types}
        wits = [subgroup_generated(G, by_label["2B"].members),
                subgroup_generated(G, by_label["2C"].members)]
        rep = run(d4_quartic, d4_types, "disc", "paper-d4", cyc_q, witnesses=wits)
        assert rep.delta == Fraction(7, 16) and rep.xi == Fraction(3, 8)
        assert rep.power_saving_exponent == Fraction(15, 22)

    def test_certificate_verifies(self, q8c2_deg16, t16_types, cyc_q):
        rep = run(q8c2_deg16, t16_types, "disc", "paper-16t11", cyc_q)
        wt = weight_discriminant(t16_types, 16)
        prof = make_profile("paper-16t11", t16_types, cyc_q)
        wits = analysis_witnesses(q8c2_deg16.group, t16_types, wt)
        regions = [build_region(q8c2_deg16.group, W, t16_types, prof, cyc_q)
                   for W in wits]
        assert rep.certificate is not None
        assert verify_certificate(rep.certificate, regions, rep.pole_point)


class TestVerdicts:
    def test_success_invariants(self, d4_quartic, d4_types, cyc_q):
        rep = run(d4_quartic, d4_types, "disc", "burgess-yang", cyc_q)
        assert rep.delta > 0
        assert rep.power_saving_exponent < rep.sigma_a
        assert rep.b_low <= rep.b_high

    def test_hull_too_small(self, d4_quartic, d4_types, cyc_q):
        # prodram over the two order-4 witnesses alone: the 4A direction
        # stays pinned at 1 and the pole point sits on the boundary
        from tamecount.perm import subgroup_generated
        G = d4_quartic.group
        by_label = {t.label: t for t in d4_types}
        wits = [subgroup_generated(G, by_label["2B"].members),
                subgroup_generated(G, by_label["2C"].members)]
        rep = run(d4_quartic, d4_types, "prodram", "burgess-yang", cyc_q, witnesses=wits)
        assert rep.verdict == VERDICT_HULL_TOO_SMALL
        assert rep.delta <= 0
        assert rep.certificate is None
        assert rep.power_saving_exponent is None
        assert rep.threshold == 1 == rep.sigma_a

    def test_full_witness_family_rescues_prodram(self, d4_quartic, d4_types, cyc_q):
        # D4 has nilpotency class 2: its abelian normal subgroups cover it,
        # so with all four witnesses every inertial invariant succeeds
        rep = run(d4_quartic, d4_types, "prodram", "burgess-yang", cyc_q)
        assert rep.verdict == VERDICT_POWER_SAVING
        assert rep.delta > 0

    def test_lindelof_rescues_prodram(self, d4_quartic, d4_types, cyc_q):
        # with alpha = 0 the full coverage of D4 makes every invariant work
        rep = run(d4_quartic, d4_types, "prodram", "lindelof", cyc_q,
                  gamma=Fraction(1, 2))
        assert rep.verdict == VERDICT_POWER_SAVING
        assert rep.delta > 0

    def test_no_t_aspect_gives_asymptotic_only(self, d4_quartic, d4_types, cyc_q):
        alpha = {t.label: Fraction(3, 8) for t in d4_types}
        prof = SubconvexityProfile("conductor-only", Fraction(1, 2), alpha, None)
        wt = weight_discriminant(d4_types, 4)
        wits = analysis_witnesses(d4_quartic.group, d4_types, wt)
        rep = analyze(d4_quartic.group, d4_types, wt, wits, prof, cyc_q,
                      group_label="4T3", weight_name="disc")
        assert rep.verdict == VERDICT_ASYMPTOTIC
        assert rep.xi is None and rep.power_saving_exponent is None
        assert rep.threshold == Fraction(9, 16)

    def test_exponent_monotone_in_beta(self, d4_quartic, d4_types, cyc_q):
        # larger beta -> larger xi -> weaker (larger) exponent
        wt = weight_discriminant(d4_types, 4)
        wits = analysis_witnesses(d4_quartic.group, d4_types, wt)
        alpha = {t.label: Fraction(3, 8) for t in d4_types}
        exps = []
        for scale in (Fraction(1, 2), Fraction(1), Fraction(2)):
            beta = {t.label: scale for t in d4_types}
            prof = SubconvexityProfile(f"b{scale}", Fraction(1, 2), alpha, beta)
            rep = analyze(d4_quartic.group, d4_types, wt, wits, prof, cyc_q,
                          group_label="4T3", weight_name="disc")
            exps.append(rep.power_saving_exponent)
        assert exps[0] < exps[1] < exps[2]

    def test_exponent_monotone_in_gamma_edge(self, d4_quartic, d4_types, cyc_q):
        # relaxing the validity edge gamma widens delta and shrinks the exponent
        wt = weight_discriminant(d4_types, 4)
        wits = analysis_witnesses(d4_quartic.group, d4_types, wt)
        exps = []
        for gamma in (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)):
            prof = make_profile("lindelof", d4_types, cyc_q, gamma=gamma)
            rep = analyze(d4_quartic.group, d4_types, wt, wits, prof, cyc_q,
                          group_label="4T3", weight_name="disc")
            exps.append(rep.power_saving_exponent)
        assert exps[0] > exps[1] > exps[2]


class TestPaperCheck:
    def test_flag_branches(self, d4_quartic, d4_types, cyc_q):
        from tamecount.perm import subgroup_generated
        G = d4_quartic.group
        by_label = {t.label: t for t in d4_types}
        wits = [subgroup_generated(G, by_label["2B"].members),
                subgroup_generated(G, by_label["2C"].members)]
        wt = weight_discriminant(d4_types, 4)
        prof = make_profile("paper-d4", d4_types, cyc_q)

        def with_baseline(threshold, exponent):
            return analyze(G, d4_types, wt, wits, prof, cyc_q, group_label="4T3",
                           weight_name="disc",
                           baselines={("4T3", "disc"): (threshold, exponent)})

        assert with_baseline(Fraction(9, 16), Fraction(15, 22)).published_check == "matches-published"
        assert with_baseline(Fraction(5, 8), Fraction(15, 22)).published_check == "exceeds-published"
        assert with_baseline(Fraction(1, 2), Fraction(1, 2)).published_check == "below-published"

    def test_restricted_profile_not_compared(self, q8c2_deg16, cyc_q):
        from tamecount.ramtypes import CyclotomicProfile
        qi = CyclotomicProfile({4: {1}}, name="Q(i)")
        entry = q8c2_deg16
        types = entry.types(qi)
        wt = weight_discriminant(types, 16)
        prof = make_profile("paper-16t11", types, qi)
        wits = analysis_witnesses(entry.group, types, wt)
        rep = analyze(entry.group, types, wt, wits, prof, qi,
                      group_label="16T11", weight_name="disc")
        assert rep.published_check is None
        assert rep.threshold == Fraction(23, 192)


class TestXiExponent:
    def test_d4_quartic_pointwise_term_vanishes(self, d4_quartic, d4_types, cyc_q):
        wt = weight_discriminant(d4_types, 4)
        prof = make_profile("burgess-yang", d4_types, cyc_q)
        wits = analysis_witnesses(d4_quartic.group, d4_types, wt)
        from tamecount.regions import witness_type_labels
        regions = [build_region(d4_quartic.group, W, d4_types, prof, cyc_q)
                   for W in wits]
        sets = [frozenset(witness_type_labels(W, d4_types)) for W in wits]
        wt_map = {t.label: wt(t) for t in d4_types}
        assert xi_exponent(regions, sets, prof.beta, wt_map,
                           Fraction(9, 16)) == Fraction(3, 8)

    def test_8t4_pointwise_term_contributes(self, d4_octic, octic_types, cyc_q):
        wt = weight_discriminant(octic_types, 8)
        prof = make_profile("burgess-yang", octic_types, cyc_q)
        wits = analysis_witnesses(d4_octic.group, octic_types, wt)
        from tamecount.regions import witness_type_labels
        regions = [build_region(d4_octic.group, W, octic_types, prof, cyc_q)
                   for W in wits]
        sets = [frozenset(witness_type_labels(W, octic_types)) for W in wits]
        wt_map = {t.label: wt(t) for t in octic_types}
        xi = xi_exponent(regions, sets, prof.beta, wt_map, Fraction(27, 128))
        assert xi == Fraction(3, 8) + Fraction(1, 3) * Fraction(5, 32) == Fraction(41, 96)

    def test_xi_nonincreasing_in_threshold(self, d4_octic, octic_types, cyc_q):
        wt = weight_discriminant(octic_types, 8)
        prof = make_profile("burgess-yang", octic_types, cyc_q)
        wits = analysis_witnesses(d4_octic.group, octic_types, wt)
        from tamecount.regions import witness_type_labels
        regions = [build_region(d4_octic.group, W, octic_types, prof, cyc_q)
                   for W in wits]
        sets = [frozenset(witness_type_labels(W, octic_types)) for W in wits]
        wt_map = {t.label: wt(t) for t in octic_types}
        values = [xi_exponent(regions, sets, prof.beta, wt_map, s)
                  for s in (Fraction(1, 8), Fraction(27, 128), Fraction(1, 4), Fraction(1))]
        assert all(a >= b for a, b in zip(values, values[1:]))


    def test_one_witness_type_set_per_region(self, d4_quartic, d4_types, cyc_q):
        # 4T3 disc paper-d4 has four regions; one set used to give xi = 0
        # (not 3/8) and four sets per region an IndexError
        wt = weight_discriminant(d4_types, 4)
        prof = make_profile("paper-d4", d4_types, cyc_q)
        wt_map = {t.label: wt(t) for t in d4_types}
        G = d4_quartic.group
        wits = analysis_witnesses(G, d4_types, wt)
        regions = [build_region(G, W, d4_types, prof, cyc_q) for W in wits]
        sets = [frozenset(witness_type_labels(W, d4_types)) for W in wits]
        assert len(regions) == 4
        assert xi_exponent(regions, sets, prof.beta, wt_map, Fraction(9, 16)) == Fraction(3, 8)
        for bad in (sets[:1], [], sets + sets[:1]):
            with pytest.raises(ValidationError, match="one witness type set per region"):
                xi_exponent(regions, bad, prof.beta, wt_map, Fraction(9, 16))
        with pytest.raises(ValidationError, match="one witness type set per region"):
            xi_exponent(regions[:1], sets, prof.beta, wt_map, Fraction(9, 16))


class TestBBounds:
    def test_single_witness_collapses(self, d4_quartic, d4_types, cyc_q):
        wt = weight_discriminant(d4_types, 4)
        pole = {t.label: pole_order_bound(t, d4_quartic.group, cyc_q) for t in d4_types}
        low, high = b_bounds(wt, d4_types, [frozenset({"2A", "2C"})], pole)
        assert low == high == 1

    def test_16t11_bracket(self, q8c2_deg16, t16_types, cyc_q):
        wt = weight_discriminant(t16_types, 16)
        pole = {t.label: pole_order_bound(t, q8c2_deg16.group, cyc_q) for t in t16_types}
        sets = [frozenset({"2A", "2B"}), frozenset({"2A", "2C"}), frozenset({"2A", "2D"})]
        assert b_bounds(wt, t16_types, sets, pole) == (2, 4)


class TestGammaFamily:
    def test_exponent_formula(self):
        for gamma in (Fraction(1, 8), Fraction(1, 5), Fraction(1, 4)):
            res = d4_gamma_family(gamma)
            assert res.power_saving_exponent == Fraction(39 + 6 * gamma, 44 + 22 * gamma)

    def test_gamma_to_zero_limit_is_conductor_exponent(self):
        res = d4_gamma_family(Fraction(1, 10 ** 9))
        target = Fraction(39, 44)
        assert abs(res.power_saving_exponent - target) < Fraction(1, 10 ** 6)

    def test_threshold(self):
        assert d4_gamma_family(Fraction(1, 4)).threshold == Fraction(27, 36)
        assert d4_gamma_family(Fraction(11, 8)).threshold == Fraction(1, 2)

    def test_visibility_verdicts(self):
        assert d4_gamma_family(Fraction(1, 5)).secondary_visible       # -4/25 < 0
        assert not d4_gamma_family(Fraction(1, 4)).secondary_visible   # 9/8 > 0

    def test_quadratic_sign_is_the_criterion(self):
        for num in range(1, 12):
            gamma = Fraction(num, 40)
            quad = 6 * gamma * gamma + 23 * gamma - 5
            assert d4_gamma_family(gamma).secondary_visible == (quad < 0)

    def test_gamma_zero_is_the_conductor(self):
        res = d4_gamma_family(Fraction(0))
        assert res.power_saving_exponent == Fraction(39, 44)
        assert res.threshold == Fraction(27, 32)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            d4_gamma_family(Fraction(-1, 8))
        with pytest.raises(ValidationError):
            d4_gamma_family(Fraction(3, 2))

    def test_generic_pipeline_reproduces_family(self, d4_quartic, d4_types, cyc_q):
        # the hand formula must coincide with the full region/hull machinery
        for gamma in (Fraction(1, 8), Fraction(1, 5), Fraction(1, 2), Fraction(1)):
            wt = weight_inv_gamma(d4_types, gamma)
            rep = run(d4_quartic, d4_types, wt, "paper-d4", cyc_q)
            family = d4_gamma_family(gamma)
            assert rep.threshold == family.threshold
            assert rep.power_saving_exponent == family.power_saving_exponent


# the abstract's class-2 claim: under Lindelof every group of nilpotency
# class 2 has an asymptotic with a power-saving error term
CLASS_2_GROUPS = ["4T3", "8T4", "8T11", "16T11", "product(C2,4T3)", "product(4T3,C3)",
                  "product(C4,4T3)", "product(C2,8T11)"]


def lindelof_run(spec, cyc_q):
    """The group, classify's verdict and the Lindelof report of `spec` under
    disc, with whether the report's certificate verifies against the
    regions of the default witnesses."""
    entry = resolve_entry(spec)
    G = entry.group
    types = entry.types(cyc_q)
    wt = resolve_weight("disc", entry, types)
    rep = run_analysis_request(spec, "disc", "lindelof", "Q")
    prof = make_profile("lindelof", types, cyc_q)
    regions = [build_region(G, T, types, prof, cyc_q)
               for T in analysis_witnesses(G, types, wt)]
    return G, classify(G, wt, types), rep, verify_certificate(rep.certificate, regions,
                                                              rep.pole_point)


def nilpotency_class(G):
    series = upper_central_series(G)
    return len(series) - 1 if len(series[-1]) == G.order else None


@pytest.mark.parametrize("spec", CLASS_2_GROUPS)
def test_class_2_groups_have_power_saving_under_lindelof(spec, cyc_q):
    G, verdict, rep, verified = lindelof_run(spec, cyc_q)
    assert nilpotency_class(G) == 2
    assert verdict.status != "not-semiconcentrated" and verdict.witnesses
    assert rep.verdict == VERDICT_POWER_SAVING and rep.delta > 0
    assert verified


# covered groups outside class 2 get delta > 0 under Lindelof as well:
# spec -> (delta, nilpotent).  The abstract promises power saving "when G is
# nilpotent", and analyze reports it whenever delta > 0, so the verdict is
# pinned for the nilpotent group only
OUTSIDE_CLASS_2 = {"wreath(C2,C3)": (Fraction(1, 2), False),
                   "product(S3,4T3)": (Fraction(1, 12), False),
                   "wreath(C2,C4)": (Fraction(1, 2), True)}


@pytest.mark.parametrize("spec", OUTSIDE_CLASS_2)
def test_covered_groups_outside_class_2_have_delta_under_lindelof(spec, cyc_q):
    delta, nilpotent = OUTSIDE_CLASS_2[spec]
    G, verdict, rep, verified = lindelof_run(spec, cyc_q)
    assert nilpotency_class(G) != 2 and is_nilpotent(G) == nilpotent
    assert verdict.status != "not-semiconcentrated" and verdict.witnesses
    assert rep.delta == delta > 0
    assert verified
    if nilpotent:
        assert rep.verdict == VERDICT_POWER_SAVING
