"""Acceptance suite: every criterion at its stated tolerance.

All comparisons are exact rational equality.  Each criterion prints one
PASS/FAIL line (run pytest with -s to see them inline).
"""
from fractions import Fraction

import pytest

import _suites
from tamecount import (CyclotomicProfile, analyze, build_region, d4_gamma_family,
                       hull_membership, index_of, line_threshold, make_profile,
                       resolve_entry, shortcut_2d, weight_conductor_d4,
                       weight_discriminant, wreath_theta_from_params,
                       wreath_theta_bound)
from tamecount.perm import subgroup_generated
from tamecount.regions import constraint

CYC = CyclotomicProfile.full_q()


def report(criterion, name, ok):
    print(f"ACCEPTANCE {criterion:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


def witnesses_by_label(entry, types, labels):
    by_label = {t.label: t for t in types}
    return [subgroup_generated(entry.group, by_label[lab].members) for lab in labels]


@pytest.fixture(scope="module")
def setup():
    data = {}
    for label in ("4T3", "8T4", "8T11", "16T11"):
        entry = resolve_entry(label)
        types = entry.types(CYC)
        data[label] = (entry, types)
    return data


def paper_regions(data, label, witness_labels, preset):
    entry, types = data[label]
    prof = make_profile(preset, types, CYC)
    wits = witnesses_by_label(entry, types, witness_labels)
    regions = [build_region(entry.group, W, types, prof, CYC) for W in wits]
    return entry, types, prof, wits, regions


def test_criterion_1_table_reproduction(setup):
    entry4, types4 = setup["4T3"]
    entry8, types8 = setup["8T4"]
    table1 = {  # label: (size, order, quartic index, conductor weight, octic index)
        "2A": (1, 2, 2, 2, 4),
        "2B": (2, 2, 2, 1, 4),
        "2C": (2, 2, 1, 1, 4),
        "4A": (2, 4, 3, 2, 6),
    }
    cond = weight_conductor_d4(types4)
    ok = True
    by4 = {t.label: t for t in types4}
    by8 = {t.label: t for t in types8}
    for lab, (size, order, ind4, w, ind8) in table1.items():
        ok &= by4[lab].size == size and by4[lab].order == order
        ok &= index_of(by4[lab].representative) == ind4
        ok &= cond.weights[lab] == w
        ok &= by8[lab].size == size and index_of(by8[lab].representative) == ind8
    entry8t11, types8t11 = setup["8T11"]
    entry16, types16 = setup["16T11"]
    tables23 = {  # label: (size, order, degree-8 index, degree-16 index)
        "2A": (1, 2, 4, 8), "2B": (2, 2, 4, 8), "2C": (2, 2, 2, 8),
        "2D": (2, 2, 4, 8), "4A": (2, 4, 6, 12), "4B": (2, 4, 6, 12),
        "4C": (2, 4, 6, 12), "4D": (2, 4, 6, 12),
    }
    b8 = {t.label: t for t in types8t11}
    b16 = {t.label: t for t in types16}
    for lab, (size, order, ind8, ind16) in tables23.items():
        ok &= b8[lab].size == size and b8[lab].order == order
        ok &= index_of(b8[lab].representative) == ind8
        ok &= b16[lab].size == size and index_of(b16[lab].representative) == ind16
    report(1, "published class tables", ok)


def test_criterion_2_region_reproduction(setup):
    _, types4, _, _, regions = paper_regions(setup, "4T3", ["2B", "2C"], "paper-d4")
    omega_c = regions[1]
    expected = frozenset(_suites.canonical(constraint(c, b)) for c, b in [
        ({"2A": 1}, Fraction(1, 2)),
        ({"2C": 1}, Fraction(1, 2)),
        ({"2B": 1}, 1),
        ({"4A": 1}, 1),
        ({"2B": 1, "2C": Fraction(3, 8)}, Fraction(11, 8)),
        ({"4A": 1, "2C": Fraction(3, 8)}, Fraction(11, 8)),
    ])
    ok = _suites.canonical_constraints(omega_c) == expected
    _, _, _, _, regions16 = paper_regions(setup, "16T11", ["2B", "2C", "2D"],
                                          "paper-16t11")
    omega_b = regions16[0]
    mixed_expected = frozenset(_suites.canonical(constraint(c, b)) for c, b in [
        ({"2C": 1, "2B": Fraction(3, 8)}, Fraction(11, 8)),
        ({"2D": 1, "2B": Fraction(3, 8)}, Fraction(11, 8)),
        ({"4C": 1, "2B": Fraction(3, 8)}, Fraction(11, 8)),
        ({"4D": 1, "2B": Fraction(3, 8)}, Fraction(11, 8)),
    ])
    got_mixed = frozenset(map(_suites.canonical, _suites.mixed_constraints(omega_b)))
    ok &= mixed_expected <= got_mixed
    report(2, "region recipe matches the worked displays", ok)


def test_criterion_3_line_thresholds(setup):
    cases = [
        ("4T3", ["2B", "2C"], "disc", Fraction(9, 16)),
        ("4T3", ["2B", "2C"], "cond", Fraction(27, 32)),
        ("8T4", ["2B", "2C"], "disc", Fraction(27, 128)),
        ("8T11", ["2B", "2C", "2D"], "disc", Fraction(23, 80)),
        ("16T11", ["2B", "2C", "2D"], "disc", Fraction(23, 192)),
    ]
    ok = True
    for label, wit_labels, wspec, expected in cases:
        entry, types, _, _, regions = (*paper_regions(setup, label, wit_labels,
                                                      "burgess-yang"),)
        wt = (weight_conductor_d4(types) if wspec == "cond"
              else weight_discriminant(types, entry.group.degree))
        got = line_threshold(lambda v, w=wt: w.weights[v], regions)
        ok &= got == expected
    report(3, "five thresholds from full regions", ok)


def test_criterion_4_power_saving_exponents(setup):
    cases = [
        ("4T3", ["2B", "2C"], "disc", "paper-d4",
         Fraction(15, 22), Fraction(7, 16), Fraction(3, 8)),
        ("4T3", ["2B", "2C"], "cond", "paper-d4",
         Fraction(39, 44), Fraction(5, 32), Fraction(3, 8)),
        ("8T4", ["2B", "2C"], "disc", "paper-d4",
         Fraction(61, 274), Fraction(5, 128), Fraction(41, 96)),
        ("8T11", ["2B", "2C", "2D"], "disc", "paper-16t11",
         Fraction(19, 55), Fraction(17, 80), Fraction(3, 8)),
        ("16T11", ["2B", "2C", "2D"], "disc", "paper-16t11",
         Fraction(97, 800), Fraction(1, 192), Fraction(7, 18)),
    ]
    ok = True
    for label, wit_labels, wspec, preset, exponent, delta, xi in cases:
        entry, types = setup[label]
        wt = (weight_conductor_d4(types) if wspec == "cond"
              else weight_discriminant(types, entry.group.degree))
        prof = make_profile(preset, types, CYC)
        wits = witnesses_by_label(entry, types, wit_labels)
        rep = analyze(entry.group, types, wt, wits, prof, CYC, group_label=label,
                      weight_name=wspec if wspec != "cond" else "cond-d4")
        ok &= rep.power_saving_exponent == exponent
        ok &= rep.delta == delta and rep.xi == xi
        ok &= rep.verdict == "asymptotic-with-power-saving"
    report(4, "five power-saving exponents with (delta, xi)", ok)


def test_criterion_5_16t11_hull_facets(setup):
    _, types, _, _, regions = paper_regions(setup, "16T11", ["2B", "2C", "2D"],
                                            "paper-16t11")
    fixed = {"2A": Fraction(1), "4A": Fraction(2), "4B": Fraction(2),
             "4C": Fraction(2), "4D": Fraction(2)}
    inside = dict(fixed, **{"2B": Fraction(1), "2C": Fraction(1), "2D": Fraction(1)})
    outside = dict(fixed, **{"2B": Fraction(11, 12), "2C": Fraction(11, 12),
                             "2D": Fraction(11, 12)})
    member_in, cert = hull_membership(inside, regions, mode="open")
    member_out, _ = hull_membership(outside, regions, mode="open")
    # the probe violates only the ternary facet
    pair_sum = outside["2B"] + outside["2C"]
    ok = member_in and cert is not None and not member_out
    ok &= pair_sum > Fraction(27, 16)
    ok &= outside["2B"] + outside["2C"] + outside["2D"] < Fraction(23, 8)
    report(5, "16T11 ternary hull facet probes", ok)


def test_criterion_6_shortcut(setup):
    entry, types = setup["8T4"]
    by_label = {t.label: t for t in types}
    TB = subgroup_generated(entry.group, by_label["2B"].members)
    TC = subgroup_generated(entry.group, by_label["2C"].members)
    wt = weight_discriminant(types, 8)
    res = shortcut_2d(entry.group, TB, TC, wt, types,
                      make_profile("burgess-yang", types, CYC), CYC)
    ok = res.applicable and res.product == Fraction(9, 64) and res.passes
    res0 = shortcut_2d(entry.group, TB, TC, wt, types,
                       make_profile("lindelof", types, CYC), CYC)
    ok &= res0.applicable and res0.product == 0 and res0.passes
    report(6, "two-dimensional shortcut products", ok)


def test_criterion_7_b_brackets(setup):
    entry4, types4 = setup["4T3"]
    wt4 = weight_discriminant(types4, 4)
    wits4 = witnesses_by_label(entry4, types4, ["2B", "2C"])
    rep4 = analyze(entry4.group, types4, wt4, wits4,
                   make_profile("paper-d4", types4, CYC), CYC, group_label="4T3")
    entry16, types16 = setup["16T11"]
    wt16 = weight_discriminant(types16, 16)
    wits16 = witnesses_by_label(entry16, types16, ["2B", "2C", "2D"])
    rep16 = analyze(entry16.group, types16, wt16, wits16,
                    make_profile("paper-16t11", types16, CYC), CYC,
                    group_label="16T11")
    ok = (rep4.b_low, rep4.b_high) == (1, 1)
    ok &= (rep16.b_low, rep16.b_high) == (2, 4)
    report(7, "pole-order brackets (deg P ranges)", ok)


def test_criterion_8_wreath_and_direct_thresholds(setup):
    entry, types = setup["8T4"]
    wits = witnesses_by_label(entry, types, ["2B", "2C"])
    ok = all(len(W) == 4 for W in wits)
    for m in (1, 2, 3, 4, 7):
        for d in (1, 2, 3):
            ok &= wreath_theta_bound(entry.group, wits, m, d) == 1 + Fraction(1, m * d)
            ok &= wreath_theta_from_params(8, 2, 16, m, d) == 2 + Fraction(2, m * d)
            ok &= wreath_theta_from_params(16, 2, 256, m, d) == 4 + Fraction(4, m * d)
    report(8, "wreath/direct threshold shapes", ok)


def test_criterion_9_gamma_family():
    ok = True
    for gamma in (Fraction(0), Fraction(1, 8), Fraction(1, 5), Fraction(1, 4)):
        res = d4_gamma_family(gamma)
        ok &= res.power_saving_exponent == Fraction(39 + 6 * gamma, 44 + 22 * gamma)
        quad = 6 * gamma * gamma + 23 * gamma - 5
        ok &= res.secondary_visible == (quad < 0)
    ok &= d4_gamma_family(Fraction(1, 5)).secondary_visible
    ok &= not d4_gamma_family(Fraction(1, 4)).secondary_visible
    report(9, "gamma-family exponents and visibility", ok)


def test_criterion_10_property_suites():
    total_instances = 0
    total_failures = 0
    for case in _suites.ORACLE_CASES:
        ran, bad = _suites.run_oracle_case(*case)
        total_instances += ran
        total_failures += bad
    ok = total_instances >= 500 and total_failures == 0
    ran, bad = _suites.run_conditional_hull_draws(220)
    ok &= ran >= 200 and bad == 0
    checked, bad = _suites.run_class_and_index_checks()
    ok &= checked > 0 and bad == 0
    checked, bad = _suites.run_normal_join_vs_bruteforce()
    ok &= checked > 0 and bad == 0
    checked, bad = _suites.run_wreath_additivity_checks()
    ok &= checked > 0 and bad == 0
    report(10, "property suites (oracles, exhaustive checks)", ok)
