"""Concentration verdicts, the h^1_ur ledger, and threshold arithmetic."""
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from tamecount import (abelian_normal_subgroups, classify, direct_product_condition,
                       h1ur_chain, weight_conductor_d4, weight_custom,
                       weight_discriminant, weight_product_ramified,
                       wreath_theta_bound, wreath_theta_from_params)
from tamecount.concentration import (FITTING_CONCENTRATED, FITTING_NILPOTENT,
                                     STATUS_CONCENTRATED, STATUS_NOT, STATUS_PROPER,
                                     abelian_invariants, analysis_witnesses,
                                     minimal_abelian_cover)
import tamecount.concentration as concentration
import tamecount.perm as perm
from tamecount.errors import (ContractViolationError, ResourceCapError,
                              UnsupportedHypothesisError, ValidationError)
from tamecount.catalog import resolve_entry
from tamecount.cli import main as cli_main
from tamecount.perm import (Permutation, PermutationGroup, direct_product, is_abelian_normal,
                            normal_subgroups, parse_permutation, quotient, subgroup_as_group,
                            subgroup_generated, subgroup_key, upper_central_series)
from tamecount.ramtypes import tame_types
from tamecount.regions import build_region, make_profile
from _suites import ref_abelian_invariants, ref_h1ur_layers

REFERENCE = Path(__file__).parent / "reference"
RANK_5 = "product(product(product(product(C2,C2),C2),C2),C2)"  # C2^5
RANK_6 = f"product({RANK_5},C2)"


def cyclic(n):
    return PermutationGroup(n, [tuple(range(2, n + 1)) + (1,)], name=f"C{n}")


class TestAbelianNormalSubgroups:
    def test_d4_has_four(self, d4_quartic):
        subs = abelian_normal_subgroups(d4_quartic.group)
        assert sorted(len(s) for s in subs) == [2, 4, 4, 4]

    def test_q8c2_includes_the_three_order_four(self, q8c2_deg8, cyc_q):
        G = q8c2_deg8.group
        types = {t.label: t for t in q8c2_deg8.types(cyc_q)}
        subs = abelian_normal_subgroups(G)
        for lab in ("2B", "2C", "2D"):
            T = subgroup_generated(G, types[lab].members)
            assert len(T) == 4 and T in subs

    def test_cp_has_none(self):
        assert abelian_normal_subgroups(cyclic(5)) == []


class TestMinimalAbelianCover:
    @staticmethod
    def least_cover(G, targets):
        """Reference: the least cover by (size, members' keys), compared in full."""
        candidates = abelian_normal_subgroups(G)
        for size in range(1, len(candidates) + 1):
            covers = [sorted(combo, key=subgroup_key)
                      for combo in combinations(candidates, size)
                      if targets <= set().union(*combo)]
            if covers:
                return min(covers, key=lambda c: [subgroup_key(W) for W in c])
        return None

    # product(C2,16T11): 40 candidates, 13 coverage masks over its 9
    # minimum-weight representatives, least cover of 3
    @pytest.mark.parametrize("spec", ["4T3", "8T11", "16T11", "product(4T3,C3)",
                                      "wreath(C2,C3)", "S3", "product(C2,16T11)"])
    def test_first_cover_is_the_least(self, spec, cyc_q):
        entry = resolve_entry(spec)
        G = entry.group
        types = entry.types(cyc_q)
        for targets in ([set(t.members) for t in types] + [{t.representative} for t in types]
                        + [set().union(*(t.members for t in types))]):
            assert minimal_abelian_cover(G, targets) == self.least_cover(G, targets)
        for t in types:  # a normal subgroup holds a type when it holds its representative
            assert (minimal_abelian_cover(G, {t.representative})
                    == minimal_abelian_cover(G, t.members))


    @pytest.mark.parametrize("cap, found", [(25, True), (24, False)])
    def test_cover_search_stops_at_the_family_cap(self, monkeypatch, cap, found):
        # five candidates with distinct masks over four targets: 5 singletons
        # and 10 pairs cover nothing, and the only covering triple, the last
        # candidates, is the 10th triple, so the 25th family tested
        monkeypatch.setattr(concentration, "_COVER_CAP", cap)
        candidates = [{0}, {1}, {2}, {3}, {0, 1}]
        if found:
            assert concentration._least_cover(candidates, [0, 1, 2, 3]) == candidates[2:]
        else:
            with pytest.raises(ResourceCapError, match=f"family cap of {cap}"):
                concentration._least_cover(candidates, [0, 1, 2, 3])

    def test_search_that_ends_at_the_cap_finds_no_cover(self, monkeypatch):
        monkeypatch.setattr(concentration, "_COVER_CAP", 3)  # {0}, {1}, then ({0}, {1})
        assert concentration._least_cover([{0}, {1}], [0, 1, 2]) is None

    def test_rank_6_cover_search_exits_3(self, capsys):
        # C2^6: 2,823 abelian candidates with distinct masks over its 63
        # targets and a least cover of 3, so up to C(2823, 3) ~ 3.7e9 triples
        assert cli_main(["classify", RANK_6, "--weight", "disc"]) == 3
        err = capsys.readouterr().err
        assert f"family cap of {concentration._COVER_CAP}" in err
        assert "Traceback" not in err

    def test_lattice_member_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(perm, "_LATTICE_CAP", 300)  # C2^5 has 374 subgroups
        assert cli_main(["classify", RANK_5, "--weight", "disc"]) == 3
        err = capsys.readouterr().err
        assert "normal-subgroup lattice exceeds the member cap of 300" in err
        assert "Traceback" not in err


class TestClassify:
    def test_d4_quartic_concentrated_in_tc(self, d4_quartic, d4_types):
        wt = weight_discriminant(d4_types, 4)
        v = classify(d4_quartic.group, wt, d4_types)
        assert v.status == STATUS_CONCENTRATED
        assert v.fitting_status == FITTING_NILPOTENT
        assert len(v.witnesses) == 1 and len(v.witnesses[0]) == 4
        tc = next(t for t in d4_types if t.label == "2C")
        assert tc.members <= v.witnesses[0]

    def test_d4_conductor_properly_semiconcentrated(self, d4_quartic, d4_types):
        wt = weight_conductor_d4(d4_types)
        v = classify(d4_quartic.group, wt, d4_types)
        assert v.status == STATUS_PROPER
        assert len(v.witnesses) == 2

    def test_c2_not_semiconcentrated(self, cyc_q):
        G = cyclic(2)
        types = tame_types(G, cyc_q)
        wt = weight_discriminant(types, 2)
        v = classify(G, wt, types)
        assert v.status == STATUS_NOT and v.witnesses == ()

    def test_s3_transpositions_break_semiconcentration(self, cyc_q):
        # min-index elements of 3T2 are the transpositions, which generate
        S3 = PermutationGroup(3, ["(1,2,3)", "(1,2)"], name="S3")
        types = tame_types(S3, cyc_q)
        for wt in (weight_discriminant(types, 3), weight_product_ramified(types)):
            v = classify(S3, wt, types)
            assert v.status == STATUS_NOT

    def test_a4_fitting_branch(self, cyc_q):
        # weight the 3-cycles heavily: the minimum sits inside V4 = Fitting(A4)
        A4 = PermutationGroup(4, ["(1,2,3)", "(1,2)(3,4)"], name="A4")
        types = tame_types(A4, cyc_q)
        table = {t.label: (Fraction(1) if t.order == 2 else Fraction(5)) for t in types}
        wt = weight_custom(table, types)
        v = classify(A4, wt, types)
        assert v.status == STATUS_CONCENTRATED
        assert v.fitting_status == FITTING_CONCENTRATED
        assert len(v.witnesses) == 1 and len(v.witnesses[0]) == 4

    def test_hexagonal_dihedral_nonabelian_concentration(self, cyc_q):
        # vertex reflections are minimal and generate the S3 copy: concentrated,
        # but no abelian normal subgroup covers them and Fitting = C6 misses them
        from tamecount.concentration import FITTING_NEITHER
        D6 = PermutationGroup(6, ["(1,2,3,4,5,6)", "(2,6)(3,5)"], name="D6hex")
        types = tame_types(D6, cyc_q)
        wt = weight_discriminant(types, 6)
        v = classify(D6, wt, types)
        assert v.status == STATUS_CONCENTRATED
        assert v.witnesses == ()
        assert v.fitting_status == FITTING_NEITHER

    def test_every_minimum_type_is_read(self, cyc_q):
        # the double transpositions come first and generate Fitting(S4) = V4;
        # the transpositions, also minimal, generate S4
        from tamecount.concentration import FITTING_NEITHER
        S4 = PermutationGroup(4, ["(1,2,3,4)", "(1,2)"], name="S4")
        types = tame_types(S4, cyc_q)
        wt = weight_custom({t.label: Fraction(1 if t.order == 2 else 5) for t in types}, types)
        v = classify(S4, wt, types)
        assert [t.size for t in types if t.label in v.min_type_labels] == [3, 6]
        assert v.status == STATUS_NOT and v.fitting_status == FITTING_NEITHER

    def test_scaling_invariance(self, d4_quartic, d4_types):
        wt = weight_discriminant(d4_types, 4)
        scaled = weight_custom({lab: 7 * w for lab, w in wt.weights.items()}, d4_types)
        assert (classify(d4_quartic.group, wt, d4_types).status
                == classify(d4_quartic.group, scaled, d4_types).status)

    def test_nonminimum_perturbation_invariance(self, d4_quartic, d4_types):
        wt = weight_discriminant(d4_types, 4)
        bumped = dict(wt.weights)
        bumped["4A"] += Fraction(5, 3)
        bumped["2B"] += Fraction(1, 7)
        v1 = classify(d4_quartic.group, wt, d4_types)
        v2 = classify(d4_quartic.group, weight_custom(bumped, d4_types), d4_types)
        assert v1.status == v2.status and v1.witnesses == v2.witnesses

    def test_nilpotent_noncyclic_semiconcentrated(self, cyc_q):
        # every noncyclic nilpotent group is a union of proper normal subgroups
        from tamecount.perm import is_nilpotent, wreath_product
        groups = [PermutationGroup(4, ["(1,2,3,4)", "(1,3)"]),
                  wreath_product(cyclic(2), cyclic(2)),
                  PermutationGroup(4, ["(1,2)", "(3,4)"])]  # C2xC2, intransitive
        for G in groups[:2]:
            assert is_nilpotent(G)
            types = tame_types(G, cyc_q)
            wt = weight_discriminant(types, G.degree)
            assert classify(G, wt, types).status != STATUS_NOT


def _compose(a, b):
    """x -> a(b(x)) on 1-based image tuples."""
    return tuple(a[i - 1] for i in b)


class TestAnalysisWitnesses:
    def test_wreath_4t3_c3_order_1536(self, cyc_q, capsys):
        assert cli_main(["classify", "wreath(4T3,C3)", "--weight", "disc"]) == 0
        expected = (REFERENCE / "classify_wreath_4T3_C3_disc.json").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected
        # checked element by element, on image tuples, without the class data
        entry = resolve_entry("wreath(4T3,C3)")
        G = entry.group
        types = entry.types(cyc_q)
        wt = weight_discriminant(types, G.degree)
        verdict = classify(G, wt, types)
        chosen = analysis_witnesses(G, types, wt)
        gens = [g.images for g in G.generators]
        inverses = [tuple(sorted(range(1, G.degree + 1), key=lambda i: h[i - 1]))
                    for h in gens]
        minimal = {g.images for t in types if t.label in verdict.min_type_labels
                   for g in t.members}
        for family in (verdict.witnesses, chosen):
            covered = set()
            for W in family:
                elems = {g.images for g in W}
                assert 1 < len(elems) < G.order == 1536
                for a in elems:
                    for b in elems:
                        ab = _compose(a, b)
                        assert ab == _compose(b, a) and ab in elems
                for h, h_inv in zip(gens, inverses):
                    assert all(_compose(h, _compose(x, h_inv)) in elems for x in elems)
                covered |= elems
            assert minimal <= covered
        assert verdict.status == STATUS_CONCENTRATED
        assert len(subgroup_generated(G, [Permutation(x) for x in minimal])) < G.order
        assert verdict.fitting_status == FITTING_CONCENTRATED
        assert len(upper_central_series(G)[-1]) < G.order  # not nilpotent

    def test_product_c8_16t11_least_cover(self, capsys):
        # 102 abelian candidates, 13 coverage masks over nine minimum-weight
        # representatives, least cover of 3
        assert cli_main(["classify", "product(C8,16T11)", "--weight", "disc"]) == 0
        expected = (REFERENCE / "classify_product_C8_16T11_disc.json").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected

    def test_d4_gets_all_four(self, d4_quartic, d4_types):
        wt = weight_discriminant(d4_types, 4)
        wits = analysis_witnesses(d4_quartic.group, d4_types, wt)
        assert sorted(len(W) for W in wits) == [2, 4, 4, 4]

    def test_16t11_covers_minimum_types(self, q8c2_deg16, t16_types):
        wt = weight_discriminant(t16_types, 16)
        wits = analysis_witnesses(q8c2_deg16.group, t16_types, wt)
        covered = set()
        for W in wits:
            covered |= W
        for t in t16_types:
            if wt(t) == 8:
                assert t.members <= covered

    def test_uncoverable_minimum_rejected(self, cyc_q):
        S3 = PermutationGroup(3, ["(1,2,3)", "(1,2)"], name="S3")
        types = tame_types(S3, cyc_q)
        wt = weight_product_ramified(types)
        with pytest.raises(ValidationError):
            analysis_witnesses(S3, types, wt)


class TestH1urChain:
    def test_central_single_layer(self, d4_quartic):
        G = d4_quartic.group
        Z = {g for g in G.elements if all(g * h == h * g for h in G.elements)}
        T = subgroup_generated(G, Z)
        chain = h1ur_chain(G, T, T)
        assert chain == [(2, (2,))]

    def test_q8c2_full_chain(self, q8c2_deg8):
        G = q8c2_deg8.group
        N = G.element_set()
        # T_B is abelian normal of order 4 meeting the center in order 2
        from tamecount.ramtypes import tame_types, CyclotomicProfile
        types = {t.label: t for t in tame_types(G, CyclotomicProfile.full_q())}
        T = subgroup_generated(G, types["2B"].members)
        chain = h1ur_chain(G, N, T)
        orders = [order for order, _ in chain]
        prod = 1
        for o in orders:
            prod *= o
        assert prod == len(T) == 4

    def test_quaternion_subgroup_chain(self, q8c2_deg8, cyc_q):
        # N = the Q8 inside the semidirect product, T = its center <2A>
        G = q8c2_deg8.group
        types = {t.label: t for t in tame_types(G, cyc_q)}
        N = subgroup_generated(G, types["4B"].members | types["4C"].members)
        assert len(N) == 8
        T = subgroup_generated(G, types["2A"].members)
        chain = h1ur_chain(G, N, T)
        prod = 1
        for order, _ in chain:
            prod *= order
        assert prod == len(T) == 2
        assert chain == [(2, (2,))]

    def test_layer_orders_multiply_catalog_sweep(self, d4_quartic, q8c2_deg8):
        for G in (d4_quartic.group, q8c2_deg8.group):
            N = G.element_set()
            for T in abelian_normal_subgroups(G):
                chain = h1ur_chain(G, N, T)
                prod = 1
                for order, _ in chain:
                    prod *= order
                assert prod == len(T)

    def test_hypercenter_containment_enforced(self, cyc_q):
        S3 = PermutationGroup(3, ["(1,2,3)", "(1,2)"], name="S3")
        A3 = subgroup_generated(S3, [parse_permutation("(1,2,3)", 3)])
        # N = A3 has hypercenter A3 (abelian); T = A3 fine
        assert h1ur_chain(S3, A3, A3) == [(3, (3,))]
        # but T = A3 inside N = S3 fails: hypercenter of S3 is trivial
        with pytest.raises(ContractViolationError, match="hypercenter"):
            h1ur_chain(S3, S3.element_set(), A3)

    def test_subgroup_outside_group_rejected(self):
        G = PermutationGroup(4, ["(1,2)"])
        K = {Permutation.identity(4), parse_permutation("(3,4)", 4)}
        with pytest.raises(ContractViolationError, match="N and T must be normal in G"):
            h1ur_chain(G, K, K)

    def test_abelian_invariants_subset_outside_group_rejected(self):
        G = PermutationGroup(4, ["(1,2)"])
        K = {Permutation.identity(4), parse_permutation("(3,4)", 4)}
        with pytest.raises(ContractViolationError, match="outside the group"):
            abelian_invariants(G, K)

    def test_abelian_invariants(self, q8c2_deg8):
        G = q8c2_deg8.group
        for T in abelian_normal_subgroups(G):
            inv = abelian_invariants(G, T)
            prod = 1
            for d in inv:
                prod *= d
            assert prod == len(T)


def _cyclic_product(orders):
    G = cyclic(orders[0])
    for n in orders[1:]:
        G = direct_product(G, cyclic(n))
    return G


@pytest.mark.parametrize("orders", [(4, 4, 2), (6, 4), (12, 2, 3), (9, 3, 5), (7,), (8, 2, 2)],
                         ids=lambda orders: "x".join(f"C{n}" for n in orders))
def test_invariants_match_peeling_on_cyclic_products(orders):
    """abelian_invariants on every subgroup, and the one-layer chain of the
    whole group, against the peeled quotient carriers."""
    G = _cyclic_product(orders)
    for T in normal_subgroups(G):  # every subgroup of an abelian group
        assert abelian_invariants(G, T) == ref_abelian_invariants(G, T)
    whole = G.element_set()
    assert h1ur_chain(G, whole, whole) == ref_h1ur_layers(G, whole, whole)


@pytest.mark.parametrize("spec", ["16T11", "product(4T3,C3)", "wreath(C2,C4)"])
def test_h1ur_layers_match_peeling(spec):
    """Every layer of every valid (N, T) chain against its peeled quotient
    carrier, on nilpotent groups whose chains have several layers."""
    G = resolve_entry(spec).group
    abelian = [T for T in normal_subgroups(G) if is_abelian_normal(G, T)]
    layer_counts = set()
    for N in normal_subgroups(G):
        hypercenter = upper_central_series(subgroup_as_group(G, N))[-1]
        for T in abelian:
            if T <= hypercenter:
                chain = h1ur_chain(G, N, T)
                assert chain == ref_h1ur_layers(G, N, T)
                layer_counts.add(len(chain))
    assert max(layer_counts) >= 2


class TestWreathTheta:
    def test_8t4_shape(self, d4_octic, octic_types):
        G = d4_octic.group
        by_label = {t.label: t for t in octic_types}
        wits = [subgroup_generated(G, by_label["2B"].members),
                subgroup_generated(G, by_label["2C"].members)]
        for m in (1, 2, 3, 5):
            for d in (1, 2, 3):
                assert wreath_theta_bound(G, wits, m, d) == 1 + Fraction(1, m * d)

    def test_parameter_shapes(self):
        # the two families of exponent shapes from the wreath theorem
        for m in (1, 2, 4):
            for d in (1, 2):
                assert (wreath_theta_from_params(8, 2, 16, m, d)
                        == 2 + Fraction(2, m * d))
                assert (wreath_theta_from_params(16, 2, 256, m, d)
                        == 4 + Fraction(4, m * d))

    def test_central_order_two_witness(self):
        # n/a = 2 with |T| = 2: 2 - 1/2 + 1/(2 m d)
        assert (wreath_theta_from_params(4, 2, 2, 3, 2)
                == 2 - Fraction(1, 2) + Fraction(1, 12))

    def test_degree_16_order_4_witness(self):
        # n = 16, a = 4, |T| = 4: 4 - 1 + 1/(m d)
        for m, d in ((1, 1), (2, 3), (5, 2)):
            assert (wreath_theta_from_params(16, 4, 4, m, d)
                    == 3 + Fraction(1, m * d))

    def test_non_two_group_refused(self):
        G = PermutationGroup(3, ["(1,2,3)"], name="C3")
        with pytest.raises(UnsupportedHypothesisError):
            wreath_theta_bound(G, [G.element_set()], 2, 1)

    def test_witness_outside_group_rejected(self):
        G = PermutationGroup(4, ["(1,2)"])
        outside = subgroup_generated(G, [parse_permutation("(3,4)", 4)])
        with pytest.raises(ContractViolationError, match="abelian and normal in N"):
            wreath_theta_bound(G, [outside], 2, 1)

    def test_non_power_of_two_witness_size(self):
        with pytest.raises(ValidationError):
            wreath_theta_from_params(8, 2, 12, 1, 1)

    def test_trivial_group_refused(self):
        G = PermutationGroup(1, [(1,)])
        with pytest.raises(ValidationError, match="N must be nontrivial"):
            wreath_theta_bound(G, [G.element_set()], 2, 1)

    def test_zero_least_index_refused(self):
        with pytest.raises(ValidationError, match="least index must be positive"):
            wreath_theta_from_params(4, 0, 2, 1, 1)


@pytest.mark.parametrize("with_identity", [False, True], ids=["class", "class+identity"])
@pytest.mark.parametrize("entry", ["quotient", "build_region", "wreath_theta_bound",
                                   "h1ur_chain N", "h1ur_chain T"])
def test_normal_set_that_is_no_subgroup_rejected(d4_quartic, d4_types, cyc_q, entry,
                                                 with_identity):
    """{(1,3),(2,4)} is a class of 4T3, so closed under conjugation, but
    (1,3)(2,4) lies outside it, with or without the identity added."""
    G = d4_quartic.group
    S = {parse_permutation("(1,3)", 4), parse_permutation("(2,4)", 4)}
    if with_identity:
        S.add(G.identity)
    calls = {
        "quotient": lambda: quotient(G, S),
        "build_region": lambda: build_region(
            G, S, d4_types, make_profile("burgess-yang", d4_types, cyc_q), cyc_q),
        "wreath_theta_bound": lambda: wreath_theta_bound(G, [S], 2, 1),
        "h1ur_chain N": lambda: h1ur_chain(G, S, {G.identity}),
        "h1ur_chain T": lambda: h1ur_chain(G, G.element_set(), S),
    }
    with pytest.raises(ContractViolationError):
        calls[entry]()


class TestDirectProductCondition:
    def test_strict_inequality(self):
        # a_B/m > a_N/n passes; equality fails
        assert direct_product_condition(8, 3, 4, 2).passes       # 2/3 > 1/2
        assert not direct_product_condition(8, 4, 4, 2).passes   # 1/2 = 1/2
        assert not direct_product_condition(8, 5, 4, 1).passes   # 1/5 < 1/2

    def test_cap_exponent(self):
        assert direct_product_condition(8, 3, 4, 2).cap_exponent == Fraction(2, 3)
        assert direct_product_condition(16, 2, 2, 1).cap_exponent == Fraction(4)

    def test_validation(self):
        with pytest.raises(ValidationError):
            direct_product_condition(0, 1, 1, 1)
