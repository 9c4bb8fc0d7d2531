"""Tame types, cyclotomic profiles, weights, pushforwards, pole bounds."""
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamecount import (CyclotomicProfile, index_of, min_weight, pole_order_bound,
                       pushforward_type, quotient, tame_types, weight_conductor_d4,
                       weight_custom, weight_discriminant, weight_inv_gamma,
                       weight_product_ramified, wreath_product)
from tamecount.cli import main as cli_main
from tamecount.errors import ParseError, ValidationError
from tamecount.catalog import resolve_entry
from tamecount.perm import (DEFAULT_ELEMENT_CAP, PermutationGroup, normal_subgroups,
                            subgroup_generated)
from tamecount.ramtypes import parse_cyclotomic_file, parse_weight_file, type_of


@pytest.fixture(scope="module")
def cyc_qi():
    # k containing Q(i): the mod-4 cyclotomic action collapses
    return CyclotomicProfile({4: {1}}, name="Q(i)")


class TestTameTypes:
    def test_d4_four_nontrivial_types(self, d4_types):
        assert sorted(t.label for t in d4_types) == ["2A", "2B", "2C", "4A"]
        sizes = {t.label: t.size for t in d4_types}
        assert sizes == {"2A": 1, "2B": 2, "2C": 2, "4A": 2}

    def test_16t11_full_q_merges_4a(self, t16_types):
        labels = sorted(t.label for t in t16_types)
        assert labels == ["2A", "2B", "2C", "2D", "4A", "4B", "4C", "4D"]
        t4a = next(t for t in t16_types if t.label == "4A")
        assert t4a.size == 2 and t4a.conj_orbit_size == 1 and t4a.zeta_degree == 2

    def test_16t11_qi_splits_4a(self, q8c2_deg16, cyc_qi):
        types = q8c2_deg16.types(cyc_qi)
        labels = sorted(t.label for t in types)
        assert len(types) == 9
        assert "4A-1" in labels and "4A1" in labels

    def test_partition_of_nonidentity(self, t16_types, q8c2_deg16):
        union = set()
        for t in t16_types:
            assert not (union & t.members)
            union |= t.members
        G = q8c2_deg16.group
        assert union == {g for g in G.elements if not g.is_identity()}

    def test_intransitive_rejected(self, cyc_q):
        G = PermutationGroup(4, ["(1,2)"])
        with pytest.raises(ValidationError, match="transitive"):
            tame_types(G, cyc_q)

    def test_types_refine_classes(self, q8c2_deg8, cyc_q):
        G = q8c2_deg8.group
        for t in q8c2_deg8.types(cyc_q):
            covered = set()
            for c in G.conjugacy_classes():
                if c.members & t.members:
                    assert c.members <= t.members
                    covered |= c.members
            assert covered == t.members
            assert t.size == t.zeta_degree * t.conj_orbit_size

    def test_full_q_merge_is_power_conjugacy(self, cyc_q):
        # g, h share a type <=> h is conjugate to g^u with gcd(u, ord g) = 1
        groups = [PermutationGroup(4, ["(1,2,3,4)", "(1,3)"]),
                  PermutationGroup(8, ["(1,2,3,4,5,6,7,8)"]),
                  PermutationGroup(3, ["(1,2,3)", "(1,2)"]),
                  wreath_product(PermutationGroup(2, ["(1,2)"]),
                                 PermutationGroup(3, ["(1,2,3)"]))]
        for G in groups:
            assert G.order <= 200
            types = tame_types(G, cyc_q)
            for g in G.elements:
                if g.is_identity():
                    continue
                expected = set()
                for u in range(1, g.order() + 1):
                    if math.gcd(u, g.order()) == 1:
                        power = g ** u
                        for h in G.elements:
                            expected.add(power.conjugate_by(h))
                assert type_of(types, g).members == expected

    def test_restricted_refines_full(self, q8c2_deg16, cyc_q, cyc_qi):
        full = q8c2_deg16.types(cyc_q)
        restricted = q8c2_deg16.types(cyc_qi)
        for r in restricted:
            containing = [t for t in full if r.members <= t.members]
            assert len(containing) == 1


class TestZetaDegree:
    def test_order_two_types(self, t16_types):
        for t in t16_types:
            if t.order == 2:
                assert t.zeta_degree == 1

    def test_16t11_4a_merged(self, t16_types):
        assert next(t for t in t16_types if t.label == "4A").zeta_degree == 2

    def test_restricted_no_merge(self, q8c2_deg16, cyc_qi):
        types = q8c2_deg16.types(cyc_qi)
        assert next(t for t in types if t.label == "4A1").zeta_degree == 1


class TestProfiles:
    def test_full_q_units(self, cyc_q):
        assert cyc_q.units_for(8) == frozenset({1, 3, 5, 7})
        assert cyc_q.field_degree(4) == 2

    def test_restricted_validation(self):
        with pytest.raises(ValidationError):
            CyclotomicProfile({4: {2}})  # 2 is not a unit mod 4

    def test_compatibility_check(self):
        # U_8 full but U_4 trivial contradicts reduction compatibility
        prof = CyclotomicProfile({4: {1}, 8: {1, 3, 5, 7}})
        with pytest.raises(ValidationError, match="incompatible"):
            prof.validate_for_exponent(8)

    def test_profile_file(self):
        prof = parse_cyclotomic_file("4 1\n")
        assert prof.units_for(4) == frozenset({1})
        assert prof.units_for(2) == frozenset({1})

    def test_profile_file_generates_subgroup(self):
        prof = parse_cyclotomic_file("8 3\n")
        assert prof.units_for(8) == frozenset({1, 3})

    @pytest.mark.parametrize("e", [0, -4])
    def test_nonpositive_modulus_rejected(self, e):
        with pytest.raises(ValidationError, match="moduli must be positive"):
            CyclotomicProfile({e: {1}})

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_profile_file_units_are_the_generated_subgroup(self, data):
        e = data.draw(st.integers(1, 60), label="e")
        units = [u for u in range(1, e + 1) if math.gcd(u, e) == 1]
        gens = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=3), label="gens")
        shifts = data.draw(st.lists(st.integers(-2, 2), min_size=len(gens),
                                    max_size=len(gens)), label="shifts")
        literals = [g + k * e for g, k in zip(gens, shifts)]
        prof = parse_cyclotomic_file(f"{e} {','.join(map(str, literals))}\n")
        # (Z/e)^* is abelian: the subgroup is the product of the cyclic ones
        expected = {1 % e}
        for g in gens:
            powers = {pow(g, k, e) for k in range(e)}
            expected = {h * x % e for h in expected for x in powers}
        assert prof.units_for(e) == frozenset(x or e for x in expected)

    @pytest.mark.parametrize("units", [{8: {1, 3, 5}}, {15: {1, 2}}, {7: {1, 2, 3}}])
    def test_non_closed_unit_set_rejected(self, units):
        with pytest.raises(ValidationError, match="is not closed under multiplication"):
            CyclotomicProfile(units)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_closure_check_matches_all_pairs(self, data):
        e = data.draw(st.integers(2, 40), label="e")
        units = [u for u in range(1, e + 1) if math.gcd(u, e) == 1]
        chosen = {1} | set(data.draw(st.lists(st.sampled_from(units), max_size=6), label="units"))
        closed = all(a * b % e in chosen for a in chosen for b in chosen)
        if closed:
            assert CyclotomicProfile({e: chosen}).units_for(e) == frozenset(chosen)
        else:
            with pytest.raises(ValidationError, match="not closed"):
                CyclotomicProfile({e: chosen})

    def test_large_prime_modulus_is_fast(self, tmp_path, capsys):
        # 3 generates the 8008 units mod 8009: an all-pairs closure check
        # makes 6.4e7 products here
        path = tmp_path / "big.cyc"
        path.write_text("8009 3\n", encoding="utf-8")
        assert len(parse_cyclotomic_file(path.read_text()).units_for(8009)) == 8008
        start = time.perf_counter()
        assert cli_main(["classes", "4T3", "--cyc", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        assert '"label": "4A"' in capsys.readouterr().out

    @pytest.mark.parametrize("line, types", [("2000 1", 818), ("2000 1999", 418)])
    def test_small_restricted_unit_group_is_fast(self, tmp_path, capsys, line, types):
        # U_2000 = {1} or {1, -1}: a walk of all 2000 powers of each of the
        # 800 generators would make 1.6e6 compositions at degree 2000
        path = tmp_path / "small.cyc"
        path.write_text(line + "\n", encoding="utf-8")
        start = time.perf_counter()
        assert cli_main(["classes", "C2000", "--cyc", str(path)]) == 0
        assert time.perf_counter() - start < 5.0
        assert len(json.loads(capsys.readouterr().out)["classes"]) == types

    def test_modulus_above_element_cap_refused(self, tmp_path, capsys):
        # no group within the caps has an element of order above the element
        # cap, so such a modulus is refused before its unit group is walked
        path = tmp_path / "huge.cyc"
        path.write_text(f"{DEFAULT_ELEMENT_CAP + 1} 1\n", encoding="utf-8")
        assert cli_main(["classes", "4T3", "--cyc", str(path)]) == 3
        err = capsys.readouterr().err
        assert (f"resource cap: line 1: modulus {DEFAULT_ELEMENT_CAP + 1} exceeds the "
                f"element cap of {DEFAULT_ELEMENT_CAP}") in err
        assert "Traceback" not in err
        path.write_text(f"{DEFAULT_ELEMENT_CAP} 1\n", encoding="utf-8")
        assert cli_main(["classes", "4T3", "--cyc", str(path)]) == 0


class TestWeights:
    def test_quartic_discriminant(self, d4_types):
        wt = weight_discriminant(d4_types, 4)
        assert {lab: int(w) for lab, w in wt.weights.items()} == {
            "2A": 2, "2B": 2, "2C": 1, "4A": 3}

    def test_octic_discriminant(self, octic_types):
        wt = weight_discriminant(octic_types, 8)
        assert {lab: int(w) for lab, w in wt.weights.items()} == {
            "2A": 4, "2B": 4, "2C": 4, "4A": 6}

    def test_16t11_discriminant(self, t16_types):
        wt = weight_discriminant(t16_types, 16)
        assert {lab: int(w) for lab, w in wt.weights.items()} == {
            "2A": 8, "2B": 8, "2C": 8, "2D": 8,
            "4A": 12, "4B": 12, "4C": 12, "4D": 12}

    def test_conductor(self, d4_types):
        wt = weight_conductor_d4(d4_types)
        assert {lab: int(w) for lab, w in wt.weights.items()} == {
            "2A": 2, "2B": 1, "2C": 1, "4A": 2}

    def test_product_ramified(self, d4_types):
        wt = weight_product_ramified(d4_types)
        assert all(w == 1 for w in wt.weights.values())

    def test_inv_gamma(self, d4_types):
        wt = weight_inv_gamma(d4_types, Fraction(1, 5))
        assert wt.weights["2B"] == Fraction(6, 5)
        assert wt.weights["4A"] == Fraction(11, 5)

    def test_custom_validation(self, d4_types):
        with pytest.raises(ValidationError, match="misses"):
            weight_custom({"2A": 1}, d4_types)
        with pytest.raises(ValidationError, match="positive"):
            weight_custom({"2A": 1, "2B": 0, "2C": 1, "4A": 1}, d4_types)

    def test_weight_file(self, d4_types):
        wt = parse_weight_file("2A 2\n2B 3/2\n2C 1\n4A 2\n", d4_types)
        assert wt.weights["2B"] == Fraction(3, 2)

    @pytest.mark.parametrize("text, lineno, label", [
        ("2A 2\n2B 3/2\n2C 1\n4A 2\n9Z 5\n", 5, "9Z"),
        ("# D4\n2A 2\n2B 3/2\n\n4a 2\n2C 1\n4A 2\n", 5, "4a"),
    ])
    def test_weight_file_rejects_unknown_label(self, d4_types, text, lineno, label):
        with pytest.raises(ParseError, match=f"line {lineno}: unknown type label '{label}'"):
            parse_weight_file(text, d4_types)

    def test_discriminant_rep_invariance(self, t16_types):
        for t in t16_types:
            values = {index_of(g) for g in t.members}
            assert len(values) == 1


class TestMinWeight:
    def test_quartic(self, d4_types):
        wt = weight_discriminant(d4_types, 4)
        a, argmin = min_weight(wt, d4_types)
        assert a == 1 and [t.label for t in argmin] == ["2C"]

    def test_16t11(self, t16_types):
        wt = weight_discriminant(t16_types, 16)
        a, argmin = min_weight(wt, t16_types)
        assert a == 8 and sorted(t.label for t in argmin) == ["2A", "2B", "2C", "2D"]

    def test_product_ramified_all(self, d4_types):
        wt = weight_product_ramified(d4_types)
        a, argmin = min_weight(wt, d4_types)
        assert a == 1 and len(argmin) == len(d4_types)


class TestPushforward:
    def test_through_own_witness_trivial(self, d4_quartic, d4_types, cyc_q):
        G = d4_quartic.group
        tc = next(t for t in d4_types if t.label == "2C")
        T = subgroup_generated(G, tc.members)
        q = quotient(G, T)
        assert pushforward_type(tc, q, cyc_q) is None

    def test_2b_through_qc_nontrivial(self, d4_quartic, d4_types, cyc_q):
        G = d4_quartic.group
        tc = next(t for t in d4_types if t.label == "2C")
        tb = next(t for t in d4_types if t.label == "2B")
        q = quotient(G, subgroup_generated(G, tc.members))
        image = pushforward_type(tb, q, cyc_q)
        assert image is not None and image.order == 2

    def test_4a_through_qc_nontrivial(self, d4_quartic, d4_types, cyc_q):
        G = d4_quartic.group
        tc = next(t for t in d4_types if t.label == "2C")
        t4a = next(t for t in d4_types if t.label == "4A")
        q = quotient(G, subgroup_generated(G, tc.members))
        assert pushforward_type(t4a, q, cyc_q) is not None

    @pytest.mark.parametrize("spec", ["8T11", "wreath(C2,C3)"])
    def test_matches_the_images_of_the_members(self, spec, cyc_q, cyc_qi):
        # reference: the type of the least nontrivial image of all members
        G = resolve_entry(spec).group
        for profile in (cyc_q, cyc_qi):
            types = tame_types(G, profile)
            for N in normal_subgroups(G):
                q = quotient(G, N)
                quotient_types = tame_types(q.carrier, profile)
                for t in types:
                    images = {x for x in map(q.push, t.members) if not x.is_identity()}
                    expected = type_of(quotient_types, min(images)) if images else None
                    assert pushforward_type(t, q, profile) == expected


class TestPoleOrderBound:
    def test_prime_order_nilpotent(self, d4_quartic, d4_types, cyc_q):
        tc = next(t for t in d4_types if t.label == "2C")
        assert pole_order_bound(tc, d4_quartic.group, cyc_q) == 1

    def test_d4_4a_falls_back_to_field_degree(self, d4_quartic, d4_types, cyc_q):
        t4a = next(t for t in d4_types if t.label == "4A")
        assert pole_order_bound(t4a, d4_quartic.group, cyc_q) == 2

    def test_16t11_order_two_types(self, q8c2_deg16, t16_types, cyc_q):
        for t in t16_types:
            if t.order == 2:
                assert pole_order_bound(t, q8c2_deg16.group, cyc_q) == 1

    def test_restricted_4a1(self, q8c2_deg16, cyc_qi):
        types = q8c2_deg16.types(cyc_qi)
        t = next(t for t in types if t.label == "4A1")
        assert pole_order_bound(t, q8c2_deg16.group, cyc_qi) == 1


class TestWreathShortcutLemma:
    CASES = [(PermutationGroup(4, ["(1,2,3,4)", "(1,3)"], name="D4"), 2),
             (PermutationGroup(2, ["(1,2)"], name="C2"), 3)]

    @staticmethod
    def _embed(g, n, m):
        """First-coordinate embedding N -> N^m inside N wr B."""
        images = list(range(1, n * m + 1))
        for i in range(1, n + 1):
            images[i - 1] = g(i)
        return PermutationGroup(n * m, [images]).generators[0]

    def test_min_weight_agrees(self, cyc_q):
        for N, m in self.CASES:
            B = PermutationGroup(m, [tuple(range(2, m + 1)) + (1,)])
            W = wreath_product(N, B)
            a_N = min(index_of(g) for g in N.elements if not g.is_identity())
            a_W = min(index_of(g) for g in W.elements if not g.is_identity())
            assert a_N == a_W

    def test_embedding_bijects_minimum_base_types(self, cyc_q):
        for N, m in self.CASES:
            B = PermutationGroup(m, [tuple(range(2, m + 1)) + (1,)])
            W = wreath_product(N, B)
            n = N.degree
            base = subgroup_generated(
                W, [self._embed(g, n, m) for g in N.elements] +
                   [PermutationGroup(n * m,
                    [[(b * n + g(i) if b == blk else b * n + i)
                      for b in range(m) for i in range(1, n + 1)]]).generators[0]
                    for blk in range(m) for g in N.generators])
            types_N = tame_types(N, cyc_q)
            types_W = tame_types(W, cyc_q)
            wt_N = weight_discriminant(types_N, n)
            wt_W = weight_discriminant(types_W, n * m)
            _, argmin_N = min_weight(wt_N, types_N)
            _, argmin_W = min_weight(wt_W, types_W)
            base_min = {t.label for t in argmin_W if t.representative in base}
            images = {type_of(types_W, self._embed(t.representative, n, m)).label
                      for t in argmin_N}
            assert images == base_min
            assert len(images) == len(argmin_N)

    def test_embedded_class_size_in_base(self):
        # N^m-conjugation preserves the class of the first-block embedding
        for N, m in self.CASES:
            n = N.degree
            for cls in N.conjugacy_classes():
                g = self._embed(cls.representative, n, m)
                conjugates = {g.conjugate_by(self._embed(h, n, m))
                              for h in N.elements}
                assert conjugates == {self._embed(x, n, m) for x in cls.members}
