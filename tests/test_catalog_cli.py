"""Catalog fingerprints, CLI surface, batch reproducibility, golden files."""
import concurrent.futures
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamecount.catalog as catalog
import tamecount.hull_lp as hull_lp
import tamecount.perm as perm
from tamecount import (build_region, export_group_file, make_profile, parse_group_file,
                       resolve_entry, verify_certificate)
from tamecount.catalog import resolve_cyclotomic, resolve_weight
from tamecount.cli import _parse_manifest, main as cli_main
from tamecount.concentration import analysis_witnesses
from tamecount.errors import ResourceCapError, ValidationError

GOLDEN = Path(__file__).parent / "golden"
REFERENCE = Path(__file__).parent / "reference"
# nesting alone used to exhaust Python's recursion limit in resolve_entry
DEEP_TOWER = "product(C1," * 1000 + "C1" + ")" * 1000


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "tamecount.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestCatalog:
    def test_16t11_fingerprint(self, q8c2_deg8):
        # class sizes and orders exactly as published
        G = q8c2_deg8.group
        assert G.order == 16 and G.degree == 8 and G.is_transitive()
        stats = sorted((c.size, c.representative.order()) for c in G.conjugacy_classes())
        assert stats == [(1, 1), (1, 2), (1, 4), (1, 4),
                         (2, 2), (2, 2), (2, 2), (2, 4), (2, 4), (2, 4)]

    def test_regular_representations(self, d4_octic, q8c2_deg16):
        assert d4_octic.group.degree == 8 and d4_octic.group.order == 8
        assert q8c2_deg16.group.degree == 16 and q8c2_deg16.group.order == 16
        assert q8c2_deg16.group.is_transitive()

    def test_cyclic_and_s3(self):
        assert resolve_entry("C7").group.order == 7
        assert resolve_entry("S3").group.order == 6

    def test_combinators(self):
        e = resolve_entry("product(8T4,C3)")
        assert e.group.degree == 24 and e.group.order == 24 and e.group.is_transitive()
        w = resolve_entry("wreath(C2,C2)")
        assert w.group.degree == 4 and w.group.order == 8

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError, match="unknown group spec"):
            resolve_entry("16T777")

    def test_tower_at_the_nesting_cap_resolves(self):
        depth = catalog._NESTING_CAP
        entry = resolve_entry("wreath(C1," * depth + "C1" + ")" * depth)
        assert entry.group.degree == 1 and entry.label.count("wreath(") == depth
        with pytest.raises(ResourceCapError, match=f"the nesting cap of {depth}"):
            resolve_entry("product(" * (depth + 1) + "C1" + ",C1)" * (depth + 1))

    def test_group_file_roundtrip_all_builtins(self, tmp_path):
        for label in ("4T3", "8T4", "8T11", "16T11", "S3", "C6", "wreath(C2,C3)"):
            G = resolve_entry(label).group
            text = export_group_file(G)
            again = parse_group_file(text)
            assert again.element_set() == G.element_set()

    def test_file_entry(self, tmp_path):
        path = tmp_path / "demo.group"
        path.write_text("name demo\ndegree 4\n(1,2,3,4)\n(1,3)\n", encoding="utf-8")
        e = resolve_entry(str(path))
        assert e.group.order == 8 and e.label == "demo"

    def test_weight_resolution_errors(self, d4_quartic, cyc_q):
        types = d4_quartic.types(cyc_q)
        with pytest.raises(ValidationError):
            resolve_weight("nonsense", d4_quartic, types)
        s3 = resolve_entry("S3")
        s3_types = s3.types(cyc_q)
        with pytest.raises(ValidationError, match="D4"):
            resolve_weight("cond-d4", s3, s3_types)

    def test_cyclotomic_resolution(self, tmp_path):
        assert resolve_cyclotomic("Q").is_full
        path = tmp_path / "qi.cyc"
        path.write_text("4 1\n", encoding="utf-8")
        prof = resolve_cyclotomic(str(path))
        assert prof.units_for(4) == frozenset({1})


class TestCliClasses:
    def test_4t3_table_is_the_published_one(self):
        res = run_cli("classes", "4T3", "--format", "json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        rows = {r["label"]: r for r in data["classes"]}
        expected = {
            "2A": (1, 2, 2, 2, 4),
            "2B": (2, 2, 2, 1, 4),
            "2C": (2, 2, 1, 1, 4),
            "4A": (2, 4, 3, 2, 6),
        }
        for lab, (size, order, ind4, cond, ind8) in expected.items():
            row = rows[lab]
            assert (row["size"], row["order"], row["index4"],
                    row["conductor_weight"], row["index8"]) == (size, order, ind4,
                                                                str(cond), ind8)

    def test_16t11_table(self):
        res = run_cli("classes", "16T11", "--format", "json")
        data = json.loads(res.stdout)
        rows = {r["label"]: r for r in data["classes"]}
        for lab in ("2A", "2B", "2C", "2D"):
            assert rows[lab]["index16"] == 8
        for lab in ("4A", "4B", "4C", "4D"):
            assert rows[lab]["index16"] == 12
        assert rows["2C"]["index8"] == 2
        assert rows["2A"]["index8"] == 4

    def test_c2_single_class(self):
        res = run_cli("classes", "C2", "--format", "json")
        data = json.loads(res.stdout)
        assert len(data["classes"]) == 1

    @pytest.mark.parametrize("spec", [DEEP_TOWER, "wreath(" * 1000 + "C2" + ",C2)" * 1000],
                             ids=["right", "left"])
    def test_deep_tower_exits_3_without_traceback(self, spec):
        res = run_cli("classes", spec)
        assert res.returncode == 3 and "Traceback" not in res.stderr
        assert f"exceed the nesting cap of {catalog._NESTING_CAP}" in res.stderr

    def test_empty_table_tsv_is_the_header_alone(self):
        res = run_cli("classes", "C1", "--format", "tsv")
        assert (res.returncode, res.stdout, res.stderr) == (0, "label\tsize\torder\tindex1\n", "")

    def test_tsv_columns_match_json_keys(self):
        res = run_cli("classes", "4T3", "--format", "tsv")
        header = res.stdout.splitlines()[0].split("\t")
        assert header == ["label", "size", "order", "index4", "index8", "conductor_weight"]

    @pytest.mark.parametrize("spec, degrees", [
        ("4T3", [4, 8]), ("8T4", [8, 4]), ("16T11", [16, 8]), ("C6", [6]),
    ])
    def test_types_computed_once_per_representation(self, monkeypatch, capsys, spec, degrees):
        seen = []
        real = catalog.tame_types

        def counting(G, *args, **kwargs):
            seen.append(G.degree)
            return real(G, *args, **kwargs)
        monkeypatch.setattr(catalog, "tame_types", counting)
        assert cli_main(["classes", spec]) == 0
        assert seen == degrees

    @pytest.mark.parametrize("spec, reference", [
        ("4T3", "4T3"), ("8T4", "8T4"), ("8T11", "8T11"), ("16T11", "16T11"),
        ("D4", "4T3"), ("Q8sC2", "16T11"),
    ])
    def test_pinned_tables_byte_identical(self, capsys, spec, reference):
        # D4 and Q8sC2 are aliases: they print their table label's bytes
        expected = (REFERENCE / f"classes_{reference}.tsv").read_bytes()
        assert cli_main(["classes", spec, "--format", "tsv"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == expected
        assert cli_main(["classes", spec, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["classes"]
        header, *lines = expected.decode("utf-8").splitlines()
        assert [[str(r[c]) for c in header.split("\t")] for r in rows] == \
            [line.split("\t") for line in lines]

    @pytest.mark.parametrize("spec, reference", [
        ("C2000", "C2000"), ("wreath(C2,C12)", "wreath_C2_C12"),
        ("C2000", "C2000_restricted"), ("wreath(C2,C12)", "wreath_C2_C12_restricted"),
        ("wreath(4T3,C3)", "wreath_4T3_C3_restricted"), ("16T11", "16T11_restricted"),
        ("product(C4,C6)", "product_C4_C6"), ("C5000", "C5000")])
    def test_large_tables_byte_identical(self, capsys, spec, reference):
        # 2000 classes, most ordered by another class's power walk; a
        # closure of order 2^12 * 12 over several cosets; an abelian group
        # of two kept generators, which conjugates nothing; and 5000 classes
        # at degree 5000, whose walks find each power by its image of 1,
        # a base of one point.  A restricted
        # table reads its cyclotomic profile from the .cyc file of the same
        # name; C2000, wreath(C2,C12) and 16T11 split types under it
        cyc = REFERENCE / f"classes_{reference}.cyc"
        options = ["--cyc", str(cyc)] if reference.endswith("_restricted") else []
        expected = (REFERENCE / f"classes_{reference}.tsv").read_bytes()
        assert cli_main(["classes", spec, "--format", "tsv", *options]) == 0
        assert capsys.readouterr().out.encode("utf-8") == expected


class TestPinnedCatalog:
    @pytest.mark.parametrize("spec, embeddings", [
        ("4T3", 0), ("D4", 0), ("8T11", 0), ("S3", 0), ("product(4T3,C3)", 0),
        ("8T4", 1), ("16T11", 1), ("Q8sC2", 1),
    ])
    def test_entry_builds_only_its_representation(self, monkeypatch, spec, embeddings):
        calls = []
        real = catalog.regular_embedding

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(catalog, "regular_embedding", counting)
        resolve_entry(spec)
        assert len(calls) == embeddings

    @pytest.mark.parametrize("spec, sibling", [
        ("4T3", "8T4"), ("D4", "8T4"), ("8T4", "4T3"), ("8T11", "16T11"),
        ("16T11", "8T11"), ("Q8sC2", "8T11"), ("S3", None), ("C4", None),
    ])
    def test_sibling_is_a_label(self, spec, sibling):
        e = resolve_entry(spec)
        assert e.sibling == sibling
        if sibling:
            other = resolve_entry(sibling)
            assert other.sibling == e.label and other.group.order == e.group.order

    def test_weight_families(self):
        flags = {}
        for spec in ("4T3", "8T4", "8T11", "16T11"):
            e = resolve_entry(spec)
            flags[spec] = (e.conductor_family, e.gamma_family)
        assert flags == {"4T3": (True, True), "8T4": (True, False),
                         "8T11": (False, False), "16T11": (False, False)}


class TestCliClassify:
    def test_d4_disc(self):
        res = run_cli("classify", "4T3", "--weight", "disc")
        data = json.loads(res.stdout)
        assert data["status"] == "concentrated"
        assert data["min_types"] == ["2C"]

    def test_d4_conductor(self):
        res = run_cli("classify", "4T3", "--weight", "cond-d4")
        data = json.loads(res.stdout)
        assert data["status"] == "properly-semiconcentrated"

    def test_cp_not_semiconcentrated(self):
        res = run_cli("classify", "C5", "--weight", "disc")
        data = json.loads(res.stdout)
        assert data["status"] == "not-semiconcentrated"

    @pytest.mark.parametrize("spec", ["4T3", "product(C2,C2)"])
    def test_tsv_fields_match_json(self, capsys, spec):
        args = ["classify", spec, "--weight", "disc"]
        assert cli_main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert cli_main(args + ["--format", "tsv"]) == 0
        fields = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        expected = {k: data[k] for k in ("group", "weight", "status", "fitting_status",
                                         "min_weight")}
        expected["min_types"] = ",".join(data["min_types"])
        for i, W in enumerate(data["witnesses"], start=1):
            expected[f"witness{i}"] = " ".join(W)
        assert data["witnesses"] and fields == expected


class TestCliAnalyze:
    def test_order_1536_report_byte_identical(self, capsys, recorded_lps):
        # the only tier-1 analysis above order 16: 12 witnesses, and a
        # gauge LP of 410 rows x 424 variables for the threshold and
        # another for the membership of the pole point; their pivot counts
        # pin Bland's rule on large cost rows.  CI compares the slower
        # wreath(C2,C10) report the same way
        assert cli_main(["analyze", "wreath(4T3,C3)", "--weight", "disc"]) == 0
        expected = (REFERENCE / "analyze_wreath_4T3_C3_disc.txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected
        assert [r.pivots for _, r in recorded_lps] == [10, 8]

    def test_hull_too_small_report_byte_identical(self, capsys):
        # the one verdict no other reference pins: threshold = sigma_a = 1/16
        args = ["analyze", "product(C2,16T11)", "--weight", "disc", "--profile", "burgess-yang"]
        assert cli_main(args) == 0
        expected = (REFERENCE / "analyze_product_C2_16T11_disc_burgess-yang.txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected

    def test_tsv_fields_match_json(self, capsys):
        args = ["analyze", "4T3", "--weight", "disc"]
        assert cli_main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert cli_main(args + ["--format", "tsv"]) == 0
        header, values = capsys.readouterr().out.splitlines()
        keys = ["group", "degree", "weight", "profile", "cyclotomic", "a_inv", "sigma_a",
                "threshold", "delta", "b_low", "b_high", "xi", "power_saving_exponent",
                "verdict", "published_check"]
        assert header.split("\t") == keys
        assert values.split("\t") == [str(data[k]) for k in keys]

    def test_8t4_disc(self):
        res = run_cli("analyze", "8T4", "--weight", "disc", "--profile", "paper-d4")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["power_saving_exponent"] == "61/274"
        assert data["published_check"] == "matches-published"

    def test_8t11_disc(self):
        res = run_cli("analyze", "8T11", "--weight", "disc", "--profile", "paper-16t11")
        data = json.loads(res.stdout)
        assert data["power_saving_exponent"] == "19/55"

    def test_inv_gamma_secondary_flag_via_family(self):
        res = run_cli("analyze", "4T3", "--weight", "inv-gamma:1/5",
                      "--profile", "paper-d4")
        data = json.loads(res.stdout)
        assert data["power_saving_exponent"] == "201/242"

    def test_explicit_witness_file(self, tmp_path):
        wits = tmp_path / "wits.txt"
        wits.write_text("(1,4)(2,3) (1,3)(2,4)\n(1,3) (1,3)(2,4)\n", encoding="utf-8")
        res = run_cli("analyze", "4T3", "--weight", "disc",
                      "--witnesses", str(wits))
        data = json.loads(res.stdout)
        assert data["threshold"] == "9/16"
        assert len(data["witnesses"]) == 2

    def test_restricted_cyclotomic_profile(self, tmp_path):
        qi = tmp_path / "qi.cyc"
        qi.write_text("4 1\n", encoding="utf-8")
        res = run_cli("analyze", "16T11", "--weight", "disc", "--cyc", str(qi))
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["threshold"] == "23/192"
        assert len(data["pole_point"]) == 9  # 4A split into 4A1 / 4A-1
        assert data["verdict"] == "asymptotic-with-power-saving"

    def test_usage_error_exit_code(self):
        res = run_cli("analyze", "4T3")
        assert res.returncode == 1

    def test_unknown_group_exit_code(self):
        res = run_cli("analyze", "nope", "--weight", "disc")
        assert res.returncode == 2

    @pytest.mark.parametrize("args", [
        ("4T3", "--weight", "disc", "--cyc", "{zero_modulus}"),
        ("C1", "--weight", "disc"),
        ("4T3", "--weight", "disc", "--profile", "lindelof:abc"),
        ("4T3", "--weight", "disc", "--profile", "lindelof(abc)"),
        ("4T3", "--weight", "inv-gamma:abc"),
        ("4T3", "--weight", "inv-gamma:1/0"),
        # the right-regular image of 8T4's generator a: normal and abelian,
        # but not an element of 8T4
        ("8T4", "--weight", "disc", "--witnesses", "{outside}"),
    ])
    def test_bad_input_exits_2_without_traceback(self, tmp_path, args):
        zero_modulus = tmp_path / "zero.cyc"
        zero_modulus.write_text("0 1\n", encoding="utf-8")
        outside = tmp_path / "outside.wit"
        outside.write_text("(1,7,6,4)(2,3,5,8)\n", encoding="utf-8")
        res = run_cli("analyze", *(a.format(zero_modulus=zero_modulus, outside=outside)
                                   for a in args))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr


class TestBatch:
    def test_golden_files_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        code = cli_main(["batch", str(GOLDEN / "golden_manifest.txt"),
                         "--out", str(out)])
        assert code == 0
        for golden in sorted(GOLDEN.glob("report_*.json")) + [GOLDEN / "summary.json"]:
            produced = out / golden.name
            assert produced.read_bytes() == golden.read_bytes(), golden.name

    def test_parallel_run_identical(self, tmp_path):
        out = tmp_path / "par"
        code = cli_main(["batch", str(GOLDEN / "golden_manifest.txt"),
                         "--out", str(out), "--jobs", "2"])
        assert code == 0
        for golden in sorted(GOLDEN.glob("report_*.json")) + [GOLDEN / "summary.json"]:
            assert (out / golden.name).read_bytes() == golden.read_bytes(), golden.name

    def test_all_goldens_succeed(self):
        summary = json.loads((GOLDEN / "summary.json").read_text())
        assert len(summary["requests"]) == 6
        assert all(r["status"] == "ok" for r in summary["requests"])
        assert all(r["verdict"] == "asymptotic-with-power-saving"
                   for r in summary["requests"])

    def test_jobs_never_exceed_the_request_count(self, tmp_path, monkeypatch):
        started = []

        class SerialPool:
            """Records the worker count asked for and maps in this process."""
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        manifest = tmp_path / "m.txt"
        manifest.write_text("4T3 disc paper-d4 Q\n# comment\n8T4 disc paper-d4 Q\n",
                            encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["batch", str(manifest), "--out", str(out), "--jobs", "64"]) == 0
        assert started == [2]
        for name, golden in (("report_0001.json", "report_0002.json"),
                             ("report_0003.json", "report_0003.json")):
            assert (out / name).read_bytes() == (GOLDEN / golden).read_bytes()
        one = tmp_path / "one.txt"
        one.write_text("4T3 disc paper-d4 Q\n", encoding="utf-8")
        assert cli_main(["batch", str(one), "--out", str(tmp_path / "o1"), "--jobs", "64"]) == 0
        assert started == [2]  # one request runs in this process

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        manifest = tmp_path / "m.txt"
        manifest.write_text("4T3 disc paper-d4 Q\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["batch", str(manifest), "--out", str(out), "--jobs", jobs]) == 1
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        code = cli_main(["batch", str(manifest), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["requests"] == []

    def test_missing_group_file_diagnostics(self, tmp_path, capsys):
        manifest = tmp_path / "bad.txt"
        manifest.write_text("4T3 disc paper-d4 Q\nmissing.group disc paper-d4 Q\n",
                            encoding="utf-8")
        out = tmp_path / "out"
        code = cli_main(["batch", str(manifest), "--out", str(out)])
        captured = capsys.readouterr()
        assert code != 0
        assert "line 2" in captured.err
        summary = json.loads((out / "summary.json").read_text())
        statuses = {r["line"]: r["status"] for r in summary["requests"]}
        assert statuses[1] == "ok" and statuses[2] == "error"

    def test_bad_literal_line_spares_the_good_line(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("4T3 disc paper-d4 Q\n4T3 inv-gamma:1/0 paper-d4 Q\n",
                            encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["batch", str(manifest), "--out", str(out)]) == 2
        assert (out / "report_0001.json").exists()
        assert not (out / "report_0002.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        errors = [r for r in summary["requests"] if r["status"] == "error"]
        assert [r["line"] for r in errors] == [2]
        assert errors[0]["detail"].startswith("ValidationError: ")

    def test_malformed_line_spares_the_good_line(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("4T3 disc paper-d4 Q\n4T3 disc\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["batch", str(manifest), "--out", str(out)]) == 2
        assert (out / "report_0001.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        errors = [r for r in summary["requests"] if r["status"] == "error"]
        assert [r["line"] for r in errors] == [2]
        assert errors[0]["detail"].startswith("ParseError: manifest line 2: ")
        assert len(summary["requests"]) == 2

    def test_resource_cap_line_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hull_lp, "DEFAULT_PIVOT_CAP", 3)
        manifest = tmp_path / "m.txt"
        manifest.write_text("4T3 disc paper-d4 Q\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["batch", str(manifest), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["requests"][0]["status"] == "error"
        assert summary["requests"][0]["detail"].startswith("ResourceCapError: ")

    def test_deep_tower_line_spares_the_good_line(self, tmp_path):
        manifest = tmp_path / "two.manifest"
        manifest.write_text(f"4T3 disc paper-d4 Q\n{DEEP_TOWER} disc paper-d4 Q\n",
                            encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["batch", str(manifest), "--out", str(out)]) == 3
        assert (out / "report_0001.json").read_bytes() == (GOLDEN / "report_0002.json").read_bytes()
        summary = json.loads((out / "summary.json").read_text())
        assert [r["status"] for r in summary["requests"]] == ["ok", "error"]
        assert summary["requests"][1]["detail"].startswith("ResourceCapError: ")

    def test_hull_too_small_is_not_an_error(self, tmp_path):
        wits = tmp_path / "wits.txt"
        wits.write_text("(1,4)(2,3) (1,3)(2,4)\n(1,3) (1,3)(2,4)\n", encoding="utf-8")
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"4T3 prodram paper-d4 Q {wits}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = cli_main(["batch", str(manifest), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["requests"][0]["verdict"] == "hull-too-small"


class TestCustomInputFiles:
    def test_custom_weight_and_profile_files(self, tmp_path):
        weight = tmp_path / "w.txt"
        weight.write_text("2A 2\n2B 2\n2C 1\n4A 3\n", encoding="utf-8")
        profile = tmp_path / "p.txt"
        profile.write_text("gamma 1/2\nalpha * 3/8\nbeta 2A 1/3\nbeta * 3/4\n",
                           encoding="utf-8")
        res = run_cli("analyze", "4T3", "--weight", str(weight),
                      "--profile", str(profile))
        assert res.returncode == 0
        data = json.loads(res.stdout)
        # identical numbers to the quartic discriminant run
        assert data["threshold"] == "9/16"
        assert data["power_saving_exponent"] == "15/22"

    @pytest.mark.parametrize("weight_text, profile_text, message", [
        ("2A 2\n2B 2\n2C 1\n4A 3\n9Z 5\n", "alpha * 3/8\n",
         "ParseError: line 5: unknown type label '9Z'"),
        ("2A 2\n2B 2\n2C 1\n4A 3\n", "alpha 2Z 1/2\nalpha * 3/8\n",
         "ParseError: line 1: unknown type label '2Z'"),
        ("2A 2\n2B 2\n2C 1\n4A 3\n", "alpha * 3/8\nbeta * 3/4\nbeta 4a 1/2\n",
         "ParseError: line 3: unknown type label '4a'"),
    ])
    def test_unknown_label_exits_2(self, tmp_path, capsys, weight_text, profile_text, message):
        weight = tmp_path / "w.txt"
        weight.write_text(weight_text, encoding="utf-8")
        profile = tmp_path / "p.txt"
        profile.write_text(profile_text, encoding="utf-8")
        assert cli_main(["analyze", "4T3", "--weight", str(weight),
                         "--profile", str(profile)]) == 2
        assert message in capsys.readouterr().err

    def test_profile_without_beta_is_asymptotic_only(self, tmp_path):
        profile = tmp_path / "p.txt"
        profile.write_text("gamma 1/2\nalpha * 3/8\n", encoding="utf-8")
        res = run_cli("analyze", "4T3", "--weight", "disc", "--profile", str(profile))
        data = json.loads(res.stdout)
        assert data["verdict"] == "asymptotic-only"
        assert data["xi"] is None and data["power_saving_exponent"] is None

    def test_classes_on_file_entry(self, tmp_path):
        path = tmp_path / "v4.group"
        path.write_text("name V4reg\ndegree 4\n(1,2)(3,4)\n(1,3)(2,4)\n",
                        encoding="utf-8")
        res = run_cli("classes", str(path), "--format", "json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert len(data["classes"]) == 3
        assert all(r["index4"] == 2 for r in data["classes"])

    def test_resource_cap_exit_code(self, tmp_path):
        big = tmp_path / "s10.group"
        big.write_text("name S10\ndegree 10\n(1,2,3,4,5,6,7,8,9,10)\n(1,2)\n",
                       encoding="utf-8")
        res = run_cli("classes", str(big))
        assert res.returncode == 3
        assert "cap" in res.stderr


    def test_point_cap_exit_code(self, monkeypatch, tmp_path, capsys):
        # the 40-cycle generates 40 x 40 = 1600 points, far below the element
        # cap; a group file is not assumed transitive, so closure refuses it
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", 1000)
        cycle = tmp_path / "c40.group"
        cycle.write_text(f"name C40\ndegree 40\n({','.join(map(str, range(1, 41)))})\n",
                         encoding="utf-8")
        assert cli_main(["classes", str(cycle)]) == 3
        err = capsys.readouterr().err
        assert "point cap of 1000: 26 elements x degree 40 = 1040 points" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, degree", [("C1001", 1001), ("product(F,F)", 1600),
                                              ("wreath(F,F)", 1600), ("file", 1001)])
    def test_degree_above_point_cap_refused(self, spec, degree, monkeypatch, tmp_path,
                                            capsys):
        # no closure of a degree above the point cap fits under it, so the
        # degree is refused before any permutation of that degree is built
        # (not by closure, whose message names an element count).  F is a
        # group file of degree 40 holding one transposition: intransitive,
        # so its product reaches the degree check, where C40 would already
        # be refused by the transitive rule
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", 1000)
        if spec == "file":
            spec = tmp_path / "big.group"
            spec.write_text(f"name big\ndegree {degree}\n(1,2)\n", encoding="utf-8")
        else:
            factor = tmp_path / "f40.group"
            factor.write_text("name F\ndegree 40\n(1,2)\n", encoding="utf-8")
            spec = spec.replace("F", str(factor))
        assert cli_main(["classes", str(spec)]) == 3
        err = capsys.readouterr().err
        assert f"resource cap: degree {degree} exceeds the point cap of 1000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, degree", [pytest.param(spec, degree, id=spec) for spec, degree
                                              in [("product(C5,C7)", 35), ("wreath(C5,C7)", 35),
                                                  ("C40", 40)]])
    def test_transitive_degree_squared_above_point_cap_refused(self, spec, degree,
                                                               monkeypatch, capsys):
        # the degree passes the degree check, but a transitive group of
        # degree d has at least d elements, d x d points above the cap, so
        # no generator is built
        monkeypatch.setattr(perm, "DEFAULT_POINT_CAP", 1000)
        assert cli_main(["classes", spec]) == 3
        err = capsys.readouterr().err
        assert (f"resource cap: transitive degree {degree} exceeds the point cap of 1000: "
                f"at least {degree} elements x degree {degree} = {degree * degree} points") in err
        assert "Traceback" not in err


def test_golden_certificates_verify_with_positive_margin(cyc_q):
    for lineno, parts in _parse_manifest(GOLDEN / "golden_manifest.txt"):
        label, weight, profile, cyc, witnesses = parts
        assert (cyc, witnesses) == ("Q", "auto")
        report = json.loads((GOLDEN / f"report_{lineno:04d}.json").read_text())
        entry = resolve_entry(label)
        types = entry.types(cyc_q)
        wt = resolve_weight(weight, entry, types)
        prof = make_profile(profile, types, cyc_q)
        regions = [build_region(entry.group, T, types, prof, cyc_q)
                   for T in analysis_witnesses(entry.group, types, wt)]
        cert = hull_lp.certificate_from_json(report["certificate"])
        point = {v: hull_lp.parse_rational(s) for v, s in report["pole_point"].items()}
        assert cert.epsilon > 0, lineno
        assert verify_certificate(cert, regions, point), lineno


def test_report_schema_rationals_roundtrip():
    report = json.loads((GOLDEN / "report_0006.json").read_text())
    assert report["schema_version"] == "1"
    from fractions import Fraction
    for key in ("a_inv", "sigma_a", "threshold", "delta", "xi",
                "power_saving_exponent"):
        value = report[key]
        num, den = value.split("/")
        assert str(Fraction(int(num), int(den))) in (value, num)
    cert = report["certificate"]
    assert sum(Fraction(x) for x in cert["lambdas"]) == 1


# ---------------------------------------------------------------------------
# fuzz at the input boundary: `classes` over random cyclotomic files
# ---------------------------------------------------------------------------

_cyc_line = st.builds(
    lambda e, units: f"{e} {','.join(map(str, units))}",
    st.integers(-3, 48), st.lists(st.integers(-20, 100), min_size=1, max_size=3))
_cyc_text = st.one_of(
    st.lists(_cyc_line, max_size=4).map("\n".join),
    st.text(alphabet="0123456789, -#x\n", max_size=30))


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(["4T3", "8T11", "C6", "S3", "C1"]), text=_cyc_text,
       fmt=st.sampled_from(["json", "tsv"]))
def test_classes_fuzz_exits_cleanly(tmp_path_factory, spec, text, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz.cyc"
    path.write_text(text, encoding="utf-8")
    code = cli_main(["classes", spec, "--cyc", str(path), "--format", fmt])
    assert code in (0, 2, 3)


# ---------------------------------------------------------------------------
# fuzz at the input boundary: `classes` over random group files
# ---------------------------------------------------------------------------

def _group_file(degree):
    """Name, degree and generator lines around one declared degree.

    Single cycles are valid; other cycle lists may repeat a point (images
    that are no bijection), leave 1..degree or be empty.
    """
    valid = (st.lists(st.integers(1, degree), min_size=1, max_size=degree, unique=True)
             if degree > 0 else st.nothing())
    messy = st.lists(st.integers(-1, degree + 2), max_size=4)
    cycles = st.lists(st.one_of(valid, messy), min_size=1, max_size=3)
    line = st.one_of(valid.map(lambda pts: [pts]), cycles).map(
        lambda cs: "".join(f"({','.join(map(str, pts))})" for pts in cs))
    return st.builds(lambda name, degree_line, gens: "\n".join([name, degree_line, *gens]),
                     st.sampled_from(["name G"] * 3 + ["name", "# comment\nname G"]),
                     st.sampled_from([f"degree {degree}"] * 4 + ["degree", "degree x"]),
                     st.lists(st.one_of(line, st.text(alphabet="()0123456789,- x", max_size=12)),
                              max_size=3))


_group_text = st.one_of(st.integers(-1, 6).flatmap(_group_file),
                        st.text(alphabet="namedgr ()0123456789,\n", max_size=40))


@settings(max_examples=150, deadline=None)
@given(text=_group_text)
def test_group_file_fuzz_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.grp"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["classes", str(path)]) in (0, 2, 3)


# ---------------------------------------------------------------------------
# fuzz at the input boundary: `analyze 4T3` over random weight, subconvexity
# and witness files, `batch` over random manifests
# ---------------------------------------------------------------------------

def _input_file(required, line, alphabet):
    """Random file text: lines from `required` (or none), random `line`s and
    blank or comment lines, shuffled; or raw characters of `alphabet`."""
    filler = st.sampled_from(["", "   ", "# note", "\t# indented"])
    lines = st.builds(lambda head, rest: head + rest, st.one_of(required, st.just([])),
                      st.lists(st.one_of(line, filler), max_size=4))
    return st.one_of(lines.flatmap(st.permutations).map("\n".join),
                     st.text(alphabet=alphabet, max_size=30))


_valid_rational = st.builds("{}/{}".format, st.integers(0, 12), st.integers(1, 12))
_rational = st.one_of(
    _valid_rational, _valid_rational,
    st.builds("{}/{}".format, st.integers(-3, 12), st.integers(-2, 12)),
    st.integers(-2, 12).map(str), st.sampled_from(["x", "1/", "3/8 1"]))
_d4_label = st.sampled_from(["2A", "2B", "2C", "4A", "*"] * 2 + ["4a", "9Z"])

_weight_text = _input_file(
    st.lists(st.integers(1, 9), min_size=4, max_size=4).map(
        lambda ws: [f"{lab} {w}" for lab, w in zip(("2A", "2B", "2C", "4A"), ws)]),
    st.one_of(st.builds("{} {}".format, _d4_label, _rational),
              st.lists(_d4_label, max_size=3).map(" ".join)),
    "24ABC/ -#\n")

_profile_text = _input_file(
    st.sampled_from([["alpha * 3/8"], ["gamma 1/2", "alpha * 3/8", "beta * 3/4"]]),
    st.one_of(st.builds("{} {} {}".format, st.sampled_from(["alpha", "beta"] * 3 + ["delta"]),
                        _d4_label, _rational),
              st.builds("gamma {}".format, _rational)),
    "abeglmpht*24ABC/ #\n")

_d4_cycles = st.sampled_from(["(1,2,3,4)", "(1,3)", "(1,3)(2,4)", "(1,4)(2,3)", "(2,4)",
                              "()", "(1,2)", "(1,5)", "(1,1)", "(1,x)"])
_witness_text = _input_file(
    st.just(["(1,4)(2,3) (1,3)(2,4)", "(1,3) (1,3)(2,4)"]),
    st.lists(_d4_cycles, min_size=1, max_size=3).map(" ".join),
    "(1234,) #\n")


@settings(max_examples=60, deadline=None)
@given(text=_weight_text)
def test_weight_file_fuzz_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.weight"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["analyze", "4T3", "--weight", str(path), "--profile", "paper-d4"]) in (0, 2, 3)


@settings(max_examples=60, deadline=None)
@given(text=_profile_text)
def test_subconvexity_file_fuzz_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.profile"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["analyze", "4T3", "--weight", "disc", "--profile", str(path)]) in (0, 2, 3)


@settings(max_examples=60, deadline=None)
@given(text=_witness_text)
def test_witness_file_fuzz_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.witnesses"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["analyze", "4T3", "--weight", "disc", "--witnesses", str(path)]) in (0, 2, 3)


_spec_atom = st.one_of(
    st.integers(-2, 6).map("C{}".format),
    st.sampled_from(["S3", "4T3", "8T4"]),
    st.sampled_from(["", " ", ".", "C", "Cx", "T4", "4T", "(", ")", ",", "()", "product",
                     "wreath(", "8T4)", "S3,", "16T777"]))
# well-formed, a paren or comma dropped, or one too many
_spec_shapes = ["{op}({a},{b})"] * 4 + [
    "{op}({a},{b}", "{op}{a},{b})", "{op}({a}{b})", "{op}({a} {b})",
    "{op}(({a},{b})", "{op}({a},{b}))", "{op}({a},,{b})", "{op}({a},{b},)"]


def _combinator(arg):
    return st.builds(lambda shape, op, a, b: shape.format(op=op, a=a, b=b),
                     st.sampled_from(_spec_shapes), st.sampled_from(["product", "wreath"]),
                     arg, arg)


_spec = st.one_of(_spec_atom, _combinator(_spec_atom),
                  _combinator(st.one_of(_spec_atom, _combinator(_spec_atom))))


@settings(max_examples=100, deadline=None)
@given(spec=_spec)
def test_spec_fuzz_exits_cleanly(spec):
    # wreath products of the atoms reach orders of 10^7; a lower element
    # cap sends them to the resource-cap exit after a few ms
    with mock.patch.object(perm, "DEFAULT_ELEMENT_CAP", 1000):
        assert cli_main(["classes", spec]) in (0, 2, 3), spec


@pytest.mark.parametrize("option", ["--weight", "--profile", "--cyc", "--witnesses"])
def test_unreadable_input_file_exits_2(tmp_path, capsys, option):
    args = {"--weight": "disc", option: str(tmp_path)}
    assert cli_main(["analyze", "4T3", *(x for kv in args.items() for x in kv)]) == 2
    assert f"cannot read {tmp_path}: Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command, target, reason", [
    (["classes", "4T3"], "", "Is a directory"),
    (["analyze", "4T3", "--weight", "disc"], "missing/x.json", "No such file or directory"),
    (["batch", "m.manifest"], "m.manifest", "File exists"),
], ids=["classes-to-directory", "analyze-to-missing-directory", "batch-to-file"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command, target, reason):
    (tmp_path / "m.manifest").write_text("4T3 disc paper-d4 Q\n", encoding="utf-8")
    out = tmp_path / target
    command = [str(tmp_path / arg) if arg.endswith(".manifest") else arg for arg in command]
    assert cli_main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"ValidationError: cannot write {out}: {reason}\n"


@pytest.mark.parametrize("spec", ["", " ", "wreath(,)", "product(C2,)"])
def test_empty_spec_is_unknown(capsys, spec):
    assert cli_main(["classes", spec]) == 2
    assert "unknown group spec ''" in capsys.readouterr().err


def test_non_utf8_group_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.group"
    path.write_bytes(b"name \xd0\xff\n")
    assert cli_main(["classes", str(path)]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


_manifest_line = st.one_of(
    st.builds(lambda fields, witnesses: " ".join(fields + witnesses),
              st.tuples(st.sampled_from(["4T3", "8T4", "C2", "S3", "product(C2,C2)", "16T777"]),
                        st.sampled_from(["disc", "prodram", "cond-d4", "inv-gamma:1/2",
                                         "inv-gamma:0", "w"]),
                        st.sampled_from(["paper-d4", "burgess-yang", "convexity",
                                         "lindelof:1/3", "nope"]),
                        st.sampled_from(["Q", "nope"])).map(list),
              st.sampled_from([[], [], ["auto"], ["missing.txt"]])),
    st.lists(st.sampled_from(["4T3", "disc", "Q", "auto"]), max_size=6).map(" ".join))
_manifest_text = _input_file(st.just(["4T3 disc paper-d4 Q"]), _manifest_line,
                             "4T3 discQ#\n")


@settings(max_examples=30, deadline=None)
@given(text=_manifest_text)
def test_manifest_fuzz_exits_cleanly(tmp_path_factory, text):
    manifest = tmp_path_factory.getbasetemp() / "fuzz.manifest"
    manifest.write_text(text, encoding="utf-8")
    out = tmp_path_factory.mktemp("batch")
    assert cli_main(["batch", str(manifest), "--out", str(out), "--jobs", "1"]) in (0, 2, 3)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    content = [line for line in text.splitlines() if line.strip()
               and not line.strip().startswith("#")]
    assert len(summary["requests"]) == len(content)
