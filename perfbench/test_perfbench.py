"""Tests of the benchmark itself, run in its one-pass smoke mode:

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 7

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import refspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def smoke(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                           "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    out = {}
    for trace in (0, 1):
        proc = smoke(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        record = HERE / "out" / f"{request.param}-seed{SEED}-trace{trace}.json"
        out[trace] = (json.loads(proc.stdout.strip().splitlines()[-1]),
                      json.loads(record.read_text(encoding="utf-8")))
    return out


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_every_end_to_end_metric_is_printed_with_its_unit(runs):
    result, _ = runs[0]
    check_metrics(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_is_printed_with_its_unit(runs):
    result, _ = runs[1]
    check_metrics(result, BENCHMARK["per_layer"])


def test_traced_run_has_every_layer_span_for_every_request(runs):
    _, record = runs[1]
    traced = [p for p in record["passes"] if p["traced"]]
    assert traced
    for p in traced:
        for request in record["requests"]:
            names = {s["name"] for s in p["spans"] if s["request"] == request["id"]}
            assert set(request["layers"]) <= names, request["id"]


def test_report_bytes_are_identical_with_tracing_on_and_off(runs):
    digests = [p["digests"] for trace in (0, 1) for p in runs[trace][1]["passes"]]
    assert len(digests) == 3
    assert digests[0] == digests[1] == digests[2]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = smoke("golden", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_witness_check_uses_plain_tuples():
    d4 = [(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3),
          (3, 2, 1, 4), (1, 4, 3, 2), (2, 1, 4, 3), (4, 3, 2, 1)]
    gens = [(2, 3, 4, 1), (3, 2, 1, 4)]
    assert workloads.witness_problem(d4[:4], gens, 8) is None           # rotations
    assert workloads.witness_problem([d4[0], d4[4]], gens, 8) is not None  # not normal
    assert workloads.witness_problem(d4[:4] + [d4[4]], gens, 8) is not None
    assert workloads.witness_problem(d4, gens, 8) is not None           # not proper


def test_probe_check_counts_every_wrong_answer():
    probes = workloads.Probes(ROOT, SEED, smoke=True)
    request = probes.requests[0]
    key, _, w = request.args
    result = probes.run(request, tracing.NullTracer())
    thr, point, member, cert = result.detail
    assert member and probes.check(request, result, tracing.NullTracer()) is None

    def answered(scale, inside):
        req = workloads.Request(request.id, (key, scale, w))
        res = workloads.Result(result.text, (thr, point, inside, cert if inside else None))
        return probes.check(req, res, tracing.NullTracer())

    assert not answered(Fraction(1), True).known
    assert not answered(Fraction(3, 2), False).known
    assert answered(workloads.SUB_FLOOR, False).known


def test_reference_time_takes_out_the_sampler_and_the_host_speed():
    def sampler(scale):
        s = refspeed.SpeedSampler()
        s.starts = [scale * t for t in (0.0, 1.0, 2.0, 3.0)]
        s.durations = [scale * 0.1] * 4
        return s

    # 3.1 s with four 0.1 s samples in it: 2.7 s of program, 27 references
    assert sampler(1).handler_time(0.0, 3.1) == pytest.approx(0.4)
    assert sampler(1).ref_time(0.0, 3.1) == pytest.approx(27)
    assert sampler(2).ref_time(0.0, 6.2) == pytest.approx(27)   # a host half as fast
    assert sampler(1).ref_time(0.5, 1.5) == pytest.approx(9)    # a span between samples
