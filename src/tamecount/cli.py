"""Command-line surface: classes / classify / analyze / batch.

Exit codes: 0 success, 1 usage, 2 computation contract violation,
3 resource cap exceeded.  A hull-too-small analysis is a verdict, not an
error.  All output is deterministic: canonical JSON (sorted keys) or TSV.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from pathlib import Path

from .asymptotics import analyze
from .catalog import resolve_cyclotomic, resolve_entry, resolve_weight
from .concentration import analysis_witnesses, classify
from .errors import ParseError, ResourceCapError, TamecountError, ValidationError
from .hull_lp import parse_rational
from .perm import (content_lines, index_of, parse_permutation, read_input_file,
                   subgroup_generated)
from .ramtypes import weight_conductor_d4
from .regions import PRESET_ALPHA, make_profile, parse_subconvexity_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_RESOURCE = 3


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _resolve_profile(spec: str, types, cyc):
    lindelof = re.fullmatch(r"lindelof(?::(.*)|\((.*)\))?", spec)
    if lindelof:
        literal = lindelof.group(1) or lindelof.group(2)
        gamma = parse_rational(literal) if literal else None
        return make_profile("lindelof", types, cyc, gamma=gamma)
    if spec in PRESET_ALPHA:
        return make_profile(spec, types, cyc)
    path = Path(spec)
    if path.exists():
        return parse_subconvexity_file(read_input_file(path), types,
                                       name=f"custom:{path.name}")
    raise ValidationError(f"unknown profile spec {spec!r}")


def _resolve_witnesses(spec: str, entry, types, wt):
    if spec == "auto":
        return analysis_witnesses(entry.group, types, wt)
    path = Path(spec)
    if not path.exists():
        raise ValidationError(f"witness file {path} does not exist")
    witnesses = []
    for lineno, line in content_lines(read_input_file(path)):
        try:
            gens = [parse_permutation(tok, entry.group.degree) for tok in line.split()]
        except ParseError as exc:
            raise ParseError(f"witness file line {lineno}: {exc}") from None
        witnesses.append(subgroup_generated(entry.group, gens))
    if not witnesses:
        raise ValidationError("witness file lists no subgroups")
    return witnesses


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _writing(path):
    """An OSError while writing `path` becomes a ValidationError (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def _emit(text: str, out: str | Path | None):
    if out:
        with _writing(out):
            Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_classes(args) -> int:
    entry = resolve_entry(args.entry)
    cyc = resolve_cyclotomic(args.cyc)
    types = entry.types(cyc)
    by_degree = {entry.group.degree: types}
    if entry.sibling:
        sibling = resolve_entry(entry.sibling)
        by_degree[sibling.group.degree] = sibling.types(cyc)
    degrees = sorted(by_degree)
    representatives = {deg: {t.label: t.representative for t in by_degree[deg]}
                       for deg in degrees}
    conductor = weight_conductor_d4(types).weights if entry.conductor_family else None
    cols = ["label", "size", "order"] + [f"index{deg}" for deg in degrees]
    if conductor is not None:
        cols.append("conductor_weight")
    rows = []
    for t in sorted(types, key=lambda t: (t.order, t.label)):
        row = {"label": t.label, "size": t.size, "order": t.order}
        for deg in degrees:
            row[f"index{deg}"] = index_of(representatives[deg][t.label])
        if conductor is not None:
            row["conductor_weight"] = str(conductor[t.label])
        rows.append(row)
    if args.format == "json":
        _emit(canonical_json({"group": entry.label, "degree": entry.group.degree,
                              "classes": rows}), args.out)
    else:
        lines = ["\t".join(cols)]
        lines.extend("\t".join(str(r[c]) for c in cols) for r in rows)
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    entry = resolve_entry(args.entry)
    cyc = resolve_cyclotomic(args.cyc)
    types = entry.types(cyc)
    wt = resolve_weight(args.weight, entry, types)
    verdict = classify(entry.group, wt, types)
    data = {
        "group": entry.label,
        "weight": wt.name,
        "status": verdict.status,
        "fitting_status": verdict.fitting_status,
        "min_weight": str(verdict.min_weight),
        "min_types": list(verdict.min_type_labels),
        "witnesses": [sorted(g.cycle_string() for g in W if not g.is_identity())
                      for W in verdict.witnesses],
    }
    if args.format == "json":
        _emit(canonical_json(data), args.out)
    else:
        lines = [f"group\t{data['group']}", f"weight\t{data['weight']}",
                 f"status\t{data['status']}", f"fitting_status\t{data['fitting_status']}",
                 f"min_weight\t{data['min_weight']}",
                 f"min_types\t{','.join(data['min_types'])}"]
        for i, W in enumerate(data["witnesses"], start=1):
            lines.append(f"witness{i}\t{' '.join(W)}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def run_analysis_request(entry_spec: str, weight_spec: str, profile_spec: str,
                         cyc_spec: str, witness_spec: str = "auto"):
    """Resolve and run one analysis request; pure function of its arguments."""
    entry = resolve_entry(entry_spec)
    cyc = resolve_cyclotomic(cyc_spec)
    types = entry.types(cyc)
    wt = resolve_weight(weight_spec, entry, types)
    profile = _resolve_profile(profile_spec, types, cyc)
    witnesses = _resolve_witnesses(witness_spec, entry, types, wt)
    return analyze(entry.group, types, wt, witnesses, profile, cyc,
                   group_label=entry.label, weight_name=wt.name)


def _report_tsv(report) -> str:
    d = report.to_json_dict()
    keys = ["group", "degree", "weight", "profile", "cyclotomic", "a_inv", "sigma_a",
            "threshold", "delta", "b_low", "b_high", "xi", "power_saving_exponent",
            "verdict", "published_check"]
    return "\t".join(keys) + "\n" + "\t".join(str(d[k]) for k in keys) + "\n"


def cmd_analyze(args) -> int:
    report = run_analysis_request(args.entry, args.weight, args.profile, args.cyc,
                                  args.witnesses)
    if args.format == "json":
        _emit(canonical_json(report.to_json_dict()), args.out)
    else:
        _emit(_report_tsv(report), args.out)
    return EXIT_OK


def _parse_manifest(path: Path):
    """[(line number, fields)] per request line, `auto` appended to a
    four-field line.  A line with another field count is kept as read; it
    fails on its own when it runs."""
    requests = []
    for lineno, line in content_lines(read_input_file(path)):
        parts = line.split()
        if len(parts) == 4:
            parts.append("auto")
        requests.append((lineno, tuple(parts)))
    return requests


def _run_request_worker(item):
    """(line, exit code, report dict or error text) for one manifest line."""
    lineno, parts = item
    try:
        if len(parts) != 5:
            raise ParseError(
                f"manifest line {lineno}: expected 'label weight profile cyc [witnesses]'")
        report = run_analysis_request(*parts)
        return (lineno, EXIT_OK, report.to_json_dict())
    except TamecountError as exc:
        code = EXIT_RESOURCE if isinstance(exc, ResourceCapError) else EXIT_CONTRACT
        return (lineno, code, f"{type(exc).__name__}: {exc}")


def cmd_batch(args) -> int:
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    manifest = Path(args.manifest)
    if not manifest.exists():
        print(f"manifest {manifest} does not exist", file=sys.stderr)
        return EXIT_USAGE
    requests = _parse_manifest(manifest)
    outdir = Path(args.out) if args.out else None
    if outdir:
        with _writing(outdir):
            outdir.mkdir(parents=True, exist_ok=True)
    # a forked pool starts all its workers at the first submit
    workers = min(args.jobs, len(requests))
    if workers > 1:
        # imported here, not at module level: the process-pool machinery
        # (multiprocessing) adds ~1.6 MB to the start of every other command
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_request_worker, requests))
    else:
        results = [_run_request_worker(item) for item in requests]
    results.sort(key=lambda r: r[0])
    summary = []
    for lineno, code, payload in results:
        if code == EXIT_OK:
            name = f"report_{lineno:04d}.json"
            text = canonical_json(payload)
            _emit(text, outdir and outdir / name)
            summary.append({"line": lineno, "status": "ok", "report": name,
                            "verdict": payload["verdict"]})
        else:
            summary.append({"line": lineno, "status": "error", "detail": payload})
            print(f"line {lineno}: {payload}", file=sys.stderr)
    summary_text = canonical_json({"requests": summary})
    _emit(summary_text, outdir and outdir / "summary.json")
    return max((code for _, code, _ in results), default=EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamecount",
        description="tame ramification types, meromorphicity regions, and "
                    "power-saving exponents, all in exact rational arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cyc", default="Q", help="cyclotomic profile: Q or a file")
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = sub.add_parser("classes", help="class/type table of a catalog entry")
    p.add_argument("entry")
    common(p)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("classify", help="concentration verdict for a weight")
    p.add_argument("entry")
    p.add_argument("--weight", required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("analyze", help="full Malle report for one request")
    p.add_argument("entry")
    p.add_argument("--weight", required=True)
    p.add_argument("--profile", default="burgess-yang")
    p.add_argument("--witnesses", default="auto",
                   help="'auto' or a file with one witness per line "
                        "(whitespace-separated generators in cycle notation)")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("batch", help="run a manifest of analysis requests")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="report archive directory")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except TamecountError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
