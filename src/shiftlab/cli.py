"""Command-line front end: sweeps, diagnostics, verifiers, and presets.

The library underneath is a neutral calculator; expectations live here.
Reports are emitted as canonical JSON (sorted keys, two-space indent) so
that identical configurations produce byte-identical documents — the
wall-clock field stays null unless timings are requested explicitly.

Exit status: 0 when the expectation matched (or no expectation given),
1 on an expectation or golden mismatch, 2 on usage/config errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShiftLabError
from .families import (
    REFUTED,
    UNDETERMINED,
    WITNESSED,
    FamilyQuery,
    GridParams,
    fa_grid_report,
    fsa_grid_report,
    parse_family_spec,
)
from .intset import ArithmeticProgression, Naturals, Record, materialize
from .points import (
    GeneratedPoint,
    build_transitive_point,
    champernowne,
    decode_point,
    encode_point,
    entering_window,
    periodic_point,
)
from .subshift import FullShift, Word, parse_shift_rule
from .dynamics import (
    FAILS_ON_WINDOW,
    check_a_transitive,
    check_delta_a_transitive,
    check_transitive,
    point_diagnostic,
    verify_delta_product,
    verify_nuv_pairs,
    verify_orbit_closure_prop,
)

SCHEMA_VERSION = 1
SAMPLE_LIMIT = 16

GOLDEN_DIR = Path(__file__).parent / "golden"


class RunConfig(Record):
    """One resolved invocation; exactly one command is populated."""

    command: str
    rule: str | None = None
    vector: tuple[int, ...] | None = None
    delta: bool = False
    mode: str = "plain"
    wordlen: int = 1
    horizon: int = 1024
    family: str | None = None
    grid: str | None = None
    point: str | None = None
    pointlen: int = 4
    spacer_max: int = 4096
    cylinders: tuple[str, ...] = ()
    prop: str | None = None
    depth: int = 2
    hcmp: int | None = None
    preset: str | None = None
    preset_arg: int | None = None
    regen_golden: bool = False
    expect: str = "any"
    fmt: str = "json"
    threads: int = 1
    cache_dir: str | None = None
    timings: bool = False

    def __post_init__(self) -> None:
        if self.expect not in ("witnessed", "fails", "any"):
            raise ShiftLabError(f"unknown expectation {self.expect!r}")
        if self.fmt not in ("json", "markdown"):
            raise ShiftLabError(f"unknown format {self.fmt!r}")
        if self.threads < 1:
            raise ShiftLabError(f"--threads must be >= 1, got {self.threads}")


# ---------------------------------------------------------------------------
# report assembly


def _outcome_row(outcome) -> list:
    row = [list(outcome.words), outcome.witness]
    if outcome.detail and "n0" in outcome.detail:
        row.append({"n0": outcome.detail["n0"]})
    return row


def _collect_certificates(candidates) -> list[dict]:
    """The distinct certificates among ``candidates``, in order of first occurrence."""
    return list({json.dumps(c, sort_keys=True): c for c in candidates if c}.values())


def _sweep_payload(report) -> tuple[str, dict, list[dict], int]:
    witnesses = {
        "total": len(report.outcomes),
        "failing": list(report.failing) if report.failing else None,
        "sample": [_outcome_row(o) for o in report.outcomes[:SAMPLE_LIMIT]],
    }
    if "max_witness" in report.stats:
        witnesses["max_witness"] = report.stats["max_witness"]
    certs = _collect_certificates(  # the sparse detail map, in tuple order
        detail.get("certificate") for detail in report.outcomes.details.values()
    )
    return report.verdict, witnesses, certs, len(report.outcomes)


def _assemble(config_echo: dict, verdict: str, witnesses, certificates, tuples) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_echo,
        "verdict": verdict,
        "witnesses": witnesses,
        "certificates": certificates,
        "tuples_checked": tuples,
        "elapsed_ms": None,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_markdown(report: dict) -> str:
    lines = [
        f"# shiftlab report (schema {report['schema_version']})",
        "",
        "| key | value |",
        "| --- | --- |",
        f"| verdict | {report['verdict']} |",
        f"| tuples checked | {report['tuples_checked']} |",
    ]
    for key, value in sorted(report["config"].items()):
        lines.append(f"| config.{key} | {value} |")
    certs = report.get("certificates") or []
    for cert in certs:
        lines.append(f"| certificate | {cert.get('name')} |")
    witnesses = report.get("witnesses")
    if isinstance(witnesses, dict) and witnesses.get("sample"):
        lines += ["", "| tuple | witness |", "| --- | --- |"]
        for row in witnesses["sample"]:
            lines.append(f"| {','.join(row[0])} | {row[1]} |")
    if isinstance(witnesses, list):
        lines += ["", "| item | verdict |", "| --- | --- |"]
        for row in witnesses:
            lines.append(f"| {row[0]} | {row[1]} |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# points with optional cache


def _cached_point(config: RunConfig, rule) -> GeneratedPoint:
    kind = config.point or "greedy"
    if kind == "champernowne":
        return champernowne(config.pointlen)
    if kind.startswith("periodic:"):
        w = Word.from_string(kind.split(":", 1)[1])
        return periodic_point(rule, w, config.horizon + config.wordlen + 1)
    if kind != "greedy":
        raise ShiftLabError(f"unknown point kind {kind!r}")
    cache_path = None
    if config.cache_dir:
        import hashlib  # imported here, so runs without a cache never load it
        tag = f"{rule.literal()}|l{config.pointlen}|g{config.spacer_max}"
        digest = hashlib.sha256(tag.encode()).hexdigest()[:16]
        cache_path = Path(config.cache_dir) / f"point-{digest}.json"
        try:
            payload = json.loads(cache_path.read_text())
            # a cold build places at most 2^n words of each length n <= l,
            # each after a spacer <= g_max, so no entry it wrote is longer
            fits = (payload["rule"], payload["scale"], payload["g_max"]) == (
                rule.literal(), config.pointlen, config.spacer_max
            ) and payload["length"] <= (config.spacer_max + config.pointlen) << (
                config.pointlen + 1
            )
        except (FileNotFoundError, KeyError, TypeError, ValueError):
            fits = False  # a missing, truncated or foreign entry is a miss: rebuild it
        except OSError as exc:  # a file where the directory should be, a directory as entry
            raise ConfigError(f"unusable --cache-dir: {exc}") from None
        if fits:
            try:
                return decode_point(payload)
            except ConfigError:
                pass  # and so is a corrupt one
    point = build_transitive_point(rule, config.pointlen, config.spacer_max)
    if cache_path is not None:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            # write beside the entry and rename, so readers never see a partial file
            fd, tmp = tempfile.mkstemp(dir=cache_path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as f:
                    f.write(json.dumps(encode_point(point), separators=(",", ":")))
                os.replace(tmp, cache_path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise ConfigError(f"unusable --cache-dir: {exc}") from None
    return point


# ---------------------------------------------------------------------------
# commands


def _echo(config: RunConfig, **extra) -> dict:
    base = {"command": config.command, "rule": config.rule}
    base.update(extra)
    return base


def _run_check(config: RunConfig) -> dict:
    rule = parse_shift_rule(config.rule)
    if config.vector and config.mode != "plain":
        raise ConfigError(f"--mode {config.mode} does not apply to --vector sweeps")
    if config.delta:
        if not config.vector:
            raise ShiftLabError("check --delta needs --vector")
        report = check_delta_a_transitive(
            rule, config.vector, config.wordlen, config.horizon
        )
    elif config.vector:
        report = check_a_transitive(rule, config.vector, config.wordlen, config.horizon)
    else:
        report = check_transitive(rule, config.wordlen, config.horizon, config.mode)
    verdict, witnesses, certs, tuples = _sweep_payload(report)
    echo = _echo(
        config,
        vector=list(config.vector) if config.vector else None,
        delta=config.delta,
        mode=config.mode if not config.vector else None,
        wordlen=config.wordlen,
        horizon=config.horizon,
    )
    return _assemble(echo, verdict, witnesses, certs, tuples)


def _apply_grid_override(query: FamilyQuery, grid_text: str | None) -> FamilyQuery:
    if not grid_text:
        return query
    try:
        parts = [int(p) for p in grid_text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (2, 3):
        raise ShiftLabError(f"bad grid {grid_text!r}; want Nmax,Kmax[,g]")
    return FamilyQuery(query.kind, query.spec, query.vector, GridParams(*parts), query.m_max)


def _run_diagnose(config: RunConfig) -> dict:
    rule = parse_shift_rule(config.rule)
    if not config.family:
        raise ShiftLabError("diagnose needs --family")
    query = _apply_grid_override(parse_family_spec(config.family), config.grid)
    point = _cached_point(config, rule)
    words = [Word.from_string(w) for w in config.cylinders] or None
    report = point_diagnostic(
        rule, point, config.wordlen, config.horizon, query, words
    )
    witnesses = [
        [word, rep.verdict, rep.interpretation] for word, rep in report.per_cylinder
    ]
    certs = _collect_certificates(rep.certificate for _, rep in report.per_cylinder)
    echo = _echo(
        config,
        family=query.literal(),
        point=config.point or "greedy",
        pointlen=config.pointlen,
        wordlen=config.wordlen,
        horizon=config.horizon,
    )
    return _assemble(echo, report.verdict, witnesses, certs, len(report.per_cylinder))


def _run_verify(config: RunConfig) -> dict:
    rule = parse_shift_rule(config.rule)
    if config.prop == "nuv":
        point = _cached_point(config, rule)
        h = min(config.horizon, len(point))
        h_cmp = config.hcmp if config.hcmp is not None else h // 4
        pairs = verify_nuv_pairs(rule, point, config.wordlen, h, h_cmp)
        mismatched = [[r.u, r.v, list(r.mismatches[:8])] for r in pairs if not r.equal]
        verdict = WITNESSED if not mismatched else UNDETERMINED
        witnesses = {
            "pairs": len(pairs),
            "h_cmp": h_cmp,
            "mismatched": mismatched[:SAMPLE_LIMIT],
        }
        echo = _echo(
            config, prop="nuv", wordlen=config.wordlen, horizon=h, hcmp=h_cmp,
            point=config.point or "greedy", pointlen=config.pointlen,
        )
        return _assemble(echo, verdict, witnesses, [], len(pairs))
    if config.prop in ("orbit-closure", "delta-product") and not config.vector:
        raise ShiftLabError(f"--prop {config.prop} needs --vector")
    if config.prop == "orbit-closure":
        report = verify_orbit_closure_prop(
            rule, config.vector, config.wordlen, config.horizon
        )
        lhs, rhs = report.lhs, report.rhs

        def row(t: int) -> list:
            return [list(lhs[t].words), lhs[t].witness, rhs[t].witness]

        disagreeing = np.flatnonzero((lhs.witnesses == 0) != (rhs.witnesses == 0))
        verdict = WITNESSED if report.agree else FAILS_ON_WINDOW
        witnesses = {
            "tuples": len(lhs),
            "a_prime": list(report.a_prime),
            "disagreeing": [row(t) for t in disagreeing[:SAMPLE_LIMIT].tolist()],
            "sample": [row(t) for t in range(min(SAMPLE_LIMIT, len(lhs)))],
        }
        echo = _echo(
            config,
            prop="orbit-closure",
            vector=list(config.vector),
            wordlen=config.wordlen,
            horizon=config.horizon,
        )
        return _assemble(echo, verdict, witnesses, [], len(lhs))
    if config.prop == "delta-product":
        report = verify_delta_product(
            rule, config.vector, config.depth, config.wordlen, config.horizon
        )
        verdict, witnesses, certs, tuples = _sweep_payload(report)
        echo = _echo(
            config,
            prop="delta-product",
            vector=list(config.vector),
            depth=config.depth,
            wordlen=config.wordlen,
            horizon=config.horizon,
        )
        return _assemble(echo, verdict, witnesses, certs, tuples)
    raise ShiftLabError(f"unknown property {config.prop!r}")


# ---------------------------------------------------------------------------
# presets


def _step(name: str, expected: str, report: dict) -> dict:
    return {
        "step": name,
        "expected": expected,
        "verdict": report["verdict"],
        "witnesses": report["witnesses"],
        "certificates": report["certificates"],
        "tuples_checked": report["tuples_checked"],
    }


# preset -> its steps as (step name, expected verdict, argv); {p} stands for
# the preset's argument, and the argv is split on whitespace
PRESET_STEPS = {
    "example-spacing-23": [
        ("multi (2,3) on 4-words", WITNESSED,
         "check --rule spacing(dyadic()) --vector 2,3 --wordlen 4 --horizon 20000"),
    ],
    "example-delta-p": [
        ("delta (1,2) centered 3-words", WITNESSED,
         "check --rule tripleratio({p}) --vector 1,2 --delta --wordlen 3 --horizon 10000"),
        ("delta (1,{p}) on ones", FAILS_ON_WINDOW,
         "check --rule tripleratio({p}) --vector 1,{p} --delta --wordlen 1 --horizon 1000000"),
    ],
    "lemma-nuv": [
        ("hitting equals entering differences", WITNESSED,
         "verify --rule full() --prop nuv --point champernowne --pointlen 8 --wordlen 3 "
         "--horizon 4096 --hcmp 512"),
    ],
    "thm-wm-point": [
        ("full shift: thick differences", WITNESSED,
         "diagnose --rule full() --point champernowne --pointlen 13 "
         "--family nabla(thick(16)) --wordlen 2 --horizon 100000"),
        ("evens: no 2-run in differences", UNDETERMINED,
         "diagnose --rule spacing(evens()) --point greedy --pointlen 8 --spacer-max 64 "
         "--family nabla(thick(2)) --wordlen 1 --horizon 644"),
    ],
    "prop-orbit-closure": [
        ("full shift a=(1,2,3)", WITNESSED,
         "verify --rule full() --prop orbit-closure --vector 1,2,3 --wordlen 2 --horizon 10000"),
        ("dyadic a=(2,3)", WITNESSED,
         "verify --rule spacing(dyadic()) --prop orbit-closure --vector 2,3 --wordlen 1 "
         "--horizon 10000"),
    ],
    "prop-delta-product": [
        ("product a=(2,5), n=2", WITNESSED,
         "verify --rule full() --prop delta-product --vector 2,5 --depth 2 --wordlen 2 "
         "--horizon 10000"),
        ("product a=(1,2), n=3", WITNESSED,
         "verify --rule full() --prop delta-product --vector 1,2 --depth 3 --wordlen 2 "
         "--horizon 10000"),
    ],
    "thm-multimin-diag": [  # the 2-cycle step has no CLI form; _preset_multimin_diag adds it
        ("fixed point: syndetic carriers", WITNESSED,
         "diagnose --rule full() --point periodic:0 --family fsa(1,2,3;2,1) --wordlen 1 "
         "--horizon 100 --cylinder 0"),
    ],
}


def _run_steps(rows: list[tuple[str, str, str]], p: int | None = None) -> list[dict]:
    """Each row's argv, parsed by `main`'s parser and run by its command's function."""
    steps = []
    for name, expected, argv in rows:
        config = _config_from_args(_parser().parse_args(argv.format(p=p).split()))
        steps.append(_step(name.format(p=p), expected, _COMMANDS[config.command](config)))
    return steps


def _preset_delta_p(p: int | None) -> list[dict]:
    if p is None or p <= 2:
        raise ShiftLabError("example-delta-p needs an integer argument > 2")
    return _run_steps(PRESET_STEPS["example-delta-p"], p)


def _report_step(name: str, expected: str, rep) -> dict:
    """A step from a library report that no argv reaches; it counts one tuple."""
    certificates = [rep.certificate] if rep.certificate else []
    return _step(name, expected, _assemble({}, rep.verdict, rep.witness, certificates, 1))


def _preset_fa_parity(_: int | None) -> list[dict]:
    from .families import fa_structural_refute_even

    steps = []
    naturals = materialize(Naturals(), 4096)
    for a in ((1, 2), (1, 3), (2, 4), (1, 3, 5)):
        rep = fa_structural_refute_even(a)
        steps.append(_report_step(f"evens excluded for {a}", REFUTED, rep))
        grid = fa_grid_report(naturals, a, GridParams(nmax=2, kmax=64))
        cells = grid.witness["cells"]
        witnesses = {"max_k": grid.witness["max_k"], "cells": cells}
        report = _assemble({}, grid.verdict, witnesses, [], cells)
        steps.append(_step(f"naturals witnessed for {a}", WITNESSED, report))
    return steps


def _preset_multimin_diag(_: int | None) -> list[dict]:
    steps = _run_steps(PRESET_STEPS["thm-multimin-diag"])
    cycle = periodic_point(FullShift(), Word.from_string("10"), 203)
    window = entering_window(FullShift(), cycle, Word.from_string("1"), 100)
    rep = fsa_grid_report(
        window, (1, 2), GridParams(nmax=2, g=1), rule=ArithmeticProgression(2, 2)
    )
    return steps + [_report_step("2-cycle: cell (0,1) impossible", REFUTED, rep)]


# preset -> a function of the preset's argument that returns its steps
PRESETS = {
    **{name: partial(_run_steps, rows) for name, rows in PRESET_STEPS.items()},
    "example-delta-p": _preset_delta_p,  # checks p, then runs its rows
    "fa-parity": _preset_fa_parity,
    "thm-multimin-diag": _preset_multimin_diag,  # its row, then the 2-cycle step
}


def _golden_name(config: RunConfig) -> str:
    if config.preset_arg is not None:
        return f"{config.preset}-{config.preset_arg}.json"
    return f"{config.preset}.json"


def _run_reproduce(config: RunConfig) -> tuple[dict, int]:
    if config.preset not in PRESETS:
        raise ShiftLabError(
            f"unknown preset {config.preset!r}; choose from "
            + ", ".join(sorted(PRESETS))
        )
    if config.preset_arg is not None and config.preset != "example-delta-p":
        raise ShiftLabError(f"preset {config.preset!r} takes no argument")
    steps = PRESETS[config.preset](config.preset_arg)
    ok = all(s["verdict"] == s["expected"] for s in steps)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "command": "reproduce",
            "preset": config.preset,
            "arg": config.preset_arg,
        },
        "verdict": "pass" if ok else "fail",
        "witnesses": steps,
        "certificates": [c for s in steps for c in s["certificates"]],
        "tuples_checked": sum(s["tuples_checked"] for s in steps),
        "elapsed_ms": None,
    }
    rendered = render_json(report)
    golden_path = GOLDEN_DIR / _golden_name(config)
    if config.regen_golden:
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(rendered)
        return report, 0 if ok else 1
    if not golden_path.exists():
        raise ShiftLabError(
            f"no golden report for {config.preset!r}; run with --regen-golden"
        )
    golden = golden_path.read_text()
    if golden != rendered:
        import difflib  # imported here: only a golden mismatch needs it
        diff = "\n".join(
            difflib.unified_diff(
                golden.splitlines(),
                rendered.splitlines(),
                fromfile="golden",
                tofile="current",
                lineterm="",
            )
        )
        print(diff, file=sys.stderr)
        return report, 1
    return report, 0 if ok else 1


# ---------------------------------------------------------------------------
# dispatch


def _expectation_status(config: RunConfig, verdict: str) -> int:
    if config.expect == "any":
        return 0
    witnessed = verdict in (WITNESSED, "pass")
    if config.expect == "witnessed":
        return 0 if witnessed else 1
    failed = verdict in (FAILS_ON_WINDOW, REFUTED, "fail")
    return 0 if failed else 1


# command -> the function that builds its report; each lambda looks its
# function up when called, so a wrapper bound over the module attribute
# (perfbench's tracer) sees preset steps as well as `main`
_COMMANDS = {
    "check": lambda config: _run_check(config),
    "diagnose": lambda config: _run_diagnose(config),
    "verify": lambda config: _run_verify(config),
}


def run_config(config: RunConfig) -> tuple[dict, int]:
    """Dispatch one configuration; returns (report, exit status)."""
    started = time.monotonic()
    if config.command == "reproduce":
        report, status = _run_reproduce(config)
    elif config.command in _COMMANDS:
        report = _COMMANDS[config.command](config)
        status = _expectation_status(config, report["verdict"])
    else:
        raise ShiftLabError(f"unknown command {config.command!r}")
    if config.timings:
        report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    return report, status


# ---------------------------------------------------------------------------
# argument parsing


def _vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}") from exc


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rule", required=True, help="shift rule literal")
    sub.add_argument("--wordlen", type=int, default=1)
    sub.add_argument("--horizon", type=int, default=1024)
    sub.add_argument("--expect", default="any", choices=("witnessed", "fails", "any"))
    sub.add_argument("--format", dest="fmt", default="json", choices=("json", "markdown"))
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--timings", action="store_true")
    sub.add_argument("--cache-dir", dest="cache_dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="windowed transitivity workbench for binary subshifts",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="transitivity sweeps")
    _add_common(check)
    check.add_argument("--vector", type=_vector, default=None)
    check.add_argument("--delta", action="store_true", help="diagonal variant")
    check.add_argument("--mode", default="plain", help="plain | thick(L) | cofinite_from")

    diag = subs.add_parser("diagnose", help="entering-window family reports")
    _add_common(diag)
    diag.add_argument("--family", required=True, help="family spec, e.g. nabla(thick(2))")
    diag.add_argument("--grid", default=None, help="Nmax,Kmax[,g] override")
    diag.add_argument("--point", default="greedy")
    diag.add_argument("--pointlen", type=int, default=4)
    diag.add_argument("--spacer-max", dest="spacer_max", type=int, default=4096)
    diag.add_argument(
        "--cylinder", action="append", dest="cylinders", default=None,
        help="restrict to this cylinder (repeatable)",
    )

    verify = subs.add_parser("verify", help="lemma/proposition verifiers")
    _add_common(verify)
    verify.add_argument(
        "--prop", required=True, choices=("nuv", "orbit-closure", "delta-product")
    )
    verify.add_argument("--vector", type=_vector, default=None)
    verify.add_argument("--depth", type=int, default=2, help="n for delta-product")
    verify.add_argument("--hcmp", type=int, default=None)
    verify.add_argument("--point", default="greedy")
    verify.add_argument("--pointlen", type=int, default=4)
    verify.add_argument("--spacer-max", dest="spacer_max", type=int, default=4096)

    repro = subs.add_parser("reproduce", help="run a named preset against its golden")
    repro.add_argument("preset")
    repro.add_argument("preset_arg", nargs="?", type=int, default=None)
    repro.add_argument("--regen-golden", dest="regen_golden", action="store_true")
    repro.add_argument("--format", dest="fmt", default="json", choices=("json", "markdown"))
    repro.add_argument("--timings", action="store_true")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # every option's dest is a RunConfig field; an option left unset keeps its default
    fields = {name: value for name, value in vars(args).items() if value is not None}
    if "cylinders" in fields:
        fields["cylinders"] = tuple(fields["cylinders"])
    return RunConfig(**fields)


_PARSER: argparse.ArgumentParser | None = None  # built on first use, shared by every parse


def _parser() -> argparse.ArgumentParser:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args)
        report, status = run_config(config)
    except ShiftLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_json(report) if config.fmt == "json" else render_markdown(report)
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
