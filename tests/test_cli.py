import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftlab.cli import (
    GOLDEN_DIR,
    PRESET_STEPS,
    PRESETS,
    RunConfig,
    main,
    render_json,
    run_config,
)
from shiftlab.errors import ShiftLabError


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


# ---------------------------------------------------------------------------
# spec command examples


def test_check_multi_witnessed(capsys):
    status, out, _ = run(
        capsys,
        "check", "--rule", "spacing(dyadic())", "--vector", "2,3",
        "--wordlen", "4", "--horizon", "20000", "--expect", "witnessed",
    )
    assert status == 0
    report = json.loads(out)
    assert report["verdict"] == "Witnessed"
    assert report["tuples_checked"] == 4096


def test_check_multi_fails_with_certificate(capsys):
    status, out, _ = run(
        capsys,
        "check", "--rule", "spacing(dyadic())", "--vector", "1,2",
        "--wordlen", "1", "--horizon", "1000000", "--expect", "fails",
    )
    assert status == 0
    report = json.loads(out)
    assert report["verdict"] == "FailsOnWindow"
    assert any(c["name"] == "parity-law" for c in report["certificates"])


def test_check_cap_exceeded(capsys):
    status, _, err = run(
        capsys, "check", "--rule", "full()", "--vector", "1,2", "--wordlen", "99"
    )
    assert status == 2
    assert "cap" in err


def test_expectation_mismatch(capsys):
    status, _, _ = run(
        capsys,
        "check", "--rule", "spacing(dyadic())", "--vector", "1,2",
        "--wordlen", "1", "--horizon", "1000", "--expect", "witnessed",
    )
    assert status == 1


def test_bad_rule_string(capsys):
    status, _, err = run(capsys, "check", "--rule", "spacing(")
    assert status == 2
    assert "error:" in err


def test_unknown_mode(capsys):
    status, _, _ = run(capsys, "check", "--rule", "full()", "--mode", "never")
    assert status == 2


@pytest.mark.parametrize("run_length,first", [(5, 1), (6, None), (8, None), (20, None)])
def test_thick_mode_up_to_and_past_the_horizon(capsys, run_length, first):
    # on the full shift every window is [1, 5]: a run of L fits iff L <= 5
    status, out, err = run(
        capsys, "check", "--rule", "full()", "--mode", f"thick({run_length})",
        "--wordlen", "1", "--horizon", "5",
    )
    assert (status, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == ("Witnessed" if first else "FailsOnWindow")
    assert {row[1] for row in report["witnesses"]["sample"]} == {first}


def test_thick_mode_zero_is_a_config_error_like_the_family(capsys):
    status, _, err = run(capsys, "check", "--rule", "full()", "--mode", "thick(0)")
    assert status == 2
    assert err == "error: thick parameter must be >= 1\n"
    family = run(
        capsys, "diagnose", "--rule", "full()", "--family", "thick(0)",
        "--point", "champernowne", "--pointlen", "2",
    )
    assert family == (2, "", err)


NINES = "9" * 5000  # past int()'s 4,300-digit string conversion limit
CHECK_SMALL = ["--wordlen", "1", "--horizon", "8"]
DEEP_NABLA = "nabla(" * 3000 + "thick(2)" + ")" * 3000
BOUNDARY_ARGV = {
    "deep-nabla": [
        "diagnose", "--rule", "full()", "--point", "champernowne", "--pointlen", "3",
        "--horizon", "8", "--family", DEEP_NABLA,
    ],
    "long-ratio": ["check", "--rule", f"tripleratio({NINES})", *CHECK_SMALL],
    "long-step": ["check", "--rule", f"spacing(ap(1,{NINES}))", *CHECK_SMALL],
    "long-mode": ["check", "--rule", "full()", "--mode", f"thick({NINES})", *CHECK_SMALL],
    "ratio-1e20": [
        "check", "--rule", "tripleratio(100000000000000000000)", "--wordlen", "3",
        "--horizon", "8",
    ],
    "ratio-2^62": [
        "diagnose", "--rule", "tripleratio(4611686018427387904)", "--family", "thick(2)",
        "--pointlen", "3", "--wordlen", "1", "--horizon", "20",
    ],
    "ratio-past-bound": [
        "check", "--rule", f"tripleratio({2**29 + 2})", "--wordlen", "3", "--horizon", "8",
    ],
    "plus-sign": [
        "diagnose", "--rule", "full()", "--point", "champernowne", "--pointlen", "3",
        "--horizon", "8", "--family", "thick(+5)",
    ],
}


@pytest.mark.parametrize("argv", BOUNDARY_ARGV.values(), ids=BOUNDARY_ARGV)
def test_literal_boundary_exits_2_with_one_line(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_tripleratio_at_the_bound_runs(capsys):
    # p - 1 = 2^29: a greedy point and a sweep whose triple law can reach past int32
    status, out, err = run(
        capsys, "diagnose", "--rule", f"tripleratio({2**29 + 1})", "--family", "thick(2)",
        "--pointlen", "3", "--wordlen", "1", "--horizon", "20",
    )
    assert (status, err) == (0, "")
    status, out, err = run(
        capsys, "check", "--rule", f"tripleratio({2**29 + 1})", "--wordlen", "3",
        "--horizon", "8",
    )
    assert (status, err) == (0, "")
    assert json.loads(out)["tuples_checked"] > 0


def test_thick_mode_reads_like_every_literal(capsys):
    spaced = run(capsys, "check", "--rule", "full()", "--mode", "thick( 2 )", *CHECK_SMALL)
    plain = run(capsys, "check", "--rule", "full()", "--mode", "thick(2)", *CHECK_SMALL)
    assert spaced[0] == plain[0] == 0
    assert spaced[1] == plain[1].replace('"thick(2)"', '"thick( 2 )"')


def test_parser_built_once_without_shared_state(capsys, monkeypatch):
    from shiftlab import cli

    builds = []

    def counting_build_parser():
        builds.append(1)
        return real_build_parser()

    real_build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    args = ["check", "--rule", "full()", "--wordlen", "1", "--horizon", "8"]
    status, out, _ = run(capsys, *args, "--vector", "2,3")
    assert status == 0 and json.loads(out)["config"]["vector"] == [2, 3]
    status, out, _ = run(capsys, *args)
    report = json.loads(out)
    assert status == 0 and report["config"]["vector"] is None
    assert report["tuples_checked"] == 4
    assert len(builds) == 1


def test_thick_sweep_at_a_million_holds_one_window_at_a_time(capsys):
    # a kernel chunk is one 1 MB window at H = 10^6; the 9 pairs' windows
    # held at once would take 9 MB
    argv = [
        "check", "--rule", "spacing(dyadic())", "--mode", "thick(8)",
        "--wordlen", "2", "--horizon", "1000000",
    ]
    assert run(capsys, *argv)[0] == 0
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert status == 0
    assert peak <= 5 * 2**20


def test_multi_sweep_at_a_million_holds_distinct_windows_only(capsys):
    # the 2 x 64 pair windows of 1 MB held at once would take 128 MB; on
    # full() they hold 4 and 2 distinct windows
    argv = [
        "check", "--rule", "full()", "--vector", "1,2", "--wordlen", "3",
        "--horizon", "1000000",
    ]
    assert run(capsys, *argv)[0] == 0
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert status == 0
    assert peak <= 16 * 2**20


# ---------------------------------------------------------------------------
# schema and determinism


def test_report_schema_keys(capsys):
    _, out, _ = run(
        capsys, "check", "--rule", "full()", "--wordlen", "1", "--horizon", "64"
    )
    report = json.loads(out)
    assert sorted(report) == [
        "certificates", "config", "elapsed_ms", "schema_version",
        "tuples_checked", "verdict", "witnesses",
    ]
    assert report["schema_version"] == 1
    assert report["elapsed_ms"] is None


def test_byte_identical_across_threads(capsys):
    argv = [
        "check", "--rule", "spacing(dyadic())", "--vector", "1,2",
        "--wordlen", "1", "--horizon", "10000",
    ]
    _, first, _ = run(capsys, *argv, "--threads", "1")
    _, second, _ = run(capsys, *argv, "--threads", "8")
    assert first == second


def test_byte_identical_across_runs(capsys):
    argv = [
        "diagnose", "--rule", "spacing(evens())", "--family", "nabla(thick(2))",
        "--point", "greedy", "--pointlen", "4", "--spacer-max", "64",
        "--wordlen", "1", "--horizon", "40",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_timings_fill_elapsed(capsys):
    _, out, _ = run(
        capsys, "check", "--rule", "full()", "--wordlen", "1",
        "--horizon", "64", "--timings",
    )
    assert json.loads(out)["elapsed_ms"] is not None


def test_markdown_format(capsys):
    _, out, _ = run(
        capsys, "check", "--rule", "full()", "--wordlen", "1",
        "--horizon", "64", "--format", "markdown",
    )
    assert out.startswith("# shiftlab report")
    assert "| verdict | Witnessed |" in out


# ---------------------------------------------------------------------------
# diagnose and verify


def test_diagnose_periodic_point(capsys):
    status, out, _ = run(
        capsys,
        "diagnose", "--rule", "full()", "--point", "periodic:0",
        "--family", "fsa(1,2,3;2,1)", "--wordlen", "1", "--horizon", "100",
        "--cylinder", "0", "--expect", "witnessed",
    )
    assert status == 0
    report = json.loads(out)
    assert report["witnesses"] == [["0", "Witnessed", "holds-on-grid"]]


def test_diagnose_grid_override(capsys):
    status, out, _ = run(
        capsys,
        "diagnose", "--rule", "full()", "--point", "champernowne",
        "--pointlen", "6", "--family", "fa(1,2;3,2000)", "--grid", "2,16",
        "--wordlen", "1", "--horizon", "250",
    )
    assert status == 0
    assert json.loads(out)["config"]["family"] == "fa(1,2;2,16)"


def test_diagnose_bad_grid_is_config_error(capsys):
    status, out, err = run(
        capsys,
        "diagnose", "--rule", "full()", "--point", "champernowne",
        "--pointlen", "4", "--family", "fa(1,2;3,20)", "--grid", "x,y",
    )
    assert (status, out) == (2, "")
    assert err.count("\n") == 1 and "bad grid 'x,y'" in err


def test_threads_must_be_positive(capsys):
    for threads in ("0", "-3"):
        status, out, err = run(
            capsys, "check", "--rule", "full()", "--wordlen", "1",
            "--horizon", "8", "--threads", threads,
        )
        assert (status, out) == (2, "")
        assert err.count("\n") == 1 and "--threads" in err
    status, _, _ = run(
        capsys, "check", "--rule", "full()", "--wordlen", "1",
        "--horizon", "8", "--threads", "2",
    )
    assert status == 0


def test_incomplete_spacing_rule_is_config_error(capsys):
    status, out, err = run(
        capsys, "check", "--rule", "spacing(diff(ap(1,3)))", "--wordlen", "1",
        "--horizon", "63",
    )
    assert (status, out) == (2, "")
    assert err.count("\n") == 1


def test_diagnose_needs_valid_family(capsys):
    status, _, _ = run(
        capsys, "diagnose", "--rule", "full()", "--family", "sometimes(3)"
    )
    assert status == 2


def test_verify_nuv(capsys):
    status, out, _ = run(
        capsys,
        "verify", "--rule", "full()", "--prop", "nuv", "--point", "champernowne",
        "--pointlen", "6", "--wordlen", "2", "--horizon", "700",
        "--expect", "witnessed",
    )
    assert status == 0
    report = json.loads(out)
    assert report["witnesses"]["mismatched"] == []


@pytest.mark.parametrize("hcmp", ["-1", "0", "351", str(10**11)])
def test_verify_nuv_hcmp_out_of_range_is_one_line_error(capsys, hcmp):
    # checked before any hitting window is built: 10**11 would not fit in memory
    status, out, err = run(
        capsys,
        "verify", "--rule", "full()", "--prop", "nuv", "--point", "champernowne",
        "--pointlen", "6", "--wordlen", "2", "--horizon", "700", "--hcmp", hcmp,
    )
    assert (status, out) == (2, "")
    assert err == "error: h_cmp must lie in [1, h/2]\n"


@pytest.mark.parametrize(
    "flags", [["--mode", "thick(3)"], ["--delta", "--mode", "cofinite_from"]]
)
def test_vector_sweeps_reject_a_mode_other_than_plain(capsys, flags):
    argv = ["check", "--rule", "full()", "--vector", "1,2", "--wordlen", "1", "--horizon", "8"]
    status, out, err = run(capsys, *argv, *flags)
    assert (status, out) == (2, "")
    assert err == f"error: --mode {flags[-1]} does not apply to --vector sweeps\n"
    status, out, _ = run(capsys, *argv, *flags[:-2], "--mode", "plain")
    assert status == 0 and json.loads(out)["config"]["mode"] is None


def test_verify_orbit_closure(capsys):
    status, out, _ = run(
        capsys,
        "verify", "--rule", "spacing(dyadic())", "--prop", "orbit-closure",
        "--vector", "2,3", "--wordlen", "1", "--horizon", "2000",
    )
    assert status == 0
    assert json.loads(out)["verdict"] == "Witnessed"


def test_check_delta_needs_vector(capsys):
    status, out, err = run(
        capsys, "check", "--rule", "full()", "--delta", "--wordlen", "1",
        "--horizon", "8",
    )
    assert (status, out) == (2, "")
    assert err.count("\n") == 1 and "--vector" in err


def test_verify_needs_vector(capsys):
    status, _, err = run(
        capsys, "verify", "--rule", "full()", "--prop", "orbit-closure"
    )
    assert status == 2
    assert "--vector" in err


def test_verify_delta_product(capsys):
    status, out, _ = run(
        capsys,
        "verify", "--rule", "full()", "--prop", "delta-product",
        "--vector", "1,2", "--depth", "2", "--wordlen", "1", "--horizon", "256",
    )
    assert status == 0
    assert json.loads(out)["verdict"] == "Witnessed"


def test_point_cache_round_trip(tmp_path, capsys):
    argv = [
        "diagnose", "--rule", "spacing(dyadic())", "--family", "nabla(thick(2))",
        "--point", "greedy", "--pointlen", "3", "--spacer-max", "4096",
        "--wordlen", "1", "--horizon", "30", "--cache-dir", str(tmp_path),
    ]
    _, first, _ = run(capsys, *argv)
    cached = list(tmp_path.glob("point-*.json"))
    assert len(cached) == 1
    _, second, _ = run(capsys, *argv)
    assert first == second


CACHED_DIAGNOSE = [
    "diagnose", "--rule", "spacing(dyadic())", "--family", "nabla(thick(2))",
    "--point", "greedy", "--pointlen", "3", "--spacer-max", "4096",
    "--wordlen", "1", "--horizon", "30",
]


def test_warm_point_cache_builds_no_point(tmp_path, capsys, monkeypatch):
    import shiftlab.cli as cli

    built = []
    build = cli.build_transitive_point
    monkeypatch.setattr(cli, "build_transitive_point", lambda *a: built.append(a) or build(*a))
    outs = {run(capsys, *CACHED_DIAGNOSE, "--cache-dir", str(tmp_path))[1] for _ in range(3)}
    assert len(built) == 1
    assert len(outs) == 1
    # the entry keeps its name, so entries written by earlier versions still hit
    key = hashlib.sha256(b"spacing(dyadic())|l3|g4096").hexdigest()[:16]
    assert [p.name for p in tmp_path.iterdir()] == [f"point-{key}.json"]


def test_point_cache_reads_indented_entries(tmp_path, capsys):
    # entries written before the compact form was adopted are still hits
    _, cold, _ = run(capsys, *CACHED_DIAGNOSE, "--cache-dir", str(tmp_path))
    (entry,) = tmp_path.glob("point-*.json")
    old = json.dumps(json.loads(entry.read_text()), sort_keys=True, indent=2)
    entry.write_text(old)
    status, out, err = run(capsys, *CACHED_DIAGNOSE, "--cache-dir", str(tmp_path))
    assert (status, out, err) == (0, cold, "")
    assert entry.read_text() == old


def test_point_cache_skips_entries_longer_than_a_build(tmp_path, capsys):
    # length and runs agree, but no cold build at --pointlen 3 reaches 2^62 bits
    _, cold, _ = run(capsys, *CACHED_DIAGNOSE)
    run(capsys, *CACHED_DIAGNOSE, "--cache-dir", str(tmp_path))
    (entry,) = tmp_path.glob("point-*.json")
    whole = entry.read_text()
    entry.write_text(json.dumps({**json.loads(whole), "length": 2**62, "rle": [2**62]}))
    assert run(capsys, *CACHED_DIAGNOSE, "--cache-dir", str(tmp_path)) == (0, cold, "")
    assert entry.read_text() == whole


def test_point_cache_survives_bad_file(tmp_path, capsys):
    argv = [
        "diagnose", "--rule", "spacing(dyadic())", "--family", "nabla(thick(2))",
        "--point", "greedy", "--pointlen", "3", "--spacer-max", "4096",
        "--wordlen", "1", "--horizon", "30",
    ]
    _, cold, _ = run(capsys, *argv)
    cache = tmp_path / "cache"
    run(capsys, *argv, "--cache-dir", str(cache))
    (entry,) = cache.glob("point-*.json")
    whole = entry.read_bytes()
    # a truncated entry, and well-formed JSON with a field of the wrong type
    for bad in (whole[:40], whole.replace(b'"spacing(dyadic())"', b"5")):
        assert bad != whole
        entry.write_bytes(bad)
        status, out, err = run(capsys, *argv, "--cache-dir", str(cache))
        assert (status, out, err) == (0, cold, "")
        assert entry.read_bytes() == whole
        assert [p.name for p in cache.iterdir()] == [entry.name]


GREEDY_DIAGNOSE = (
    "diagnose --rule full() --point greedy --pointlen 3 --family thick(2) --wordlen 1 "
    "--horizon 30"
).split()


def assert_unusable_cache(result):
    status, out, err = result
    assert (status, out) == (2, "")
    assert err.startswith("error: unusable --cache-dir: ") and err.count("\n") == 1


def test_cache_dir_that_is_a_file_is_a_config_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.write_text("")
    assert_unusable_cache(run(capsys, *GREEDY_DIAGNOSE, "--cache-dir", str(cache)))
    assert cache.read_text() == ""


def test_cache_entry_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    assert run(capsys, *GREEDY_DIAGNOSE, "--cache-dir", str(tmp_path))[0] == 0
    (entry,) = tmp_path.glob("point-*.json")
    entry.unlink()
    entry.mkdir()
    assert_unusable_cache(run(capsys, *GREEDY_DIAGNOSE, "--cache-dir", str(tmp_path)))
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]


def test_failed_cache_write_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert_unusable_cache(run(capsys, *GREEDY_DIAGNOSE, "--cache-dir", str(tmp_path)))
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# argv fuzz: any argv from the grammar exits 0, 1 or 2 and never raises

GOOD_RULES = ["full()", "spacing(dyadic())", "spacing(evens())", "tripleratio(3)"]
BAD_RULES = [
    "spacing(", "nope()", "tripleratio(1)", "spacing(diff(ap(1,3)))", "",
    "spacing(" + "union(" * 3000 + "nat()" + ")" * 3001,
    f"tripleratio({NINES})",
    f"spacing(ap(1,{NINES}))",
    "tripleratio(100000000000000000000)",
    "tripleratio(4611686018427387904)",
]
rules = st.sampled_from(GOOD_RULES * 2 + BAD_RULES)
vectors = st.sampled_from(["", "0", "0,1", "1,1", "1,2", "2,3", "x"])
horizons = st.integers(-1, 64).map(lambda h: ("--horizon", str(h)))
sizes = [
    ("--wordlen", st.integers(-1, 3).map(str)),
    ("--threads", st.sampled_from(["1", "2", "0", "-1"])),
]


def _opt(flag, values):
    return st.one_of(st.just(()), values.map(lambda v: (flag, v)))


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [x for p in ps for x in p])


points = st.sampled_from(["champernowne", "periodic:0", "periodic:10", "greedy", "x"])
check_argv = _argv(
    "check",
    rules.map(lambda r: ("--rule", r)),
    _opt("--vector", vectors),
    st.sampled_from([(), ("--delta",)]),
    _opt(
        "--mode",
        st.sampled_from([
            "plain", "thick(2)", "thick(0)", "thick(1000)", "cofinite_from", "never",
            "thick(" * 3000 + "2" + ")" * 3000, f"thick({NINES})",
        ]),
    ),
    horizons,
    *[_opt(*s) for s in sizes],
)
diagnose_argv = _argv(
    "diagnose",
    rules.map(lambda r: ("--rule", r)),
    st.sampled_from([
        "nabla(thick(2))", "fsa(1,2;2,1)", "fa(1,2;3,20)", "sometimes(3)", DEEP_NABLA,
        f"thick({NINES})", f"fa(1,2;2,{NINES})",
    ])
    .map(lambda f: ("--family", f)),
    _opt("--point", points),
    _opt("--pointlen", st.sampled_from(["1", "2", "3"])),
    _opt("--grid", st.sampled_from(["2,16", "2,16,1", "x,y", "1"])),
    horizons,
    *[_opt(*s) for s in sizes],
)
verify_argv = _argv(
    "verify",
    rules.map(lambda r: ("--rule", r)),
    st.sampled_from(["nuv", "orbit-closure", "delta-product", "x"])
    .map(lambda p: ("--prop", p)),
    _opt("--vector", vectors),
    _opt("--point", points),
    _opt("--pointlen", st.sampled_from(["1", "2", "3"])),
    st.just(("--depth", "1")),
    _opt("--hcmp", st.sampled_from(["-1", "0", "4", str(10**11)])),
    horizons,
    *[_opt(*s) for s in sizes],
)


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(check_argv, diagnose_argv, verify_argv))
def test_cli_argv_fuzz_never_raises(capsys, argv):
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# reproduce


@pytest.mark.parametrize(
    "name,arg",
    [
        ("example-spacing-23", None),
        ("example-delta-p", "3"),
        ("lemma-nuv", None),
        ("fa-parity", None),
        ("prop-orbit-closure", None),
        ("thm-multimin-diag", None),
    ],
)
def test_reproduce_matches_golden(capsys, name, arg):
    argv = ["reproduce", name] + ([arg] if arg else [])
    status, out, _ = run(capsys, *argv)
    assert status == 0
    assert json.loads(out)["verdict"] == "pass"


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
CORPUS = sorted(json.loads(DIGESTS.read_text()))


@pytest.mark.parametrize(
    "argv",
    [["reproduce", "thm-wm-point"], ["reproduce", "lemma-nuv"]],
    ids=["thm-wm-point", "lemma-nuv"],
)
def test_difference_kernel_jobs_print_the_recorded_bytes(capsys, argv):
    status, out, _ = run(capsys, *argv)
    assert status == 0
    assert out == (GOLDEN_DIR / f"{argv[1]}.json").read_text()


def one_row_chunks(monkeypatch):
    from shiftlab import dynamics, subshift

    for module in (subshift, dynamics):
        monkeypatch.setattr(module, "chunk_rows", lambda row_bytes: 1)


@pytest.mark.parametrize("job", CORPUS)
def test_recorded_corpus_prints_its_bytes_however_it_is_computed(
    capsys, monkeypatch, tmp_path, job
):
    """Every recorded benchmark argv prints its recorded sha256: as recorded,
    with one tuple per kernel and family chunk (every chunk boundary moves),
    and, for greedy points, again from the warm point cache."""
    recorded = json.loads(DIGESTS.read_text())[job]["sha256"]
    argv = job.split()
    cached = "greedy" in argv
    if cached:
        argv += ["--cache-dir", str(tmp_path)]

    def digest():
        status, out, err = run(capsys, *argv)
        assert (status, err) == (0, "")
        return hashlib.sha256(out.encode()).hexdigest()

    assert digest() == recorded
    if cached:
        assert list(tmp_path.glob("point-*.json"))
        assert digest() == recorded
    with monkeypatch.context() as mp:
        one_row_chunks(mp)
        assert digest() == recorded


def no_transform(*args, **kwargs):
    raise AssertionError("a transform was taken")


def test_difference_cap_exits_2_before_the_kernel(capsys, monkeypatch):
    monkeypatch.setattr(np.fft, "rfft", no_transform)
    status, out, err = run(
        capsys, "diagnose", "--rule", "full()", "--point", "champernowne",
        "--pointlen", "16", "--family", "nabla(thick(2))", "--wordlen", "1",
        "--horizon", "400000",
    )
    assert (status, out) == (2, "")
    assert err == (
        "error: difference set of 203136 members at horizon 400001 exceeds the "
        "kernel cost cap\n"
    )


NUV_SMALL = (
    "verify --rule full() --prop nuv --point champernowne --pointlen 6 --wordlen 2 "
    "--horizon 700"
).split()


def test_nuv_pair_over_the_cap_exits_2_before_any_transform(capsys, monkeypatch):
    # h is the prefix length 642; only word 1, entering 321 times, makes a
    # pair over this cap, against a minuend window of horizon 642
    monkeypatch.setattr("shiftlab.intset._DIFFERENCE_COST_CAP", 321 * 642 - 1)
    monkeypatch.setattr(np.fft, "rfft", no_transform)
    status, out, err = run(capsys, *NUV_SMALL)
    assert (status, out) == (2, "")
    assert err == "error: cross difference exceeds the kernel cost cap\n"


def test_nuv_bound_at_the_limit_exits_2_before_any_transform(capsys, monkeypatch):
    monkeypatch.setattr(np.fft, "rfft", no_transform)
    monkeypatch.setattr("shiftlab.intset._fft_error_bound", lambda *args: 0.25)
    status, out, err = run(capsys, *NUV_SMALL)
    assert (status, out) == (2, "")
    assert err.startswith("error: difference kernel error bound 0.25 at transform length ")
    assert err.count("\n") == 1


def test_nuv_word_length_zero_is_a_config_error(capsys):
    status, out, err = run(capsys, *NUV_SMALL[:-4], "--wordlen", "0", "--horizon", "64")
    assert (status, out) == (2, "")
    assert err == "error: word length must be >= 1\n"


def test_golden_mismatch_prints_a_diff_and_exits_1(tmp_path, capsys, monkeypatch):
    from shiftlab import cli

    _, expected, _ = run(capsys, "reproduce", "fa-parity")
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, golden)
    lines = (golden / "fa-parity.json").read_text().splitlines(keepends=True)
    changed = next(i for i, line in enumerate(lines) if '"verdict"' in line)
    lines[changed] = lines[changed].replace('"verdict"', '"verdikt"')
    (golden / "fa-parity.json").write_text("".join(lines))
    monkeypatch.setattr(cli, "GOLDEN_DIR", golden)
    status, out, err = run(capsys, "reproduce", "fa-parity")
    assert (status, out) == (1, expected)
    diff = err.splitlines()
    assert diff[:2] == ["--- golden", "+++ current"]
    assert [d for d in diff if d[:1] in "+-" and d[:3] not in ("---", "+++")] == [
        "-" + lines[changed].rstrip("\n"),
        "+" + lines[changed].rstrip("\n").replace('"verdikt"', '"verdict"'),
    ]


def test_reproduce_unknown_preset(capsys):
    status, _, err = run(capsys, "reproduce", "no-such-preset")
    assert status == 2
    assert "unknown preset" in err


def test_reproduce_delta_p_needs_argument(capsys):
    for arg in ([], ["2"]):
        status, out, err = run(capsys, "reproduce", "example-delta-p", *arg)
        assert (status, out) == (2, "")
        assert err == "error: example-delta-p needs an integer argument > 2\n"


@pytest.mark.parametrize("name", sorted(set(PRESETS) - {"example-delta-p"}))
def test_preset_without_parameter_rejects_an_argument(tmp_path, capsys, monkeypatch, name):
    from shiftlab import cli

    shipped = sorted(GOLDEN_DIR.iterdir())
    monkeypatch.setattr(cli, "GOLDEN_DIR", tmp_path)
    for regen in ([], ["--regen-golden"]):
        status, out, err = run(capsys, "reproduce", name, "5", *regen)
        assert (status, out) == (2, "")
        assert err == f"error: preset {name!r} takes no argument\n"
    assert list(tmp_path.iterdir()) == []
    assert sorted(GOLDEN_DIR.iterdir()) == shipped


def test_regen_golden_writes_the_shipped_bytes(tmp_path, capsys, monkeypatch):
    from shiftlab import cli

    shipped = {p.name: p.read_bytes() for p in GOLDEN_DIR.iterdir()}
    monkeypatch.setattr(cli, "GOLDEN_DIR", tmp_path)
    for name in sorted(PRESETS):
        arg = ["3"] if name == "example-delta-p" else []
        status, out, err = run(capsys, "reproduce", name, *arg, "--regen-golden")
        assert (status, err) == (0, "")
        assert out == (tmp_path / f"{'-'.join([name, *arg])}.json").read_text()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == shipped
    assert {p.name: p.read_bytes() for p in GOLDEN_DIR.iterdir()} == shipped


# The RunConfig each table step was built as before presets became argv, with p = 3.
HAND_BUILT_STEPS = {
    "multi (2,3) on 4-words": RunConfig(
        "check", rule="spacing(dyadic())", vector=(2, 3), wordlen=4, horizon=20000
    ),
    "delta (1,2) centered 3-words": RunConfig(
        "check", rule="tripleratio(3)", vector=(1, 2), delta=True, wordlen=3, horizon=10**4
    ),
    "delta (1,3) on ones": RunConfig(
        "check", rule="tripleratio(3)", vector=(1, 3), delta=True, wordlen=1, horizon=10**6
    ),
    "hitting equals entering differences": RunConfig(
        "verify", rule="full()", prop="nuv", point="champernowne", pointlen=8,
        wordlen=3, horizon=4096, hcmp=512,
    ),
    "full shift: thick differences": RunConfig(
        "diagnose", rule="full()", point="champernowne", pointlen=13,
        family="nabla(thick(16))", wordlen=2, horizon=10**5,
    ),
    "evens: no 2-run in differences": RunConfig(
        "diagnose", rule="spacing(evens())", point="greedy", pointlen=8,
        spacer_max=64, family="nabla(thick(2))", wordlen=1, horizon=644,
    ),
    "full shift a=(1,2,3)": RunConfig(
        "verify", rule="full()", prop="orbit-closure", vector=(1, 2, 3),
        wordlen=2, horizon=10**4,
    ),
    "dyadic a=(2,3)": RunConfig(
        "verify", rule="spacing(dyadic())", prop="orbit-closure", vector=(2, 3),
        wordlen=1, horizon=10**4,
    ),
    "product a=(2,5), n=2": RunConfig(
        "verify", rule="full()", prop="delta-product", vector=(2, 5), depth=2,
        wordlen=2, horizon=10**4,
    ),
    "product a=(1,2), n=3": RunConfig(
        "verify", rule="full()", prop="delta-product", vector=(1, 2), depth=3,
        wordlen=2, horizon=10**4,
    ),
    "fixed point: syndetic carriers": RunConfig(
        "diagnose", rule="full()", point="periodic:0", family="fsa(1,2,3;2,1)",
        wordlen=1, horizon=100, cylinders=("0",),
    ),
}


TABLE_STEPS = [  # (preset, step name, argv) of every table row, with p = 3
    (preset, name.format(p=3), argv.format(p=3).split())
    for preset, rows in PRESET_STEPS.items()
    for name, _, argv in rows
]


def test_each_step_argv_parses_to_the_config_it_replaced():
    from shiftlab.cli import _config_from_args, build_parser

    def fields(config):
        return {name: getattr(config, name) for name in config._fields}

    parser = build_parser()
    assert sorted(name for _, name, _ in TABLE_STEPS) == sorted(HAND_BUILT_STEPS)
    for _, name, argv in TABLE_STEPS:
        parsed = _config_from_args(parser.parse_args(argv))
        want = fields(HAND_BUILT_STEPS[name])
        if parsed.prop in ("orbit-closure", "delta-product"):
            # the one difference: argparse fills verify's --point, which these
            # two properties never read, where the hand-built config left None
            assert (parsed.point, want["point"]) == ("greedy", None)
            want["point"] = "greedy"
        assert fields(parsed) == want


@pytest.mark.parametrize(
    "preset,name,argv", TABLE_STEPS, ids=[f"{p}/{n}" for p, n, _ in TABLE_STEPS]
)
def test_each_table_step_reruns_alone(capsys, preset, name, argv):
    golden_name = "example-delta-p-3" if preset == "example-delta-p" else preset
    golden = json.loads((GOLDEN_DIR / f"{golden_name}.json").read_text())
    (step,) = [s for s in golden["witnesses"] if s["step"] == name]
    status, out, err = run(capsys, *argv)
    assert (status, err) == (0, "")
    report = json.loads(out)
    for key in ("verdict", "witnesses", "certificates", "tuples_checked"):
        assert report[key] == step[key]


def test_preset_registry_complete():
    assert sorted(PRESETS) == [
        "example-delta-p",
        "example-spacing-23",
        "fa-parity",
        "lemma-nuv",
        "prop-delta-product",
        "prop-orbit-closure",
        "thm-multimin-diag",
        "thm-wm-point",
    ]


# ---------------------------------------------------------------------------
# config objects


def test_run_config_validation():
    with pytest.raises(ShiftLabError):
        RunConfig("check", rule="full()", expect="maybe")
    with pytest.raises(ShiftLabError):
        RunConfig("check", rule="full()", fmt="yaml")


def test_run_config_direct_dispatch():
    config = RunConfig(
        "check", rule="full()", wordlen=1, horizon=32, expect="witnessed"
    )
    report, status = run_config(config)
    assert status == 0
    assert report["verdict"] == "Witnessed"
    assert render_json(report).endswith("\n")


def test_exit_statuses_are_exhaustive(capsys):
    seen = set()
    seen.add(run(capsys, "check", "--rule", "full()", "--horizon", "16")[0])
    seen.add(
        run(
            capsys, "check", "--rule", "spacing(dyadic())", "--vector", "1,2",
            "--wordlen", "1", "--horizon", "100", "--expect", "witnessed",
        )[0]
    )
    seen.add(run(capsys, "check", "--rule", "nope(")[0])
    assert seen == {0, 1, 2}


# ---------------------------------------------------------------------------
# fresh interpreters

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, address_space=None, timeout=300):
    """``python *args`` with shiftlab on the path, under an address-space limit if given."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=None if address_space is None else limit,
    )


def test_import_loads_no_record_generator_digest_or_diff():
    # modules only the point cache or a golden mismatch needs stay unloaded at import
    probe = (
        "import sys, numpy; before = set(sys.modules); import shiftlab.cli; "
        "print(sorted({'dataclasses', 'hashlib', 'difflib'} & (set(sys.modules) - before)))"
    )
    child = run_python("-c", probe)
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


HUGE_WINDOW_ARGV = {
    "shift-1e10": ["check", "--rule", "spacing(shift(nat(),-10000000000))", *CHECK_SMALL],
    "shift-1e20": [
        "check", "--rule", "spacing(shift(nat(),-100000000000000000000))", *CHECK_SMALL,
    ],
}


@pytest.mark.parametrize("argv", HUGE_WINDOW_ARGV.values(), ids=HUGE_WINDOW_ARGV)
def test_huge_shift_exits_2_before_allocating(argv):
    child = run_python("-m", "shiftlab.cli", *argv, address_space=2 << 30)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1


def test_huge_kmax_is_sized_by_the_window():
    argv = [
        "diagnose", "--rule", "full()", "--point", "champernowne", "--pointlen", "3",
        "--horizon", "8", "--family", "fa(1,2;2,1000000000000000000000000000000)",
    ]
    child = run_python("-m", "shiftlab.cli", *argv, address_space=2 << 30)
    assert (child.returncode, child.stderr) == (0, "")
    assert json.loads(child.stdout)["config"]["family"] == argv[-1]


@pytest.mark.parametrize("m_max", [2000, 100000])
def test_finfty_staircase_over_the_cap_exits_2_within_a_second(m_max):
    # with Nmax 0 every level is one cell, so no level's grid reaches the cap,
    # yet each level i still builds i k tables: the staircase costs ~m_max^2 / 2
    probe = (
        "import sys, time; from shiftlab.cli import main; start = time.perf_counter(); "
        "status = main(sys.argv[1:]); print(status, time.perf_counter() - start < 1)"
    )
    argv = [
        "diagnose", "--rule", "full()", "--point", "champernowne", "--pointlen", "3",
        "--horizon", "8", "--family", f"finfty({m_max};0,1)",
    ]
    child = run_python("-c", probe, *argv, timeout=60)
    assert child.stdout == "2 True\n"
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
