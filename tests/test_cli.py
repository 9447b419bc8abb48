import json

import pytest

from shiftlab.cli import PRESETS, RunConfig, main, render_json, run_config
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


def test_verify_orbit_closure(capsys):
    status, out, _ = run(
        capsys,
        "verify", "--rule", "spacing(dyadic())", "--prop", "orbit-closure",
        "--vector", "2,3", "--wordlen", "1", "--horizon", "2000",
    )
    assert status == 0
    assert json.loads(out)["verdict"] == "Witnessed"


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


def test_reproduce_unknown_preset(capsys):
    status, _, err = run(capsys, "reproduce", "no-such-preset")
    assert status == 2
    assert "unknown preset" in err


def test_reproduce_delta_p_needs_argument(capsys):
    status, _, _ = run(capsys, "reproduce", "example-delta-p")
    assert status == 2


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
