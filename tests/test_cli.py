"""End-to-end exercises of the command-line interface.

Every documented invocation runs through ``main`` in-process with captured
stdout, so these tests cover argument parsing, dispatch, report assembly,
output formats and exit codes in one pass.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hilbloc
from hilbloc import cli
from hilbloc.cache import ENGINE_VERSION
from hilbloc.cli import main, parse_chern_expr
from hilbloc.errors import ParseError
from hilbloc.hilb import MAX_K
from hilbloc.symbolic import DEFAULT_SEED


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# documented invocations


def test_quot_count_module_example(capsys):
    report = run_json(
        capsys, "quot-count", "--surface", "P2", "--vstar", "2,3", "--k", "1"
    )
    assert report["value"] == "6"
    assert report["command"] == "quot-count"
    assert report["engine_version"] == ENGINE_VERSION
    assert report["seed"] == DEFAULT_SEED
    assert report["inputs"]["vstar"] == "2,3"
    assert report["inputs"]["k"] == 1
    assert "func" not in report["inputs"]
    assert "format" not in report["inputs"]


def test_verify_conjecture_run(capsys):
    report = run_json(
        capsys,
        "verify-conjecture", "--surface", "P2",
        "--r", "3", "--d", "5", "--kmax", "3",
    )
    assert report["all_equal"] is True
    rows = report["rows"]
    assert [row["k"] for row in rows] == [1, 2, 3]
    assert rows[0]["quot_count"] == rows[0]["chi_theta"] == "21"
    assert all(row["equal"] is True for row in rows)
    assert all(row["error"] is None for row in rows)


def test_validate_construction_reject(capsys):
    code, out, err = run_cli(
        capsys, "validate-construction", "--r", "2", "--d", "3", "--w", "5"
    )
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["lower"] == 6
    [violation] = report["violations"]
    assert "lower bound violated" in violation
    assert "6" in violation


def test_validate_construction_below_degree_minus_one(capsys):
    code, out, err = run_cli(
        capsys, "validate-construction", "--r", "2", "--d", "-3", "--w", "5"
    )
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert report["ok"] is False
    assert report["violations"] == ["degree bound violated: d = -3 < 1"]


def test_validate_construction_accept(capsys):
    report = run_json(
        capsys, "validate-construction", "--r", "2", "--d", "3", "--w", "7"
    )
    assert report["ok"] is True
    assert report["violations"] == []


def test_module_entry_point_prints_no_runpy_warning():
    src = str(Path(hilbloc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-m", "hilbloc.cli", "surface-info", "--surface", "P2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["surface"]["name"] == "P2"
    assert "RuntimeWarning" not in proc.stderr


# ---------------------------------------------------------------------------
# expression grammar


def test_parse_single_symbol():
    expr = parse_chern_expr("c2(Vdual_k)")
    assert expr.bundle_ids() == {"Vdual_k"}
    assert expr.degrees() == {2}
    assert len(expr.terms) == 1


def test_parse_two_terms_degree_two():
    expr = parse_chern_expr("3*c1(IT)*c1(IT) - 1/2*c2(IT)")
    assert len(expr.terms) == 2
    assert expr.degrees() == {2}
    assert sorted(t.coefficient for t in expr.terms) == [Fraction(-1, 2), 3]


def test_parse_unclosed_factor_column():
    with pytest.raises(ParseError) as exc_info:
        parse_chern_expr("c1(")
    assert exc_info.value.column == 3
    assert "column 3" in str(exc_info.value)


def test_parse_whitespace_insensitive():
    assert parse_chern_expr(" 3*c1(A) + 2 ") == parse_chern_expr("3 * c1(A)+2")


def test_parse_leading_sign_and_rational():
    [term] = parse_chern_expr("-1/2*c2(IT)").terms
    assert term.coefficient == Fraction(-1, 2)
    assert term.factors == (("IT", 2),)


def test_parse_c0_folds_to_constant():
    [term] = parse_chern_expr("c0(IT)*c1(IT)").terms
    assert term.coefficient == 1
    assert term.factors == (("IT", 1),)


@pytest.mark.parametrize(
    "text,column",
    [
        ("", 1),
        ("c(X)", 2),
        ("1/0", 3),
        ("2*", 3),
        ("c1(IT) & c2(IT)", 8),
        ("cc", 2),
        # str.isdigit took these superscripts for digits, and int() failed
        ("\u00b2", 1),
        ("c\u00b2(IT)", 2),
    ],
)
def test_parse_malformed(text, column):
    with pytest.raises(ParseError) as exc_info:
        parse_chern_expr(text)
    assert exc_info.value.column == column


# ---------------------------------------------------------------------------
# determinism and seeds


def test_byte_identical_reports(capsys):
    argv = ("quot-count", "--surface", "P1xP1", "--vstar", "1:0,0:1", "--k", "2")
    code1, first, _ = run_cli(capsys, *argv)
    code2, second, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert first == second


# full stdout for a fixed (command, seed, engine version): these bytes may
# only change together with ENGINE_VERSION
GOLDEN_REPORTS = [
    (
        ("chi", "--surface", "Hirzebruch", "--a", "2", "--bundle", "1:1,0:-1",
         "--minus", "2:0"),
        (
            '{\n'
            '  "command": "chi",\n'
            '  "engine_version": "0.1.0",\n'
            '  "seed": null,\n'
            '  "inputs": {\n'
            '    "surface": "Hirzebruch",\n'
            '    "a": 2,\n'
            '    "bundle": "1:1,0:-1",\n'
            '    "minus": "2:0"\n'
            '  },\n'
            '  "value": "3"\n'
            '}\n'
        ),
    ),
    (
        ("taut-integral", "--surface", "P2", "--vstar", "0,0", "--lambda", "1",
         "--k", "1", "--expr", "c1(IT)"),
        (
            '{\n'
            '  "command": "taut-integral",\n'
            '  "engine_version": "0.1.0",\n'
            '  "seed": 20717,\n'
            '  "inputs": {\n'
            '    "surface": "P2",\n'
            '    "a": null,\n'
            '    "vstar": "0,0",\n'
            '    "vstar_minus": "",\n'
            '    "lam": "1",\n'
            '    "lam_minus": "",\n'
            '    "k": 1,\n'
            '    "expr": "c1(IT)",\n'
            '    "seed": "20717",\n'
            '    "threads": 1,\n'
            '    "no_cache": false\n'
            '  },\n'
            '  "value": "0"\n'
            '}\n'
        ),
    ),
    (
        ("surface-info", "--surface", "P2"),
        (
            '{\n'
            '  "command": "surface-info",\n'
            '  "engine_version": "0.1.0",\n'
            '  "seed": null,\n'
            '  "inputs": {\n'
            '    "surface": "P2",\n'
            '    "a": null\n'
            '  },\n'
            '  "surface": {\n'
            '    "name": "P2",\n'
            '    "family": "P2",\n'
            '    "a": 0,\n'
            '    "points": [\n'
            '      [\n'
            '        [\n'
            '          1,\n'
            '          0\n'
            '        ],\n'
            '        [\n'
            '          0,\n'
            '          1\n'
            '        ]\n'
            '      ],\n'
            '      [\n'
            '        [\n'
            '          -1,\n'
            '          0\n'
            '        ],\n'
            '        [\n'
            '          -1,\n'
            '          1\n'
            '        ]\n'
            '      ],\n'
            '      [\n'
            '        [\n'
            '          1,\n'
            '          -1\n'
            '        ],\n'
            '        [\n'
            '          0,\n'
            '          -1\n'
            '        ]\n'
            '      ]\n'
            '    ],\n'
            '    "edges": [\n'
            '      [\n'
            '        0,\n'
            '        1,\n'
            '        [\n'
            '          1,\n'
            '          0\n'
            '        ]\n'
            '      ],\n'
            '      [\n'
            '        0,\n'
            '        2,\n'
            '        [\n'
            '          0,\n'
            '          1\n'
            '        ]\n'
            '      ],\n'
            '      [\n'
            '        1,\n'
            '        2,\n'
            '        [\n'
            '          -1,\n'
            '          1\n'
            '        ]\n'
            '      ]\n'
            '    ],\n'
            '    "chi_top": 3,\n'
            '    "K2": 9,\n'
            '    "canonical_degrees": [\n'
            '      -3\n'
            '    ]\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ("quot-count", "--surface", "P2", "--vstar", "2,3", "--k", "1"),
        (
            '{\n'
            '  "command": "quot-count",\n'
            '  "engine_version": "0.1.0",\n'
            '  "seed": 20717,\n'
            '  "inputs": {\n'
            '    "surface": "P2",\n'
            '    "a": null,\n'
            '    "vstar": "2,3",\n'
            '    "vstar_minus": "",\n'
            '    "k": 1,\n'
            '    "seed": "20717",\n'
            '    "threads": 1,\n'
            '    "no_cache": false\n'
            '  },\n'
            '  "value": "6"\n'
            '}\n'
        ),
    ),
    (
        ("verify-conjecture", "--r", "3", "--d", "7", "--kmax", "2"),
        (
            '{\n'
            '  "command": "verify-conjecture",\n'
            '  "engine_version": "0.1.0",\n'
            '  "seed": 20717,\n'
            '  "inputs": {\n'
            '    "surface": "P2",\n'
            '    "a": null,\n'
            '    "r": 3,\n'
            '    "d": 7,\n'
            '    "kmax": 2,\n'
            '    "seed": "20717",\n'
            '    "threads": 1,\n'
            '    "no_cache": false\n'
            '  },\n'
            '  "rows": [\n'
            '    {\n'
            '      "k": 1,\n'
            '      "c2_vstar": 36,\n'
            '      "quot_count": "36",\n'
            '      "chi_theta": "36",\n'
            '      "equal": true,\n'
            '      "error": null\n'
            '    },\n'
            '    {\n'
            '      "k": 2,\n'
            '      "c2_vstar": 35,\n'
            '      "quot_count": "546",\n'
            '      "chi_theta": "546",\n'
            '      "equal": true,\n'
            '      "error": null\n'
            '    }\n'
            '  ],\n'
            '  "all_equal": true\n'
            '}\n'
        ),
    ),
    (
        ("universal-poly", "--k", "1"),
        (
            '{\n'
            '  "command": "universal-poly",\n'
            '  "engine_version": "0.1.0",\n'
            '  "seed": 20717,\n'
            '  "inputs": {\n'
            '    "shape": "count",\n'
            '    "expr": null,\n'
            '    "k": 1,\n'
            '    "rank_v": 2,\n'
            '    "rank_lam": 0,\n'
            '    "expected_dim": 0,\n'
            '    "seed": "20717",\n'
            '    "threads": 1,\n'
            '    "no_cache": false\n'
            '  },\n'
            '  "polynomial": {\n'
            '    "shape_id": "count",\n'
            '    "k": 1,\n'
            '    "ranks": {\n'
            '      "V": 2,\n'
            '      "Lambda": 0\n'
            '    },\n'
            '    "monomials": [\n'
            '      "c2(V)",\n'
            '      "c2(L)",\n'
            '      "c1(V)^2",\n'
            '      "c1(L)^2",\n'
            '      "c1(V).c1(L)",\n'
            '      "c1(X).c1(V)",\n'
            '      "c1(X).c1(L)",\n'
            '      "c1(X)^2",\n'
            '      "1"\n'
            '    ],\n'
            '    "coefficients": [\n'
            '      "1",\n'
            '      "0",\n'
            '      "0",\n'
            '      "0",\n'
            '      "0",\n'
            '      "0",\n'
            '      "0",\n'
            '      "0",\n'
            '      "0"\n'
            '    ],\n'
            '    "undetermined": [\n'
            '      "c2(L)",\n'
            '      "c1(L)^2",\n'
            '      "c1(V).c1(L)",\n'
            '      "c1(X).c1(L)",\n'
            '      "1"\n'
            '    ]\n'
            '  }\n'
            '}\n'
        ),
    ),
]


@pytest.mark.parametrize(
    "argv, stdout", GOLDEN_REPORTS, ids=[argv[0] for argv, _ in GOLDEN_REPORTS]
)
def test_golden_report_bytes(capsys, argv, stdout):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == stdout


def test_default_seed_is_fixed(capsys):
    report = run_json(capsys, "quot-count", "--surface", "P2", "--vstar", "2,3",
                      "--k", "1")
    assert report["seed"] == DEFAULT_SEED
    assert report["value"] == "6"


def test_random_seed_is_echoed(capsys):
    report = run_json(
        capsys, "quot-count", "--surface", "P2", "--vstar", "2,3", "--k", "1",
        "--seed", "random",
    )
    assert isinstance(report["seed"], int)
    assert report["inputs"]["seed"] == "random"
    assert report["value"] == "6"


def test_chi_takes_no_seed(capsys):
    # closed-form Riemann-Roch: no seed, threads or cache to echo, so two
    # runs print the same bytes, and the flags are refused
    argv = ("chi", "--surface", "P2", "--bundle", "2")
    code1, first, _ = run_cli(capsys, *argv)
    code2, second, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0 and first == second
    report = json.loads(first)
    assert report["seed"] is None and report["value"] == "6"
    assert report["inputs"] == {"surface": "P2", "a": None, "bundle": "2",
                                "minus": ""}
    for flag in (("--seed", "random"), ("--threads", "1"), ("--no-cache",)):
        code, out, _ = run_cli(capsys, *argv, *flag)
        assert code == 2 and out == ""


def test_threads_do_not_change_values(capsys):
    argv = ("quot-count", "--surface", "P2", "--vstar", "2,3", "--k", "2")
    serial = run_json(capsys, *argv)
    parallel = run_json(capsys, *argv, "--threads", "2", "--no-cache")
    assert serial["value"] == parallel["value"]


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ("surface-info", "--surface", "P3"),
        ("surface-info", "--surface", "Hirzebruch"),
        ("chi", "--surface", "P2", "--bundle", "oops"),
        ("chi", "--surface", "P2", "--bundle", "1:2"),
        ("quot-count", "--surface", "P2", "--vstar", "2", "--k", "1", "--seed",
         "sometimes"),
        ("chi-theta", "--surface", "P2", "--k", "-1"),
        ("quot-count", "--surface", "P2", "--vstar", "2,3", "--k", "-1"),
        ("taut-integral", "--surface", "P2", "--vstar", "2,3", "--k", "1",
         "--expr", "c1("),
        ("expected-dim", "--surface", "P2", "--k", "1"),
        ("fixed-points", "--surface", "P2", "--k", "-1"),
        ("universal-poly", "--k", "4"),
        ("universal-poly", "--rank-lam", "-1"),
        ("bogus",),
        ("c2-for-zero", "--r", "3", "--d", "-3", "--k", "1"),
        ("verify-conjecture", "--surface", "P2", "--r", "3", "--d", "7", "--kmax", "0"),
        ("expected-dim", "--surface", "P2", "--vstar", "2,3", "--k", "-1"),
        ("expected-dim", "--surface", "P2", "--r", "-2", "--c1", "1", "--c2", "0",
         "--k", "1"),
        ("expected-dim", "--surface", "P2", "--r", "0", "--c1", "1", "--c2", "0",
         "--k", "1"),
        ("taut-integral", "--surface", "P2", "--vstar", "0,0", "--lambda", "1",
         "--k", "1", "--expr", "\u00b2"),
        ("taut-integral", "--surface", "P2", "--vstar", "0,0", "--lambda", "1",
         "--k", "1", "--expr", "c\u00b2(IT)"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2


def test_no_command_exits_two(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip() == ENGINE_VERSION


# ---------------------------------------------------------------------------
# remaining subcommands and formats


def test_surface_info(capsys):
    report = run_json(capsys, "surface-info", "--surface", "Hirzebruch", "--a", "2")
    surf = report["surface"]
    assert surf["family"] == "Hirzebruch"
    assert surf["a"] == 2
    assert surf["chi_top"] == 4
    assert surf["K2"] == 8
    assert len(surf["points"]) == 4
    assert report["seed"] is None


def test_fixed_points_listing(capsys):
    report = run_json(capsys, "fixed-points", "--surface", "P2", "--k", "2", "--list")
    assert report["count"] == 9
    points = report["points"]
    assert len(points) == 9
    assert all(len(fp) == 3 for fp in points)

    bare = run_json(capsys, "fixed-points", "--surface", "P2", "--k", "2")
    assert bare["count"] == 9
    assert "points" not in bare


def test_expected_dim_routes_agree(capsys):
    via_vstar = run_json(
        capsys, "expected-dim", "--surface", "P2", "--vstar", "2,3", "--k", "1"
    )
    via_chern = run_json(
        capsys,
        "expected-dim", "--surface", "P2",
        "--r", "2", "--c1", "-5", "--c2", "6", "--k", "1",
    )
    assert via_vstar["value"] == via_chern["value"]


def test_taut_integral_truncation_invariance(capsys):
    argv = (
        "taut-integral", "--surface", "P2", "--vstar", "0,0", "--k", "1",
        "--lambda", "1", "--expr", "c1(IT)",
    )
    base = run_json(capsys, *argv)
    Fraction(base["value"])


@pytest.mark.parametrize("lam_minus", [(), ("--lambda-minus", "1")],
                         ids=["honest", "virtual"])
@pytest.mark.parametrize("index", ["60", "99999999999999999999"])
def test_taut_integral_far_above_the_dimension(index, lam_minus):
    # a Chern class far above dim P x X^[k] is 0 by degree; its binomial
    # weights and Lambda's Chern tops must not grow with the index
    src = str(Path(hilbloc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hilbloc.cli", "taut-integral", "--surface", "P2",
         "--vstar", "0,0", "--k", "1", "--expr", f"c{index}(IT)", "--no-cache",
         *lam_minus],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "0"
    assert f"virtual dimension 1 not among expression degrees [{index}]" in proc.stderr


BIG_K = "1000000000"  # its series fit a list, but no run at it would end
HUGE_K = "100000000000000000000"  # 2k + 1 is far above sys.maxsize


@pytest.mark.parametrize("argv", [
    ("chi-theta", "--surface", "P2", "--k", BIG_K),
    ("quot-count", "--surface", "P2", "--vstar", "1,2", "--k", BIG_K),
    ("taut-integral", "--surface", "P2", "--vstar", "2,3", "--k", BIG_K),
    ("fixed-points", "--surface", "P2", "--k", BIG_K),
    ("verify-conjecture", "--r", "3", "--d", "7", "--kmax", BIG_K),
    ("fixed-points", "--surface", "P2", "--k", str(MAX_K + 1)),
    ("chi-theta", "--surface", "P2", "--k", HUGE_K),
    ("quot-count", "--surface", "P2", "--vstar", "2,3", "--k", HUGE_K),
    ("fixed-points", "--surface", "P2", "--k", HUGE_K),
    ("verify-conjecture", "--r", "3", "--d", "7", "--kmax", HUGE_K),
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_a_k_above_max_k_is_a_usage_error(argv):
    # it ran until a timeout stopped it, or ran out of memory; a k whose
    # series would not fit a list ended in an OverflowError traceback, or
    # (verify-conjecture) ran one failing row after another with no end.
    # Every such k gets the one MAX_K message, however large it is.
    k = argv[-1]
    src = str(Path(hilbloc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hilbloc.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: k = {k} is above MAX_K = {MAX_K}, the largest k a sum over "
        "the fixed points of X^[k] is run for\n"
    )


@pytest.mark.parametrize("argv, engine", [
    (("chi-theta", "--surface", "P2", "--k", "30"), "chi_theta"),
    (("quot-count", "--surface", "P2", "--vstar", "1,2", "--k", "30"), "quot_count"),
    (("taut-integral", "--surface", "P2", "--vstar", "2,3", "--k", "30"),
     "virtual_integral"),
], ids=["chi-theta", "quot-count", "taut-integral"])
def test_running_out_of_memory_is_a_one_line_error(capsys, monkeypatch, argv, engine):
    # a k within MAX_K can still need more memory than there is; the engine
    # call stands in for such a run, since a real one takes seconds and may
    # end in CPython's own fatal error instead of a MemoryError
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, engine, out_of_memory)
    code, out, err = run_cli(capsys, *argv, "--no-cache")
    assert code == 1
    assert out == ""
    assert err == "error: out of memory\n"


def test_universal_poly_count_shape(capsys):
    report = run_json(capsys, "universal-poly", "--k", "1", "--rank-v", "2")
    poly = report["polynomial"]
    assert poly["shape_id"] == "count"
    assert poly["ranks"] == {"V": 2, "Lambda": 0}
    terms = {
        m: c for m, c in zip(poly["monomials"], poly["coefficients"]) if c != "0"
    }
    assert terms == {"c2(V)": "1"}


def test_universal_poly_k2_with_a_line_bundle(capsys):
    report = run_json(capsys, "universal-poly", "--k", "2", "--rank-lam", "1")
    poly = report["polynomial"]
    terms = {
        m: c for m, c in zip(poly["monomials"], poly["coefficients"]) if c != "0"
    }
    assert terms == {"c2(V)*c1(V)^2": "1/4", "c2(V)*c1(X).c1(V)": "-1/4"}
    assert poly["undetermined"] == [
        "c2(V)*c1(X).c1(L)", "c1(L)^2*c1(X).c1(L)", "c1(L)^2*c1(X)^2",
        "c1(V).c1(L)*c1(V).c1(L)", "c1(V).c1(L)*c1(X).c1(V)",
        "c1(V).c1(L)*c1(X).c1(L)", "c1(V).c1(L)*c1(X)^2",
        "c1(X).c1(V)*c1(X).c1(V)", "c1(X).c1(V)*c1(X).c1(L)",
        "c1(X).c1(V)*c1(X)^2", "c1(X).c1(L)*c1(X).c1(L)", "c1(X).c1(L)*c1(X)^2",
        "c1(X)^2*c1(X)^2", "c2(V)", "c2(L)", "c1(V)^2", "c1(L)^2",
        "c1(V).c1(L)", "c1(X).c1(V)", "c1(X).c1(L)", "c1(X)^2", "1",
    ]


def test_universal_poly_k3_fails_its_held_out_check(capsys):
    # a known failure (ROADMAP item 4): on the expected-dimension-zero family
    # c2(V) is affine in c1(V)^2 and c1(X).c1(V), so the fit's free columns
    # get 0 and a held-out configuration disagrees
    code, out, err = run_cli(capsys, "universal-poly", "--k", "3")
    assert code == 1
    assert out == ""
    assert "polynomial gives 10, direct integral gives 20" in err


def _readme_commands() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [line for line in lines if line.startswith("hilbloc ")]


README_COMMANDS = _readme_commands()


def test_readme_command_block_is_found():
    assert len(README_COMMANDS) == 11


@pytest.mark.parametrize("line", README_COMMANDS,
                         ids=[line.split()[1] for line in README_COMMANDS])
def test_readme_command_runs(capsys, line):
    # the cache is the per-test file that conftest points HILBLOC_CACHE at
    code, out, err = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0, err


def test_plain_format(capsys):
    code, out, err = run_cli(
        capsys,
        "c2-for-zero", "--r", "3", "--d", "5", "--k", "1", "--format", "plain",
    )
    assert code == 0
    assert out.strip() == "value = 21"


def test_csv_format_scalar(capsys):
    code, out, err = run_cli(
        capsys,
        "quot-count", "--surface", "P2", "--vstar", "2,3", "--k", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value"
    assert lines[1] == "6"


def test_csv_format_rows(capsys):
    code, out, err = run_cli(
        capsys,
        "verify-conjecture", "--r", "3", "--d", "5", "--kmax", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["k", "c2_vstar", "quot_count"]
    assert len(lines) == 3
