"""Command-line surface: schema-stable JSON, exit codes, catalog, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from freealg import cli, engine, quotient
from freealg.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def cli_env():
    """The environment for `python -m freealg.cli`: freealg's directory on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def normalize(payload):
    def fix(e):
        if isinstance(e, dict):
            return {k: (0.0 if k == "timing" else fix(v)) for k, v in e.items()}
        if isinstance(e, list):
            return [fix(x) for x in e]
        return e
    return fix(payload)


def load_golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,argv", [
    ("dim_assym_deg4.json",
     ["--format", "json", "dim", "assym", "--multidegree", "4", "--multidegree", "3,1",
      "--multidegree", "2,2", "--multidegree", "2,1,1", "--multidegree", "1,1,1,1"]),
    ("check_lietriple_plus.json",
     ["--format", "json", "check", "assym", "lietriple(t1,t2,t3)", "--mode", "plus"]),
    ("koszul_order3.json", ["--format", "json", "koszul", "--order", "3"]),
    ("kernel_31.json", ["--format", "json", "kernel", "assym", "--multidegree", "3,1"]),
    ("albert_glen_5.json", ["--format", "json", "albert", "glen(t1,t2,t3)", "--samples", "5",
                            "--seed", "20240809"]),
])
def test_json_reports_match_goldens(name, argv):
    rc, out = run(argv)
    assert rc == 0
    assert normalize(json.loads(out)) == load_golden(name)


SCHEMA = {"check", "claim_ref", "verdict", "char", "multidegrees", "timing", "warnings"}


def test_schema_fields_present_everywhere():
    # every subcommand, with exactly the extra keys its entries carry
    for argv, extra in [
            (["dim", "assym", "--multidegree", "2,1"], set()),
            (["check", "assym", "lsym(t1,t2,t3)"], set()),
            (["--certificate", "check", "assym", "lsym(t1,t2,t3)"], {"certificate"}),
            (["expand", "[t1,t2]"], set()),
            (["sigma-q", "lsym(t1,t2,t3)", "--q=2"], set()),
            (["kernel", "assym", "--multidegree", "2,1"], {"kernel"}),
            (["equiv", "--left", "jor(t1,t2)", "--right", "lietriple(t1,t2,t3)",
              "--multidegree", "3,1"], {"per_degree"}),
            (["koszul", "--order", "3"], {"dims", "dual_dims", "koszul"}),
            (["albert", "jor(t1,t2)", "--samples", "1"], {"report"}),
            (["suite", "koszul"], {"detail"})]:
        _, out = run(["--format", "json"] + argv)
        entries = json.loads(out)
        assert entries, argv
        for entry in entries:
            assert set(entry) == SCHEMA | extra, argv


def test_exit_status_contract():
    rc, _ = run(["check", "assym", "lsym(t1,t2,t3)"])
    assert rc == 0
    # wjor is not a plus-identity at char 0: plain check exits nonzero...
    rc, _ = run(["check", "assym", "wjor(t1,t2,t3,t4)", "--mode", "plus"])
    assert rc == 1
    # ...and matches expectations when the caller says so
    rc, _ = run(["check", "assym", "wjor(t1,t2,t3,t4)", "--mode", "plus",
                 "--expect-nonidentity"])
    assert rc == 0


def test_expand_and_sigma_commands():
    rc, out = run(["expand", "[t1,t2]"])
    assert rc == 0 and out.strip() == "(t1 t2) - (t2 t1)"
    rc, out = run(["expand", "lietriple(t1,t2,t3)", "--flavor", "commutative",
                   "--star-expand"])
    assert rc == 0 and len(out.split("+")) > 2
    rc, out = run(["sigma-q", "(t2 t3) t1", "--q=2"])
    assert "4" in out  # q^2 coefficient
    rc, out = run(["sigma-q", "lsym(t1,t2,t3)", "--q=-1/2"])
    assert rc == 0 and "1/4" in out


def test_char_flag_and_validation():
    rc, out = run(["--char", "3", "check", "assym", "wjor(t1,t2,t3,t4)", "--mode", "plus"])
    assert rc == 0
    with pytest.raises(ValueError):
        cli.RunConfig(char=4)


def test_equiv_exit_codes():
    rc, _ = run(["equiv", "--left", "lietriple(t1,t2,t3)", "--right", "jor1(t1,t2,t3,t4)",
                 "--multidegree", "2,1,1"])
    assert rc == 0
    rc, _ = run(["equiv", "--left", "jor(t1,t2)", "--right", "lietriple(t1,t2,t3)",
                 "--multidegree", "3,1"])
    assert rc == 1


def test_custom_catalog(tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text("name: flexible\nflavor: planar\nidentity: A(t1,t2,t1)\n")
    rc, out = run(["--catalog", str(cat), "--format", "json", "dim", "flexible",
                   "--multidegree", "2,1"])
    assert rc == 0
    (entry,) = json.loads(out)
    assert entry["check"].startswith("dim:flexible")


def test_suite_report_file(tmp_path):
    out_path = tmp_path / "report.json"
    rc, out = run(["suite", "arman", "--out", str(out_path)])
    assert rc == 0
    data = json.loads(out_path.read_text())
    assert data["passed"] and data["suite"] == "arman"
    assert "[PASS]" in out


def test_suite_out_in_a_missing_directory_fails_before_the_run(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(engine, "theorem_suite", never)
    rc = main(["suite", "arman", "--out", str(tmp_path / "missing" / "x.json")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("freealg: error: ")


def test_albert_report_deterministic():
    runs = []
    for _ in range(3):
        rc, out = run(["--format", "json",
                       "albert", "glen(t1,t2,t3)", "--samples", "3", "--seed", "7"])
        assert rc == 0
        runs.append(normalize(json.loads(out)))
    # one seeded sample stream: the full report is the same on every run
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0]["report"]["witness"] is not None


@pytest.mark.parametrize("argv", [
    ["--char", "67108879", "check", "assym", "lietriple(t1,t2,t3)", "--mode", "plus"],
    ["albert", "glen(t1,t2,t3)", "--samples", "0"],
    ["albert", "glen(t1,t2,t3)", "--bound", "0"],
    ["albert", "glen(t1,t2,t3)", "--bound", "-1"],
    ["--exact-column-cap", "-1", "check", "assym", "lsym(t1,t2,t3)"],
    ["albert", "t1+"],
    ["dim", "nosuch", "--multidegree", "1,1"],
    ["expand", "t1 t2", "--star-expand"],
    ["--char", "4", "dim", "assym", "--multidegree", "4"],
    ["--catalog", os.path.join(GOLDEN, "no-such-catalog.txt"), "dim", "assym",
     "--multidegree", "2"],
    ["--catalog", GOLDEN, "dim", "assym", "--multidegree", "2"],
    ["dim", "assym", "--multidegree", "2,1", "--q", "3"],
    ["check", "assym", "lsym(t1,t2,t3)", "--q", "1/2"],
    ["kernel", "assym", "--multidegree", "2,1", "--q", "5"],
    ["expand", "1/0 t1"],
    ["expand", "q{q=1/0}(t1,t2)"],
    ["check", "assym", "lsym_q{q=1/0}(t1,t2,t3)"],
    ["dim", "assym", "--multidegree", "0"],
    ["dim", "assym", "--multidegree", "2,x"],
    ["--char", "x", "dim", "assym", "--multidegree", "2"],
    ["albert", "t1 t1", "--samples", "x"],
    ["expand", "t99999999999999999999 t1"],
    ["expand", "t10000000"],
    ["expand", "jor{q=3}(t1,t2)"],
])
def test_bad_input_is_one_line_exit_2(argv):
    rc = subprocess.run([sys.executable, "-m", "freealg.cli"] + argv,
                        capture_output=True, text=True, env=cli_env())
    assert rc.returncode == 2
    assert "Traceback" not in rc.stderr
    (line,) = rc.stderr.splitlines()
    assert line.startswith("freealg: error: ")


@pytest.mark.parametrize("argv", [
    ["dim", "quasi_assosymmetric", "--multidegree", "2,1", "--q", "1/0"],
    ["check", "quasi_assosymmetric", "A(t1,t2,t3)", "--q", "1/0"],
    ["kernel", "quasi_assosymmetric", "--multidegree", "2,1", "--q", "1/0"],
    ["sigma-q", "t1 t2", "--q", "1/0"],
])
def test_malformed_q_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "argument --q" in err


def test_certificate_flag():
    rc, out = run(["--certificate", "--format", "json", "check", "assym",
                   "lsym(t1,t2,t3)"])
    assert rc == 0
    (entry,) = json.loads(out)
    assert "certificate" in entry
    (rows,) = entry["certificate"].values()
    assert rows and rows[0]["coefficient"] == "1"


def test_console_entry_point_runs():
    env = cli_env()
    rc = subprocess.run(
        [sys.executable, "-m", "freealg.cli", "dim", "assym", "--multidegree", "1,1,1"],
        capture_output=True, text=True, env=env)
    assert rc.returncode == 0 and "= 7" in rc.stdout


@pytest.mark.parametrize("argv", [
    ["check", "zero", "t1 t2"],
    ["dim", "zero", "--multidegree", "2,2,1"],
])
def test_degree_one_identity_is_one_line_exit_2(tmp_path, argv):
    cat = tmp_path / "cat.txt"
    cat.write_text("name: zero\nflavor: planar\nidentity: t1\n")
    rc = subprocess.run([sys.executable, "-m", "freealg.cli", "--catalog", str(cat)] + argv,
                        capture_output=True, text=True, env=cli_env())
    assert rc.returncode == 2
    (line,) = rc.stderr.splitlines()
    assert line.startswith("freealg: error: identity t1 of 'zero' has degree 1")


def test_reproduce_tables_script_runs():
    script = os.path.join(os.path.dirname(SRC), "scripts", "reproduce_tables.py")
    rc = subprocess.run([sys.executable, script], capture_output=True, text=True, env=cli_env())
    assert rc.returncode == 0, rc.stderr
    assert re.findall(r" dim +(\d+) ", rc.stdout) == ["3", "7", "9", "16", "29"]
    assert "[1, 2, 7, 29, 136]" in rc.stdout
    assert "[1, 2, 5, 9, 9, 11]" in rc.stdout
    assert "3/8 x^5" in rc.stdout


COMPARE_RUNNER = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("compare_components", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
script.CASES = [("assosymmetric", None, 0, (2, 1, 1)), ("assosymmetric", None, 3, (2, 0, 1))]
sys.argv = [sys.argv[1], "--src", sys.argv[2], "--full-cols-cap", "20"]
script.main()
"""


def test_compare_components_script_runs():
    # in a fresh interpreter: the script sets quotient.FULL_COLS_CAP and clears the
    # caches, which this process shares with the other tests
    root = os.path.dirname(SRC)
    script = os.path.join(root, "scripts", "compare_components.py")
    runs = [subprocess.run([sys.executable, "-c", COMPARE_RUNNER, script, root],
                           capture_output=True, text=True, env=cli_env()) for _ in range(2)]
    for rc in runs:
        assert rc.returncode == 0, rc.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    keys = {"variety", "q", "target", "field", "d", "dim", "rank", "mode", "paircols",
            "selected", "struct"}
    assert all(set(line) == keys for line in lines)
    by_field = {}
    for line in lines:
        by_field.setdefault((tuple(line["target"]), line["field"]), []).append(line)
    p0, p1 = quotient.SELECTION_PRIMES
    assert set(by_field) == {((2, 1, 1), 0), ((2, 1, 1), p0), ((2, 1, 1), p1), ((2, 0, 1), 3)}
    # the QQ case reports its twins at the same multidegrees, and the cap of 20 lifts
    assert len({tuple(tuple(x["d"]) for x in group) for (target, _), group in by_field.items()
                if target == (2, 1, 1)}) == 1
    assert any(x["mode"] == "replay" for x in by_field[(2, 1, 1), 0])
