import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partycred as pc
from partycred import cli

MINIMAL = """\
candidates: p a b
rule: plurality
model: unique
dest: one
direction: min
k: 1
distinguished: p
party P1 2: p > a > b
party P2 1: a > p > b
"""

GRAPH = "n 4\nt 2\ne 0 1\ne 1 2\ne 2 3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_human_output_only_on_stderr(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", MINIMAL)
    assert cli.main(["solve", path]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""  # machine output requires --json
    assert "value:  1" in captured.err
    assert "answer: yes" in captured.err


@pytest.mark.parametrize("direction, value, witness, lines", [
    ("min", "infeasible", None, ["value:  infeasible (no switch plan succeeds)"]),
    ("max", 0, {"destination": None, "moves": []},
     ["value:  0", "answer: no (k = 1, max)", "witness: no voter moves"]),
])
def test_solve_one_party_reports_its_answer(tmp_path, capsys, direction, value, witness, lines):
    """With one party no voter can switch: MIN has no plan, MAX moves nobody."""
    text = MINIMAL.replace("direction: min", f"direction: {direction}")
    path = write(tmp_path, "inst.txt", text.replace("party P2 1: a > p > b\n", ""))
    assert cli.main(["solve", path, "--json"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert (doc["value"], doc["answer"], doc["witness"]) == (value, False, witness)
    assert captured.err.splitlines()[:len(lines)] == lines


def test_solve_json_schema(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", MINIMAL)
    assert cli.main(["solve", path, "--json"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 1 and doc["answer"] is True
    assert doc["direction"] == "min" and doc["rule"] == "plurality"
    assert doc["solver"] == "min_scoring"


def test_solve_json_deterministic(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", MINIMAL)
    outs = []
    for _ in range(2):
        assert cli.main(["solve", path, "--json"]) == cli.EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_solve_solver_choices(tmp_path, capsys):
    """``auto`` takes each instance's one exact route and the oracle solves
    every instance; the removed ``poly`` and ``search`` modes are usage
    errors."""
    plurality = write(tmp_path, "plurality.txt", MINIMAL)
    maximin = write(tmp_path, "maximin.txt", MINIMAL.replace("rule: plurality", "rule: maximin"))
    for path, solver, name in (
        (plurality, "auto", "min_scoring"),
        (plurality, "oracle", "oracle_min"),
        (maximin, "auto", "exact_search_min"),
        (maximin, "oracle", "oracle_min"),
    ):
        assert cli.main(["solve", path, "--solver", solver, "--json"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["solver"] == name and doc["value"] == 1
    for path in (plurality, maximin):
        for solver in ("poly", "search"):
            assert cli.main(["solve", path, "--solver", solver]) == cli.EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == "" and "invalid choice" in captured.err


def test_solve_budget_exhausted_exit(tmp_path, capsys):
    text = MINIMAL.replace("rule: plurality", "rule: maximin")
    path = write(tmp_path, "inst.txt", text)
    code = cli.main(["solve", path, "--budget", "1"])
    assert code == cli.EXIT_BUDGET
    assert "budget exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "{path}", "--solver", "bogus"],
    ["frob"],
    ["solve", "{path}", "--solver", "poly"],
], ids=["unknown-solver", "unknown-command", "removed-poly-mode"])
def test_usage_error_exits_as_an_input_error(tmp_path, capsys, argv):
    """argparse's own exit code 2 would read as "budget exhausted"."""
    path = write(tmp_path, "inst.txt", MINIMAL)
    assert cli.main([arg.format(path=path) for arg in argv]) == cli.EXIT_INPUT
    assert f"invalid choice: {argv[-1]!r}" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert "usage: partycred" in capsys.readouterr().out


def test_budget_below_one_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", MINIMAL.replace("rule: plurality", "rule: maximin"))
    for command in ("solve", "verify"):
        for budget in ("0", "-3"):
            assert cli.main([command, path, "--budget", budget]) == cli.EXIT_INPUT
            assert f"error: --budget must be at least 1, got {budget}" in capsys.readouterr().err
    assert cli.main(["solve", path, "--budget", "1"]) == cli.EXIT_BUDGET


def test_parse_error_exit(tmp_path, capsys):
    path = write(tmp_path, "broken.txt", "candidates: p a\nwhat\n")
    assert cli.main(["solve", path]) == cli.EXIT_INPUT
    assert "error: line 2" in capsys.readouterr().err


def test_missing_file_exit(capsys):
    assert cli.main(["solve", "/nonexistent/file.txt"]) == cli.EXIT_INPUT


def test_verify_agreement(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", MINIMAL)
    assert cli.main(["verify", path]) == cli.EXIT_OK
    assert "agree" in capsys.readouterr().err


def test_verify_mismatch_exit(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "inst.txt", MINIMAL)

    def lying_oracle(instance):
        return pc.SolveResult(
            pc.SolveStatus.FEASIBLE, 99,
            pc.SwitchPlan(moves=((0, 1, 1),)), "oracle_min",
        )

    monkeypatch.setattr("partycred.solve.oracle_min", lying_oracle)
    assert cli.main(["verify", path]) == cli.EXIT_MISMATCH
    assert "MISMATCH" in capsys.readouterr().err


def test_verify_budget_exhausted_exits_before_the_oracle(tmp_path, capsys, monkeypatch):
    # 26 voters: over the oracle's cap, which would be an input error (exit 1).
    path = tmp_path / "copeland.txt"
    gen_args = [
        "gen", "--seed", "3", "--candidates", "5", "--parties", "8", "--sizes", "2..4",
        "--rule", "copeland:1/2", "--direction", "max", "-o", str(path),
    ]
    assert cli.main(gen_args) == cli.EXIT_OK
    oracle_calls = []
    monkeypatch.setattr("partycred.solve.oracle_max", oracle_calls.append)
    assert cli.main(["verify", str(path), "--budget", "1"]) == cli.EXIT_BUDGET
    assert "budget exhausted" in capsys.readouterr().err
    assert oracle_calls == []


def test_reduce_writes_instance_and_provenance(tmp_path, capsys):
    source = write(tmp_path, "graph.txt", GRAPH)
    out = tmp_path / "reduced.txt"
    code = cli.main(["reduce", "is-maximin-max", source, "-o", str(out)])
    assert code == cli.EXIT_OK
    parsed = pc.parse_instance(out.read_text())
    assert parsed.instance.direction is pc.Direction.MAX
    assert parsed.instance.k == 2
    sidecar = tmp_path / "reduced.txt.provenance.json"
    prov = json.loads(sidecar.read_text())
    assert prov["reduction"] == "is-maximin-max"
    assert prov["destination_party"] == "P"
    assert prov["source"]["problem"] == "independent-set"


def test_reduce_reads_an_x3c_file(tmp_path, capsys):
    source = write(tmp_path, "x3c.txt", "m 3\ns 0 1 2\ns 0 1 2\ns 0 1 2\n")
    out = tmp_path / "reduced.txt"
    assert cli.main(["reduce", "x3c-borda-max", source, "-o", str(out)]) == cli.EXIT_OK
    parsed = pc.parse_instance(out.read_text())
    assert parsed.instance.rule == pc.Scoring(vector=tuple(range(8, -1, -1)))
    assert parsed.instance.direction is pc.Direction.MAX
    prov = json.loads((tmp_path / "reduced.txt.provenance.json").read_text())
    assert prov["reduction"] == "x3c-borda-max"
    assert prov["source"] == {"problem": "x3c", "universe_size": 3, "sets": [[0, 1, 2]] * 3}


def test_reduce_refuses_a_universe_below_the_maximin_range(tmp_path, capsys):
    source = write(tmp_path, "x3c.txt", "m 3\ns 0 1 2\ns 0 1 2\ns 0 1 2\n")
    out = tmp_path / "reduced.txt"
    assert cli.main(["reduce", "x3c-maximin-min", source, "-o", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: construction needs a universe of at least 6 elements, got 3" in err
    assert "initial winner" not in err
    assert not out.exists()


def test_reduce_alpha_flag(tmp_path, capsys):
    source = write(tmp_path, "graph.txt", GRAPH)
    out = tmp_path / "reduced.txt"
    code = cli.main(
        ["reduce", "is-copeland-max", source, "--alpha", "1/3", "-o", str(out)]
    )
    assert code == cli.EXIT_OK
    assert "rule: copeland:1/3" in out.read_text()


def test_reduce_refuses_alpha_on_a_reduction_without_copeland(tmp_path, capsys):
    """``--alpha`` names Copeland's tie weight: any other reduction refuses
    it, whatever its value, and writes nothing."""
    source = write(tmp_path, "x3c.txt", "m 3\ns 0 1 2\ns 0 1 2\ns 0 1 2\n")
    out = tmp_path / "reduced.txt"
    for alpha in ("nonsense", "1/2"):
        code = cli.main(["reduce", "x3c-borda-max", source, "--alpha", alpha, "-o", str(out)])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --alpha applies to the copeland reductions only"), err
        assert "x3c-borda-max" in err
        assert not out.exists()
    graph = write(tmp_path, "graph.txt", GRAPH)
    assert cli.main(["reduce", "is-copeland-max", graph, "-o", str(out)]) == cli.EXIT_OK
    assert "rule: copeland:1/2" in out.read_text()


def test_gen_roundtrip_and_determinism(tmp_path, capsys):
    args = [
        "gen", "--seed", "7", "--candidates", "3", "--parties", "3",
        "--sizes", "1..3", "--rule", "borda", "--direction", "min",
    ]
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert cli.main(args + ["-o", str(out1)]) == cli.EXIT_OK
    assert cli.main(args + ["-o", str(out2)]) == cli.EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    parsed = pc.parse_instance(out1.read_text())
    assert parsed.instance.rule == pc.Scoring(vector=(2, 1, 0))


def test_gen_bad_sizes(tmp_path, capsys):
    args = [
        "gen", "--seed", "7", "--candidates", "3", "--parties", "3",
        "--sizes", "nope", "--rule", "borda", "--direction", "min",
        "-o", str(tmp_path / "x.txt"),
    ]
    assert cli.main(args) == cli.EXIT_INPUT


def test_gen_bad_sizes_names_the_flag_not_a_line(tmp_path, capsys):
    args = [
        "gen", "--seed", "7", "--candidates", "3", "--parties", "3",
        "--sizes", "x..3", "--rule", "borda", "--direction", "min",
        "-o", str(tmp_path / "x.txt"),
    ]
    assert cli.main(args) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: bad --sizes value 'x..3'"), err
    assert "line" not in err


def test_gen_refuses_sizes_whose_top_is_zero(tmp_path, capsys):
    out = tmp_path / "x.txt"
    args = [
        "gen", "--seed", "7", "--candidates", "3", "--parties", "3",
        "--sizes", "0..0", "--rule", "plurality", "--direction", "min",
        "-o", str(out),
    ]
    assert cli.main(args) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: size range 0..0 gives every party 0 voters" in err, err
    assert "initial winner" not in err
    assert not out.exists()


def test_gen_one_candidate_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "x.txt"
    args = [
        "gen", "--seed", "7", "--candidates", "1", "--parties", "3",
        "--sizes", "1..3", "--rule", "plurality", "--direction", "min",
        "-o", str(out),
    ]
    assert cli.main(args) == cli.EXIT_INPUT
    assert "at least two candidates" in capsys.readouterr().err
    assert not out.exists()


def test_files_are_utf8_under_the_c_locale(tmp_path):
    """Every file the CLI reads or writes is UTF-8, whatever the locale.
    Under the C locale with UTF-8 mode and locale coercion off, the locale's
    encoding is ASCII, and a file opened without an encoding warns."""
    env = {
        **os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
    }

    def run(*args):
        return subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "partycred.cli", *args],
            env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
        )

    text = (MINIMAL.replace("p a b", "p é b").replace("a > p", "é > p").replace("p > a", "p > é")
            .replace("party P1", "party Ä1").replace("party P2", "party Ö2"))
    path = write(tmp_path, "inst.txt", text)
    done = run("solve", path, "--json")
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert json.loads(done.stdout)["witness"]["moves"] == [{"from": "Ä1", "to": "Ö2", "count": 1}]

    out = tmp_path / "gen.txt"
    done = run("gen", "--seed", "1", "--candidates", "3", "--parties", "3", "--sizes", "1..3",
               "--rule", "plurality", "--direction", "min", "-o", str(out))
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert len(pc.parse_instance(out.read_text(encoding="utf-8")).party_names) == 3

    source = write(tmp_path, "graph.txt", "# un graphe à quatre sommets\n" + GRAPH)
    out = tmp_path / "reduced.txt"
    done = run("reduce", "is-maximin-max", source, "-o", str(out))
    assert done.returncode == cli.EXIT_OK, done.stderr
    pc.parse_instance(out.read_text(encoding="utf-8"))
    sidecar = tmp_path / "reduced.txt.provenance.json"
    assert json.loads(sidecar.read_text(encoding="utf-8"))["reduction"] == "is-maximin-max"
