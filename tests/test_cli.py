import json

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
    path.write_text(text)
    return str(path)


def test_solve_human_output_only_on_stderr(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", MINIMAL)
    assert cli.main(["solve", path]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""  # machine output requires --json
    assert "value:  1" in captured.err
    assert "answer: yes" in captured.err


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
    path = write(tmp_path, "inst.txt", MINIMAL)
    for solver, name in (
        ("poly", "min_scoring"),
        ("search", "exact_search_min"),
        ("oracle", "oracle_min"),
    ):
        assert cli.main(["solve", path, "--solver", solver, "--json"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["solver"] == name and doc["value"] == 1


def test_solve_budget_exhausted_exit(tmp_path, capsys):
    text = MINIMAL.replace("rule: plurality", "rule: maximin")
    path = write(tmp_path, "inst.txt", text)
    code = cli.main(["solve", path, "--solver", "search", "--budget", "1"])
    assert code == cli.EXIT_BUDGET
    assert "budget exhausted" in capsys.readouterr().err


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


def test_reduce_alpha_flag(tmp_path, capsys):
    source = write(tmp_path, "graph.txt", GRAPH)
    out = tmp_path / "reduced.txt"
    code = cli.main(
        ["reduce", "is-copeland-max", source, "--alpha", "1/3", "-o", str(out)]
    )
    assert code == cli.EXIT_OK
    assert "rule: copeland:1/3" in out.read_text()


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
