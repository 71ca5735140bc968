import json

import pytest

from redeploy import build_base_network, build_extended_network, \
    build_specialization_network, to_dot
from redeploy.cli import _load_instance, main
from tests.conftest import FIXTURES

VARIANT_FIXTURES = [("example_rounding.json", "base"),
                    ("example_chain.json", "extended"),
                    ("example_subjects.json", "specialization")]
BUILDERS = {"base": build_base_network, "extended": build_extended_network,
            "specialization": build_specialization_network}


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_small(tmp_path, capsys):
    out = tmp_path / "solution.json"
    code, _, _ = run(capsys, "solve", FIXTURES / "example_small.json",
                     "-o", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["deficits"].values(), reverse=True) == [2, 1, 1]
    assert doc["fractional"] == {"d1": "1", "d2": "3/2", "d3": "3/2"}
    assert doc["moved_teachers"] == 2
    assert doc["deficit_reduction"] == 2
    assert doc["variant"] == "base"
    assert set(doc["timings"]) == {"network", "decompose", "round"}


def test_solve_chain_variants(tmp_path, capsys):
    out = tmp_path / "solution.json"
    code, _, _ = run(capsys, "solve", FIXTURES / "example_chain.json",
                     "--variant", "extended", "-o", out)
    assert code == 0
    assert json.loads(out.read_text())["deficits"] == {"d1": 3, "d2": 1}
    code, _, _ = run(capsys, "solve", FIXTURES / "example_chain_base.json",
                     "-o", out)
    assert code == 0
    assert json.loads(out.read_text())["deficits"] == {"d1": 4, "d2": 1}


def test_solve_specialization(tmp_path, capsys):
    out = tmp_path / "solution.json"
    code, _, _ = run(capsys, "solve", FIXTURES / "example_subjects.json",
                     "--variant", "specialization", "-o", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["deficits"]) == {"m1:P", "d1:C", "d1:P", "d2:C", "d2:P"}


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "no-such-file.json")
    assert code == 1
    assert "error" in err


def test_solve_invalid_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"surplus_schools": [],
                               "deficit_schools": [],
                               "teachers": [{"id": "t", "origin": "s",
                                             "acceptable": []}]}))
    code, _, err = run(capsys, "solve", bad)
    assert code == 2
    assert "invalid" in err


def test_cap_exceeded_exit_code(tmp_path, capsys):
    doc = {
        "surplus_schools": [{"id": "s", "alpha": 9}],
        "deficit_schools": [{"id": f"d{k}", "beta": 9} for k in range(6)],
        "teachers": [{"id": f"t{i}", "origin": "s",
                      "acceptable": [f"d{k}" for k in range(6)]}
                     for i in range(8)],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "audit-sp", path)
    assert code == 3
    assert "cap" in err


def test_verify_fixtures(capsys):
    code, out, _ = run(capsys, "verify", FIXTURES / "example_small.json")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", FIXTURES / "example_rounding.json")
    assert code == 0 and out.startswith("PASS")


def test_verify_solution_file(tmp_path, capsys):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", FIXTURES / "example_small.json", "-o", solution)
    code, out, _ = run(capsys, "verify", FIXTURES / "example_small.json",
                       "--solution", solution)
    assert code == 0 and out.startswith("PASS")


def test_verify_corrupted_solution(tmp_path, capsys):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", FIXTURES / "example_small.json", "-o", solution)
    doc = json.loads(solution.read_text())
    # claim a different transfer than the deficits imply
    doc["transfer"] = {"t1": "STAY", "t2": "STAY", "t3": "STAY"}
    solution.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", FIXTURES / "example_small.json",
                       "--solution", solution)
    assert code == 1 and out.startswith("FAIL")


def test_verify_unachievable_deficits(tmp_path, capsys):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", FIXTURES / "example_small.json", "-o", solution)
    doc = json.loads(solution.read_text())
    doc["transfer"] = {"t1": "STAY", "t2": "STAY", "t3": "STAY"}
    doc["deficits"] = {"d1": 1, "d2": 3, "d3": 2}
    solution.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", FIXTURES / "example_small.json",
                       "--solution", solution)
    # all-stay realizes beta, which is achievable but not optimal
    assert code == 1
    assert "differs from brute-force" in out


@pytest.mark.parametrize("fixture,variant", VARIANT_FIXTURES[1:])
def test_verify_refuses_non_base_solutions(tmp_path, capsys, fixture,
                                           variant):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", FIXTURES / fixture, "--variant", variant,
        "-o", solution)
    code, out, err = run(capsys, "verify", FIXTURES / fixture,
                         "--solution", solution)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and repr(variant) in err


def test_solution_missing_a_field_is_invalid(tmp_path, capsys):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", FIXTURES / "example_small.json", "-o", solution)
    doc = json.loads(solution.read_text())
    del doc["transfer"]
    solution.write_text(json.dumps(doc))
    for argv in (("verify", FIXTURES / "example_small.json",
                  "--solution", solution),
                 ("report", solution)):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "missing field 'transfer'" in err


@pytest.mark.parametrize("deficits, message", [
    ({"d1": "x", "d2": 1, "d3": 1},
     "solution field 'deficits' maps 'd1' to 'x', not an integer"),
    ([], "solution field 'deficits' must be an object"),
])
def test_verify_refuses_mistyped_deficits(tmp_path, capsys, deficits,
                                          message):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", FIXTURES / "example_small.json", "-o", solution)
    doc = json.loads(solution.read_text())
    doc["deficits"] = deficits
    solution.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", FIXTURES / "example_small.json",
                         "--solution", solution)
    assert code == 2
    assert out == ""
    assert err == f"error: invalid input: {message}\n"


def test_solve_runs_past_the_subset_cap(tmp_path, capsys):
    instance = tmp_path / "wide.json"
    solution = tmp_path / "solution.json"
    run(capsys, "gen", "--seed", 5, "--surplus", 8, "--deficit", 40,
        "--teachers", 120, "--accept-prob", 0.1, "-o", instance)
    code, _, _ = run(capsys, "solve", instance, "-o", solution)
    assert code == 0
    doc = json.loads(solution.read_text())
    assert len(doc["deficits"]) == 40
    assert sorted(sum(doc["blocks"], [])) == sorted(doc["deficits"])

    # verify's achievability scan stays exhaustive, so it keeps the cap
    run(capsys, "gen", "--seed", 5, "--surplus", 2, "--deficit", 25,
        "--teachers", 3, "-o", instance)
    code, _, err = run(capsys, "verify", instance)
    assert code == 3
    assert err == ("error: 25 deficit schools exceed the subset cap 24: "
                   "scanning coalitions is exponential in the "
                   "deficit-school count\n")


def test_report_rejects_a_solution_missing_a_school(tmp_path, capsys):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", FIXTURES / "example_small.json", "-o", solution)
    doc = json.loads(solution.read_text())
    del doc["fractional"]["d2"]
    solution.write_text(json.dumps(doc))
    code, _, err = run(capsys, "report", solution)
    assert code == 2
    assert "'fractional' lacks schools ['d2']" in err


def test_internal_key_error_is_not_invalid_input(monkeypatch):
    def broken(instance, variant="base"):
        raise KeyError("internal")

    monkeypatch.setattr("redeploy.cli.solve", broken)
    with pytest.raises(KeyError):
        main(["solve", str(FIXTURES / "example_small.json")])


def test_audit_sp_clean_and_broken(capsys):
    code, out, _ = run(capsys, "audit-sp", FIXTURES / "example_small.json",
                       "--all")
    assert code == 0
    assert json.loads(out)["strategy_proof"] is True
    code, out, _ = run(capsys, "audit-sp", FIXTURES / "example_small.json",
                       "--broken", "--seed", "0")
    assert code == 1
    assert json.loads(out)["violations"]


def test_gen_deterministic_and_valid(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run(capsys, "gen", "--seed", "42", "-o", first)
    run(capsys, "gen", "--seed", "42", "-o", second)
    assert first.read_bytes() == second.read_bytes()
    from redeploy import parse_instance

    instance = parse_instance(first.read_text())
    assert len(instance.teachers) == 6


def test_gen_defaults_within_oracle_cap(capsys):
    from redeploy import random_instance_doc

    for seed in range(1000):
        doc = random_instance_doc(seed)
        space = 1
        for teacher in doc["teachers"]:
            space *= len(teacher["acceptable"]) + 1
        assert space <= 10_000_000


def test_report_table_and_csv(tmp_path, capsys):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", FIXTURES / "example_rounding.json", "-o", solution)
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "report", solution, "--csv", csv_path)
    assert code == 0
    assert "blocks:" in out
    assert "22/5" in out
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "school,beta,final_deficit,moved_in"
    assert all(len(row.split(",")) == 4 for row in rows)
    assert len(rows) == 1 + 7


def test_report_zero_moves(tmp_path, capsys):
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps({
        "surplus_schools": [{"id": "s1", "alpha": 1},
                            {"id": "s2", "alpha": 1}],
        "deficit_schools": [{"id": "d1", "beta": 2}],
        "teachers": [{"id": "t1", "origin": "s1", "acceptable": ["s2"]}],
    }))
    solution = tmp_path / "solution.json"
    run(capsys, "solve", instance, "-o", solution)
    code, out, _ = run(capsys, "report", solution)
    assert code == 0
    assert "0 teachers moved" in out


@pytest.mark.parametrize("fixture,variant", VARIANT_FIXTURES)
def test_report_csv_beta_is_the_instance_beta(tmp_path, capsys, fixture,
                                              variant):
    solution = tmp_path / "solution.json"
    run(capsys, "solve", FIXTURES / fixture, "--variant", variant,
        "-o", solution)
    csv_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "report", solution, "--csv", csv_path)
    assert code == 0
    instance = _load_instance(FIXTURES / fixture, variant)
    betas = dict(instance.deficit_positions) if variant == "specialization" \
        else instance.betas
    rows = [row.split(",") for row in csv_path.read_text().splitlines()[1:]]
    assert {school: int(beta) for school, beta, _, _ in rows} == betas


def test_dot_command(tmp_path, capsys):
    code, out, _ = run(capsys, "dot", FIXTURES / "example_small.json")
    assert code == 0
    assert out.startswith("digraph")
    for fixture, variant in VARIANT_FIXTURES:
        code, out, _ = run(capsys, "dot", FIXTURES / fixture,
                           "--variant", variant)
        assert code == 0
        instance = _load_instance(FIXTURES / fixture, variant)
        assert out == to_dot(BUILDERS[variant](instance))
