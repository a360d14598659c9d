from __future__ import annotations

import json
import random
import shutil

import pytest

from votepower import corpus
from votepower.cli import main
from votepower.corpus import corpus_dir, verify_corpus

SCENARIO = {
    "schema_version": 1,
    "entities": [
        {"id": "P1", "name": "Foreign blockholder", "nationality": "foreign"},
        {"id": "P2", "name": "Local 2", "nationality": "domestic"},
        {"id": "P3", "name": "Local 3", "nationality": "domestic"},
        {"id": "PUB", "name": "Public float", "nationality": "public_float"},
    ],
    "games": [
        {"id": "base", "quota": {"num": 51, "den": 100},
         "players": [
             {"entity": "P1", "weight_bp": 4000},
             {"entity": "P2", "weight_bp": 2000},
             {"entity": "P3", "weight_bp": 2000},
             {"entity": "PUB", "weight_bp": 2000},
         ]}
    ],
    "graphs": [],
    "analyses": [
        {"analysis": "power", "game": "base"},
        {"analysis": "float_adjust", "game": "base"},
        {"analysis": "classify", "game": "base"},
    ],
}


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def test_run_table_format(scenario_path, capsys):
    assert main(["run", str(scenario_path)]) == 0
    out = capsys.readouterr().out
    assert "50.00%" in out
    assert "net of public float" in out
    assert "effective_control" in out


def test_run_machine_format_is_json_per_analysis(scenario_path, capsys):
    assert main(["run", str(scenario_path), "--format", "machine"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert len(lines) == 3
    documents = [json.loads(line) for line in lines]
    assert documents[0]["power"]["players"][0]["normalized"] == {"num": 1, "den": 2}
    assert documents[1]["adjusted"]["players"][0]["weight_bp"] == {"num": 5000, "den": 1}
    assert documents[2]["classifications"] == {"P1": "effective_control"}


def test_run_mc_backend(scenario_path, capsys):
    assert main(["run", str(scenario_path), "--backend", "mc",
                 "--samples", "2000", "--seed", "11", "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["run", str(scenario_path), "--backend", "mc",
                 "--samples", "2000", "--seed", "11", "--format", "machine"]) == 0
    assert capsys.readouterr().out == first


def test_run_empty_analyses(tmp_path, capsys):
    document = dict(SCENARIO, analyses=[])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(document))
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_run_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["run", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_run_validation_error_exit_code(tmp_path, capsys):
    document = dict(SCENARIO)
    document["games"] = [dict(SCENARIO["games"][0], quota={"num": 1, "den": 2})]
    path = tmp_path / "minority.json"
    path.write_text(json.dumps(document))
    assert main(["run", str(path)]) == 2
    assert "dictator" in capsys.readouterr().err


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


def test_run_directory_exits_2_with_one_line(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "Is a directory" in err


def test_run_non_utf8_file_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(SCENARIO).encode("utf-16-le"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "scenario error: invalid UTF-8 at byte offset 0: invalid start byte\n"


def test_run_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "scenario error: invalid JSON: arrays or objects nested too deeply\n"


def test_run_overlong_integer_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "digits.json"
    path.write_text('{"schema_version": ' + "9" * 5_000 + "}")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "scenario error: invalid JSON: an integer literal has too many digits\n"


def test_run_mc_negative_seed_exits_2_with_one_line(scenario_path, capsys):
    assert main(["run", str(scenario_path), "--backend", "mc", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "validation error: seed must be a non-negative integer\n"
    # The exact backends ignore the seed.
    assert main(["run", str(scenario_path), "--seed", "-1"]) == 0


def test_run_accepts_shipped_corpus_files(capsys):
    path = corpus_dir() / "grandfather_figures.json"
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "18.00%" in out
    assert "methods DIVERGE" in out


def test_run_dp_backend_matches_enum_on_telecom_corpus(capsys):
    # The float-adjusted weights scale to 53,930,000 before dividing by
    # their gcd of 10,000; the table bound applies to the reduced total.
    path = str(corpus_dir() / "telecom_blockholders.json")
    outputs = {}
    for backend in ("enum", "dp"):
        assert main(["run", path, "--backend", backend, "--format", "machine"]) == 0
        outputs[backend] = capsys.readouterr().out
    assert '"backend": "dp"' in outputs["dp"]
    assert outputs["dp"].replace('"backend": "dp"', '"backend": "enum"') == outputs["enum"]


def _integer_fields(node, found):
    """Append (container, key) for every integer value under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, int) and not isinstance(value, bool):
            found.append((node, key))
        elif isinstance(value, (dict, list)):
            _integer_fields(value, found)
    return found


def test_mutated_corpus_integers_never_raise(tmp_path, capsys):
    # Scenario fuzzing: one or two integer fields of a shipped scenario set to
    # an extreme value must end in an exit code, 2 for bad input and 1 for a
    # backend limit, never in an exception.
    rng = random.Random(8)
    scenarios = [json.loads(path.read_text(encoding="utf-8"))["scenario"]
                 for path in sorted(corpus_dir().glob("*.json"))]
    values = (0, 1, -1, 10001, 2**63, 10**40)
    path = tmp_path / "mutated.json"
    codes = []
    for k in range(150):
        scenario = json.loads(json.dumps(scenarios[k % len(scenarios)]))
        for node, key in rng.sample(_integer_fields(scenario, []), rng.randint(1, 2)):
            node[key] = rng.choice(values)
        path.write_text(json.dumps(scenario))
        backend = ("enum", "dp", "mc")[k % 3]
        codes.append(main(["run", str(path), "--backend", backend, "--samples", "64",
                           "--format", rng.choice(("machine", "table"))]))
        capsys.readouterr()
    # Every run ended in a code, and the mutations reach valid documents,
    # rejected ones and backend limits.
    assert set(codes) == {0, 1, 2}


def test_verify_corpus_cli(capsys):
    assert main(["verify-corpus"]) == 0
    out = capsys.readouterr().out
    assert "all scenarios pass" in out
    assert "documented divergence" in out


def test_verify_corpus_subset(capsys):
    assert main(["verify-corpus", "--subset", "critical_stockholders"]) == 0
    out = capsys.readouterr().out
    assert "critical_stockholders" in out
    assert "mining_chains" not in out


def test_verify_corpus_unknown_subset(capsys):
    assert main(["verify-corpus", "--subset", "nonesuch"]) == 2


def test_corrupted_expected_value_fails_with_diff(tmp_path, monkeypatch):
    target = tmp_path / "corpus"
    target.mkdir()
    for name in ("critical_stockholders",):
        shutil.copy(corpus_dir() / f"{name}.json", target / f"{name}.json")
    path = target / "critical_stockholders.json"
    document = json.loads(path.read_text())
    document["checks"][0]["expect"]["power"]["players"][0]["beta"] = 4
    path.write_text(json.dumps(document))
    monkeypatch.setattr(corpus, "corpus_dir", lambda: target)
    report = verify_corpus()
    assert not report.passed
    lines = "\n".join(report.summary_lines())
    assert "FAIL" in lines
    assert "expected 4, got 3" in lines
