from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import votepower
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
    # board_tables passes neither value to a sampler, yet mc rejects both.
    for path in (scenario_path, corpus_dir() / "board_tables.json"):
        for flag, value, message in (("--seed", "-1", "seed must be a non-negative integer"),
                                     ("--samples", "0", "samples must be a positive integer")):
            assert main(["run", str(path), "--backend", "mc", flag, value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"validation error: {message}\n"
            # The exact backends ignore both.
            assert main(["run", str(path), flag, value]) == 0
            capsys.readouterr()


def test_run_accepts_shipped_corpus_files(capsys):
    path = corpus_dir() / "grandfather_figures.json"
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "18.00%" in out
    assert "methods DIVERGE" in out


def test_every_corpus_file_runs_and_the_exact_backends_agree(capsys):
    # Every shipped file runs under each backend, format and quota reading,
    # each machine document names its backend, and enum and dp give the same
    # machine documents but for "backend".
    failures = []
    # In telecom_blockholders the float-adjusted weights scale to 53,930,000
    # before dividing by their gcd of 10,000; dp's table bound applies to the
    # reduced total.
    for path in sorted(corpus_dir().glob("*.json")):
        for reading in ("percent", "exact-fraction"):
            machine = {}
            for backend in (["enum"], ["dp"], ["mc", "--samples", "200"]):
                for fmt in ("table", "machine"):
                    argv = ["run", str(path), "--quota-interpretation", reading,
                            "--backend", *backend, "--format", fmt]
                    code = main(argv)
                    out, err = capsys.readouterr()
                    if code != 0 or err:
                        failures.append((code, err, argv))
                    if fmt == "machine":
                        tag = f'"backend": "{backend[0]}"'
                        if tag not in out:
                            failures.append((f"no {tag}", path.name, reading))
                        machine[backend[0]] = out.replace(tag, "")
            if machine["enum"] != machine["dp"]:
                failures.append(("enum and dp differ", path.name, reading))
    assert failures == []


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


def _fields(node, found):
    """Append (container, key) for every value under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        found.append((node, key))
        if isinstance(value, (dict, list)):
            _fields(value, found)
    return found


def test_structurally_mutated_corpus_never_raises(tmp_path, capsys):
    # Scenario fuzzing: one value of a shipped scenario replaced by another
    # JSON type, one key deleted or one list item repeated must end in an
    # exit code under every backend and format, never in an exception.
    rng = random.Random(3)
    scenarios = [json.loads(path.read_text(encoding="utf-8"))["scenario"]
                 for path in sorted(corpus_dir().glob("*.json"))]
    others = (None, True, 1.5, "x", [], {})
    path = tmp_path / "mutated.json"
    codes = set()
    for k in range(40):
        scenario = json.loads(json.dumps(scenarios[k % len(scenarios)]))
        fields = _fields(scenario, [])
        mutation = k % 3
        if mutation == 0:
            node, key = rng.choice(fields)
            node[key] = rng.choice([v for v in others if type(v) is not type(node[key])])
        elif mutation == 1:
            node, key = rng.choice([(n, key) for n, key in fields if isinstance(n, dict)])
            del node[key]
        else:
            node, key = rng.choice([(n, i) for n, i in fields if isinstance(n, list)])
            node.insert(key, json.loads(json.dumps(node[key])))
        path.write_text(json.dumps(scenario))
        for backend in (["enum"], ["dp"], ["mc", "--samples", "64"]):
            for fmt in ("machine", "table"):
                codes.add(main(["run", str(path), "--backend", *backend, "--format", fmt]))
                capsys.readouterr()
    # Some mutations leave a valid document and some are rejected.
    assert {0, 2} <= codes <= {0, 1, 2}


# Runs each argument list through main() and prints, before the first and
# after each, whether numpy is loaded.
_NUMPY_PROBE = """
import contextlib, io, json, sys
from votepower.cli import main
loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def _numpy_loaded(runs: list[list[str]], cwd: Path) -> list[bool]:
    # A fresh interpreter: this one has numpy loaded already.
    env = {**os.environ, "PYTHONPATH": str(Path(votepower.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(runs)], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _power_scenario(path: Path, players: int, base: int = 100, step: int = 7) -> str:
    entities = [{"id": f"P{i}", "name": f"P{i}", "nationality": "domestic"} for i in range(players)]
    path.write_text(json.dumps({
        "schema_version": 1, "entities": entities, "graphs": [],
        "games": [{"id": "g", "quota": {"num": 51, "den": 100},
                   "players": [{"entity": e["id"], "weight_bp": base + step * i}
                               for i, e in enumerate(entities)]}],
        "analyses": [{"analysis": "power", "game": "g"}]}))
    return str(path)


def test_enum_runs_on_the_corpus_never_load_numpy(tmp_path):
    # Only dp, mc and enum games of 11-24 players whose weights sum below
    # 2^62 import numpy, in the kernels that use it; the shipped corpus needs
    # none of them under either reading or format, nor does a game of 16
    # stockholders whose weights sum to about 2^64.
    wide = _power_scenario(tmp_path / "wide.json", 16, base=2**60, step=7919)
    runs = [["verify-corpus"], ["run", _power_scenario(tmp_path / "ten.json", 10)]]
    runs += [["run", str(f), "--quota-interpretation", reading, "--format", fmt]
             for f in sorted(corpus_dir().glob("*.json"))
             for reading in ("percent", "exact-fraction") for fmt in ("table", "machine")]
    runs += [["run", wide, "--backend", "enum", "--format", fmt] for fmt in ("table", "machine")]
    assert _numpy_loaded(runs, tmp_path) == [False] * (len(runs) + 1)


def test_dp_mc_and_larger_enum_games_load_numpy(tmp_path):
    telecom = str(corpus_dir() / "telecom_blockholders.json")
    for run in (["run", telecom, "--backend", "dp"],
                ["run", telecom, "--backend", "mc", "--samples", "64"],
                ["run", _power_scenario(tmp_path / "eleven.json", 11)]):
        assert _numpy_loaded([run], tmp_path) == [False, True]


def _modules_loaded(statement: str) -> set[str]:
    """The modules a fresh interpreter has loaded after ``statement``."""
    env = {**os.environ, "PYTHONPATH": str(Path(votepower.__file__).parents[1])}
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_the_cold_import_builds_no_class_by_code_generation():
    # dataclasses writes each class's methods as source and runs exec on it,
    # and brings in inspect: together most of the package's own import time.
    loaded = _modules_loaded("import votepower.cli") - _modules_loaded("pass")
    assert "votepower.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def _machine_documents(path: Path, backend: list[str], capsys) -> list[dict]:
    assert main(["run", str(path), "--backend", *backend, "--format", "machine"]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_every_corpus_file_gives_the_same_documents_with_its_analyses_reversed(tmp_path, capsys):
    # Tier verdicts are judged on demand and kept per graph, so an analysis
    # must not depend on which analyses ran before it. Every corpus graph has
    # two tiers, so one call judges both. In this three-tier chain U1
    # dictates C1, C1 holds 60% of C2 and C2 30% of C3: run forward, the
    # second compare judges C3 alone, and must still see C2's block voted by U1.
    stakes = {"C1": {"U1": 10000}, "C2": {"C1": 6000, "U2": 4000},
              "C3": {"C2": 3000, "U3": 3500, "U4": 3500}}
    three_tier = tmp_path / "three_tier.json"
    three_tier.write_text(json.dumps({"scenario": {
        "schema_version": 1,
        "entities": [{"id": x, "name": x, "nationality": "domestic"}
                     for x in ("U1", "U2", "U3", "U4", *stakes)],
        "games": [],
        "graphs": [{"id": "three_tier",
                    "holdings": [{"holder": h, "corporation": c, "weight_bp": w}
                                 for c, held in stakes.items() for h, w in held.items()],
                    "quotas": [{"corporation": c, "quota": {"num": 51, "den": 100}}
                               for c in stakes]}],
        "analyses": [{"analysis": "compare", "graph": "three_tier", "target": t}
                     for t in ("C2", "C3")]}}))
    reversed_path = tmp_path / "reversed.json"
    differ = []
    for path in [*sorted(corpus_dir().glob("*.json")), three_tier]:
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["scenario"]["analyses"].reverse()
        reversed_path.write_text(json.dumps(entry))
        for backend in (["enum"], ["mc", "--samples", "200"]):
            forward = _machine_documents(path, backend, capsys)
            backward = _machine_documents(reversed_path, backend, capsys)
            for document in backward:
                document["index"] = len(forward) - 1 - document["index"]
            if sorted(backward, key=lambda d: d["index"]) != forward:
                differ.append((path.name, backend[0]))
    assert differ == []


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
