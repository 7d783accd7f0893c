"""``bench/pairs.py`` runs alternated benchmark pairs and prints one line per metric."""

import ast
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "pairs.py"


def test_pairs_imports_the_standard_library_alone():
    tree = ast.parse(SCRIPT.read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "subprocess" in modules  # the walk sees the imports
    assert {m for m in modules if m.split(".")[0] not in sys.stdlib_module_names} == set()


def test_one_smoke_pair_of_the_repository_against_itself():
    # two runs not recorded, then one pair; about 3 s
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT),
                           "--workload", "smoke", "--pairs", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload smoke, pairs 1, order flipped at each pair"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    assert len(lines) == 1 + len(names)
    for metric, line in zip(bench["end_to_end"], lines[1:]):
        bound = re.escape(f"{metric['bound']:g}")
        assert re.fullmatch(rf"{metric['name']}: parent \S+ change \S+ "
                            r"\(([+-]\d+\.\d%|n/a)\), change lower in [01] of 1, "
                            rf"parent IQR 0, (past|within) bound {bound}", line), line
    # ok_ratio is 1 on both sides, so the change is not lower, nor worse
    assert lines[1 + names.index("ok_ratio")] == \
        "ok_ratio: parent 1 change 1 (+0.0%), change lower in 0 of 1, parent IQR 0, " \
        "within bound 0.01"


def test_a_checkout_without_source_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path), str(ROOT),
                           "--workload", "smoke", "--pairs", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stdout == "" and proc.stderr.startswith(f"error: {tmp_path}")


def test_the_gate_counts_only_the_worse_direction():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    latency = {"name": "job_s", "better": "lower", "bound": 0.25}
    ratio = {"name": "ok_ratio", "better": "higher", "bound": 0.01}
    assert pairs.gate(latency, 1.0, 1.25) == "within bound 0.25"
    assert pairs.gate(latency, 1.0, 1.26) == "past bound 0.25"
    assert pairs.gate(latency, 1.0, 0.5) == "within bound 0.25"  # a gain
    assert pairs.gate(ratio, 1.0, 0.98) == "past bound 0.01"
    assert pairs.gate(ratio, 1.0, 0.995) == "within bound 0.01"
    assert pairs.gate(ratio, 0.5, 1.0) == "within bound 0.01"  # a gain


def test_runs_write_one_json_line_per_recorded_run(monkeypatch, capsys):
    # run_once stubbed: each run reads its own call number in every metric;
    # the two runs not recorded write nothing, and a second call writes the
    # same stdout and one line per recorded run again
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        return dict.fromkeys(names, float(len(calls)))

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = ["parent", "change", "--workload", "smoke", "--pairs", "2"]
    assert pairs.main(argv) == 0
    out, err = capsys.readouterr()
    assert calls == ["parent", "change", "parent", "change", "change", "parent"]
    rows = [json.loads(line) for line in err.splitlines()]
    assert [(r.pop("side"), r.pop("pair")) for r in rows] == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1)]
    assert rows == [dict.fromkeys(names, float(i)) for i in (3, 4, 5, 6)]
    del calls[:]
    assert pairs.main(argv) == 0
    again, err = capsys.readouterr()
    assert again == out and len(err.splitlines()) == 4
    assert out.splitlines()[0] == "workload smoke, pairs 2, order flipped at each pair"
