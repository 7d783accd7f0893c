"""``bench/pairs.py`` runs alternated benchmark pairs and prints one line per metric."""

import ast
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
    for name, line in zip(names, lines[1:]):
        assert re.fullmatch(rf"{name}: parent \S+ change \S+ \(([+-]\d+\.\d%|n/a)\), "
                            r"change lower in [01] of 1, parent IQR 0", line), line
    # ok_ratio is 1 on both sides, so the change is not lower
    assert lines[1 + names.index("ok_ratio")] == \
        "ok_ratio: parent 1 change 1 (+0.0%), change lower in 0 of 1, parent IQR 0"


def test_a_checkout_without_source_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path), str(ROOT),
                           "--workload", "smoke", "--pairs", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stdout == "" and proc.stderr.startswith(f"error: {tmp_path}")
