"""The mutant catalogue (``tests/mutants.py``) matches the tree it is run on.

Running the mutants takes a pytest run each (``python tests/mutants.py
--all``); this checks that each can be applied and names real tests, and
runs the one that no check in ``src/`` catches, only the tests.
"""

import ast
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 4


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_replaced_text_occurs_once_in_src(mutant):
    assert mutant.path.startswith("src/hmdft/")
    text = (ROOT / mutant.path).read_text()
    for old, new in mutant.edits:
        assert old != new and text.count(old) == 1, (mutant.name, old)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_node_id_names_a_test(mutant):
    assert mutant.node_ids
    for node in mutant.node_ids:
        path, name = node.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, node


def test_apply_changes_only_the_named_file(tmp_path):
    mutant = mutants.MUTANTS[1]  # two edits in one file
    target = tmp_path / mutant.path
    target.parent.mkdir(parents=True)
    original = (ROOT / mutant.path).read_text()
    target.write_text(original)
    mutants.apply(mutant, tmp_path)
    mutated = target.read_text()
    for old, new in mutant.edits:
        assert old not in mutated or old in new
    assert len(mutated) == len(original) + sum(len(n) - len(o) for o, n in mutant.edits)
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.apply(mutant, tmp_path)


def test_the_mutant_no_src_check_catches_is_killed():
    # the orbit walk and the root check's subfield test broken together: a
    # reducible witness is reported, and Rabin's test in the tests sees it
    # (test_c5_witness_grid_end_to_end is its first node id)
    by_name = {m.name: m for m in mutants.MUTANTS}
    assert mutants.run(by_name["orbit-walk-and-no-subfield-test"])
