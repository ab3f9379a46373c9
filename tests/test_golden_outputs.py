"""CLI outputs against the committed golden outputs.

Every file the commands of `tests/golden_outputs.py` write is compared
parsed: keys, headers, strings, bools, ints and JSON types exactly,
floats within 1e-9. A change that alters outputs on purpose regenerates
the file with `tests/golden_outputs.py` and says so.
"""

import json

import pytest

import golden_outputs

GOLDEN = json.loads(golden_outputs.PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden_outputs.run(tmp_path_factory.mktemp("golden_outputs"))


def test_golden_file_covers_every_command():
    assert list(GOLDEN) == list(golden_outputs.COMMANDS)


@pytest.mark.parametrize("command", list(golden_outputs.COMMANDS))
def test_outputs_match_golden(fresh, command):
    moves = golden_outputs.differences(command, fresh[command], GOLDEN[command])
    assert not moves, f"{len(moves)} differences, first ones:\n" + "\n".join(moves[:10])
