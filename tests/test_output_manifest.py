"""Every output of the manifest's commands is byte-identical to the committed manifest.

Each command of ``COMMANDS`` is one test: it runs, reruns from its own
metadata, and its lines must equal the committed ones that name it.  A
change that alters outputs on purpose regenerates ``output_manifest.txt``
with ``tests/output_manifest.py`` and lists each changed entry.
"""

import itertools

import pytest

from output_manifest import COMMANDS, MANIFEST, command_lines


def _entry(line: str) -> str:
    return line.split("  ", 1)[-1]


def test_the_committed_manifest_names_only_the_commands_outputs():
    entries = [_entry(line) for line in MANIFEST.read_text().splitlines()]
    assert entries == sorted(set(entries))
    assert {entry.split("/", 1)[0] for entry in entries} == set(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_outputs_match_the_committed_manifest(tmp_path, name):
    expected = [line for line in MANIFEST.read_text().splitlines()
                if _entry(line).split("/", 1)[0] == name]
    actual = [line.rstrip("\n") for line in command_lines(name, tmp_path)]
    if actual == expected:
        return
    line, (want, got) = next((i, pair) for i, pair in enumerate(
        itertools.zip_longest(expected, actual, fillvalue=""), 1) if pair[0] != pair[1])
    files = sorted({_entry(entry) for entry in set(expected) ^ set(actual)})
    pytest.fail(f"{_entry(want or got)} differs from {MANIFEST.name}, first at the "
                f"command's line {line}: expected {want!r}, got {got!r}; outputs that "
                f"differ: {', '.join(files)}", pytrace=False)
