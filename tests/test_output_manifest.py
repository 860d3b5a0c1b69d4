"""Every output of the manifest's commands is byte-identical to the committed manifest.

A change that alters outputs on purpose regenerates ``output_manifest.txt``
with ``tests/output_manifest.py`` and lists each changed entry.
"""

import itertools

import pytest

from output_manifest import MANIFEST, manifest_text


def test_outputs_match_the_committed_manifest():
    expected = MANIFEST.read_text().splitlines()
    actual = manifest_text().splitlines()
    if actual == expected:
        return
    line, (want, got) = next((i, pair) for i, pair in enumerate(
        itertools.zip_longest(expected, actual, fillvalue=""), 1) if pair[0] != pair[1])
    files = sorted({entry.split("  ", 1)[-1] for entry in set(expected) ^ set(actual)})
    pytest.fail(f"{(want or got).split('  ', 1)[-1]} differs from {MANIFEST.name}, first at "
                f"its line {line}: expected {want!r}, got {got!r}; outputs that differ: "
                f"{', '.join(files)}", pytrace=False)
