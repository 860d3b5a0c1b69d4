"""The config schema table: documents built from it, and its documentation.

The property test builds whole config documents from ``cli.SCHEMA``.  Each
key gets a valid value, or, for up to three keys or sections, an extreme
value, a value of the wrong type, null or nothing.  Every document, run
through any command, a sweep of any short name or numeric key path among
them, must end in exit 0, 2 or 3 with at most one line on stderr and never
a traceback.  The docs test holds ``docs/config.md`` to the same table.
"""

import copy
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from test_error_contract import EXTREMES, SHIPPED, WRONG_TYPES, _at, run_quietly
from thzsecmap.cli import REQUIRED, SCHEMA, _numeric_paths, _required, _row, parse_config
from thzsecmap.linkmodel import Record

DOCS = Path(__file__).parent.parent / "docs" / "config.md"
ABSENT = object()


def _rows(table, prefix=()):
    """Every (path, row) of the table, sections before their keys."""
    for key, row in table.items():
        yield prefix + (key,), row
        if isinstance(row, dict):
            yield from _rows(row, prefix + (key,))


def _valid_values(path, row) -> tuple:
    """The key's values in the shipped configs, its default, and absence if optional."""
    values = []
    for doc in SHIPPED.values():
        for key in path:
            doc = doc.get(key, ABSENT) if isinstance(doc, dict) else ABSENT
        values.append(doc)
    if path[-1] == "min_relative_gain_db":  # set in neither shipped config
        values.append(-30.0)
    if row.default is not REQUIRED:
        values.append(ABSENT)
        if row.default is not None:
            values.append(row.default)
    return tuple(v for i, v in enumerate(values) if v not in values[:i])


PATHS = [path for path, _ in _rows(SCHEMA)]
VALID = {path: _valid_values(path, row) for path, row in _rows(SCHEMA)
         if not isinstance(row, dict)}
DAMAGES = {"extreme": EXTREMES, "type": WRONG_TYPES, "null": (None,), "absent": (ABSENT,)}


def _build(draw, table, prefix, damaged) -> dict:
    doc = {}
    for key, row in table.items():
        path = prefix + (key,)
        if path in damaged:
            value = draw(st.sampled_from(DAMAGES[draw(st.sampled_from(sorted(DAMAGES)))]))
        elif isinstance(row, dict):
            value = _build(draw, row, path, damaged)
        else:
            value = draw(st.sampled_from(VALID[path]))
        if value is not ABSENT:
            doc[key] = copy.deepcopy(value)  # later edits must not reach the constants
    return doc


@st.composite
def documents(draw):
    damaged = set(draw(st.lists(st.sampled_from(PATHS), max_size=3, unique=True)))
    return _build(draw, SCHEMA, (), damaged)


# each sweep name's values, a key path's from the table's valid values; every
# name also draws the extremes below
SWEPT = {"n": ("500", "2000", "2.5"), "phi_target": ("1e-3", "0.5", "1"),
         "R": ("0.1", "0.5"), "G_E": ("5", "25"), "G_A": ("10", "20"),
         "d_AB": ("10", "20", "70"), "l_AB": ("3.5", "8.5")}
SWEPT.update({path: tuple(repr(v) for v in VALID[tuple(path.split("."))]
                          if isinstance(v, (int, float)))
              for path in _numeric_paths()})
SWEPT_EXTREMES = ("0", "-1", "5e-324", "1e-300", "1e-12", "1e12", "1e300", "1e308",
                  "9007199254740992", "9007199254740994")


@st.composite
def commands(draw):
    command = draw(st.sampled_from(("plan", "link", "map", "sweep")))
    if command == "map":
        return ["map", "--resolution", "10"]
    if command != "sweep":
        return [command]
    variable = draw(st.sampled_from(list(SWEPT)))
    value = st.one_of(st.sampled_from(SWEPT[variable]), st.sampled_from(SWEPT_EXTREMES))
    values = draw(st.lists(value, min_size=1, max_size=2))
    return ["sweep", "--variable", variable, "--values", ",".join(values),
            "--area-resolution", "10"]


@seed(20261019)
@settings(max_examples=120, deadline=None, database=None)
@given(documents(), commands())
def test_documents_from_the_table_keep_the_error_contract(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        code, err = run_quietly([*command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3), err
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in err


def _documented_keys() -> dict:
    """Section heading -> the keys in its table, read from docs/config.md.

    A table with an ``antennas`` column lists its key once for every antenna
    named there, as ``antenna.key``.
    """
    sections, keys, per_antenna = {}, None, False
    for line in DOCS.read_text().splitlines():
        heading = re.match(r"### (\w+)", line)
        row = re.match(r"\| `(\w+)` \| ([^|]*) \|", line)
        if heading:
            keys = sections.setdefault(heading.group(1), set())
        elif line.startswith("| key |"):
            per_antenna = line.startswith("| key | antennas |")
        elif row and keys is not None:
            key, antennas = row.groups()
            keys |= {f"{who}.{key}" for who in antennas.split(", ")} if per_antenna else {key}
    return sections


def test_docs_list_every_key_of_the_table():
    expected = {}
    for section, row in SCHEMA.items():
        keys = expected[section] = set()
        for key, sub in (row.items() if isinstance(row, dict) else ()):
            keys |= {f"{key}.{name}" for name in sub} if isinstance(sub, dict) else {key}
    assert _documented_keys() == expected


def test_docs_mark_each_section_required_as_the_table_does():
    marks = re.findall(r"^### (\w+) \((required|optional)", DOCS.read_text(), re.MULTILINE)
    assert dict(marks) == {section: "required" if _required(row) else "optional"
                           for section, row in SCHEMA.items()}


def test_records_take_the_keys_of_their_sections_as_fields():
    """Each record the loader builds has its sections' keys as its fields, in the config's
    units, so that a refusal that starts with a field starts with a key; a rename on either
    side fails here."""
    for doc in SHIPPED.values():
        rc = parse_config(copy.deepcopy(doc))
        scenario = rc.scenario
        built = {("environment",): scenario.environment, ("scenario", "power"): scenario,
                 **{(f"antennas.{who}",): getattr(scenario, who) for who in SCHEMA["antennas"]}}
        for sections, record in built.items():
            fields = {field: value for field, value in record._asdict().items()
                      if not isinstance(value, Record)}
            given = {key: value for section in sections
                     for key, value in _at(rc.raw, section.split(".")).items()}
            assert {key: fields[key] for key in given} == given, sections
            if sections[0] in ("antennas.bob", "antennas.eve"):  # they take the gain alone
                assert set(given) == {"gain_dbi"}
            else:
                assert set(fields) == set(given) == {key for section in sections
                                                     for key in _row(section)}, sections
