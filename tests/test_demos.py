"""Each demo runs in a fresh process and prints what it printed when
its stdout digest was recorded, so the demos follow every API change.
The README's table of entry points names only what the package has, and
its field types are the ones the example bundle uses."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import defectcast

DEMOS = Path(__file__).parent.parent / "demos"

GOLDEN = {
    "01_bundle_basics.py":
        "5636bf546579b602938e15e6c88a7ea38b80ee71372a1da76d01a32a9f299530",
    "02_increase_distributions.py":
        "134b1183f850ad25bd838d1f5f4401eb9c27e4952afa41f81a9559c6e4203666",
    "03_calibrate_and_predict.py":
        "d326052ed36acb21e67d1db39913c2f4498bc65a073f1aab1f1a0b74c27ce901",
    "04_model_validation.py":
        "ed9577de71ba64d87d3591b0eb4bd3a778a4673536ae222634b568e769a8ca8c",
}


def test_every_demo_is_pinned():
    assert sorted(GOLDEN) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("demo", sorted(GOLDEN))
def test_demo_stdout(demo):
    src = Path(defectcast.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == GOLDEN[demo]


def test_readme_entry_points_exist():
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("Key entry points", 1)[1].split("\n\n", 2)[1]
    names = re.findall(r"`(\w+)`", table)
    assert len(names) > 20
    assert [n for n in names if not hasattr(defectcast, n)] == []
    # A row anywhere else would name entry points that go unchecked.
    rows = [line for line in readme.splitlines() if line.startswith("|")]
    assert rows == table.splitlines()


JSON_TYPES = {
    "string": (str,), "number": (int, float), "boolean": (bool,),
    "array": (list,), "object": (dict,),
}
SECTIONS = {
    "factor": "factors", "quantification": "quantifications",
    "ranking": "rankings", "release": "releases",
}


def documented_field_types():
    """(section, key) -> JSON types, from the README's field-type paragraph."""
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Every field has one JSON type", 1)[1].split("\n\n")[0]
    text = " ".join(paragraph.split())
    types = {}
    for noun, sentence in re.findall(r"A (\w+)'s ([^.]*)\.", text):
        for names, word in re.findall(
            r"((?:`\w+`(?:, | and )?)+) (?:is|are) (?:an? )?"
            r"(string|number|boolean|array|object)", sentence,
        ):
            for name in re.findall(r"`(\w+)`", names):
                types[SECTIONS[noun], name] = JSON_TYPES[word]
    return types


def test_example_bundle_fields_have_documented_types():
    types = documented_field_types()
    assert len(types) == 21  # every field of the four record sections
    doc = json.loads((DEMOS / "data" / "example_bundle.json").read_text())
    for section in SECTIONS.values():
        for item in doc[section]:
            for key, value in item.items():
                # type(), not isinstance(): a JSON true is no number.
                assert type(value) in types[section, key], (section, key, value)
                if type(value) is list:  # a factor's level descriptions
                    assert [type(v) for v in value] == [str] * 4
                if type(value) is dict:  # ranks and levels
                    assert {type(v) for v in value.values()} == {int}
