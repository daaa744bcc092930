"""Each demo runs in a fresh process and prints what it printed when
its stdout digest was recorded, so the demos follow every API change.
The README's table of entry points names only what the package has."""

import hashlib
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
