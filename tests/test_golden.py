"""The ``cuntzr all`` battery, pinned record by record.

``golden_all.json`` holds every record of ``run_scenario(ScenarioSpec("all"))``
as generated at commit 4544898: its name, pass flag, residual as
``float.hex`` and witness. A change that moves any residual by one bit,
renames or reorders a record, or changes a witness fails here, and so does
one that changes a byte of the report ``cuntzr all --out`` writes.
"""

import hashlib
import json
from pathlib import Path

from cuntzr import cli
from cuntzr.cli import ScenarioSpec, run_scenario

GOLDEN = Path(__file__).with_name("golden_all.json")
# sha256 of the report `cuntzr all --out` writes
ALL_OUT_SHA256 = "525d34804554935b76bee5e174ffff0590176f58f56bf194cb008e7a5d374ac2"


def test_the_battery_matches_its_golden_records_and_report_bytes(tmp_path):
    report, _, _ = run_scenario(ScenarioSpec("all"))
    got = [
        {
            "name": check["name"],
            "pass": check["pass"],
            "residual": float(check["residual"]).hex(),
            "witness": check.get("witness"),
        }
        for check in report["checks"]
    ]
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["name"] for r in got] == [r["name"] for r in want]
    for g, w in zip(got, want):
        assert g == w
    assert report["pass"] is True
    # the bytes `cuntzr all --out` writes: the report as `emit` renders it
    out = tmp_path / "all.json"
    cli.emit(report, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALL_OUT_SHA256
