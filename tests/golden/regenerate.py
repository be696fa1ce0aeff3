"""Regenerate the golden CLI payloads (timing stripped) and CSV tables.

Run from the repository root:

    python tests/golden/regenerate.py
"""

import contextlib
import io
import json
from pathlib import Path

from bellsquare.cli import main

CASES = {
    "identities": ["identities"],
    "quantum_v05": ["quantum", "--visibility", "0.5"],
    "hv_bound_signed": ["hv-bound", "--variant", "signed"],
    "hv_bound_both": ["hv-bound", "--variant", "both"],
    "sweep_small": ["sweep", "--grid", "0:1:0.25"],
    "sample_small": ["sample", "--shots", "2000", "--seed", "7", "--visibility", "0.9"],
}
# Written as printed, so the column order and number format are pinned too.
CSV_CASES = {
    "sweep_small": ["sweep", "--grid", "0:1:0.25", "--format", "csv"],
}


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _stdout(name, argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{name}: exit code {code}")
    return buffer.getvalue()


def regenerate() -> None:
    out_dir = Path(__file__).parent
    for name, argv in CASES.items():
        report = json.loads(_stdout(name, argv), parse_constant=_reject_constant)
        report.pop("elapsed_seconds", None)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}")
    for name, argv in CSV_CASES.items():
        path = out_dir / f"{name}.csv"
        path.write_text(_stdout(name, argv))
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
