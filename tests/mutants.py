"""Mutants that the tests must kill.

Each mutant is one text edit to a module of ``src/bellsquare``.  For each
one, the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the edit there and runs ``pytest -x -q`` on
the test files or test nodes named for that mutant.  The run must end
with failing tests (pytest exit code 1).  A mutant that survives, or whose
text is not found exactly once in its module, fails the script.  The
checkout itself is never edited.

Run from anywhere, with the checkout's tests passing::

    python tests/mutants.py

Stdlib only; pytest, numpy and hypothesis must be importable.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/bellsquare
    old: str
    new: str
    tests: tuple[str, ...]  # file names or test node ids under tests/


MUTANTS = (
    # A subset product that is ±𝟙 reads as its phase, not as ±tr ρ; the
    # two agree only on states of trace exactly 1.
    Mutant("identity-product rows read as ±1", "sequences.py",
           "probabilities = characters @ rho.coefficients[indices]",
           "probabilities = characters @ np.where(np.array(indices) == 0, 1.0, "
           "rho.coefficients[indices])",
           ("test_sequences.py",)),
    # The estimator's counter reads draw i - 1 of the stream where it should
    # read draw i, so its counts drift from the sampled rows.
    Mutant("counter stream offset start + 1 read as start", "sequences.py",
           "counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)",
           "counters = np.arange(start, start + count, dtype=np.uint64)",
           ("test_sequences.py",)),
    # A draw equal to an edge is tallied below it; searchsorted(side="right")
    # puts it in the cell above.
    Mutant("counter tallies draws on an edge below it", "sequences.py",
           "tally[j] += np.count_nonzero(draws < edge)",
           "tally[j] += np.count_nonzero(draws <= edge)",
           ("test_sequences.py",)),
    # The vectorised SplitMix64 finalizer that uniform01 and the counter
    # share drifts from the scalar _mix64.
    Mutant("changed SplitMix64 multiplier in the shared vectorised finalizer", "sequences.py",
           "np.uint64(0xBF58476D1CE4E5B9)",
           "np.uint64(0xBF58476D1CE4E5B7)",
           ("test_sequences.py",)),
    # The incremental scan skips the step add into block 251 of 2^24.
    Mutant("scan skips the update into block 251", "hv_models.py",
           "if step:",
           "if step and start != 251 * _BLOCK:",
           ("test_hv_models.py",)),
    # Each step moves its flipped terms by their table once, not twice.
    Mutant("step delta built without its factor 2", "hv_models.py",
           "delta = 2 * sum(",
           "delta = sum(",
           ("test_hv_models.py",)),
    # Every block after the first is scanned with the first block's maximum.
    Mutant("scan keeps the previous maximum after a changed block", "hv_models.py",
           "if values is not previous:",
           "if previous is None:",
           ("test_hv_models.py",)),
    # Every bound is scanned for one witness only, so a bound with more
    # than one witness returns too few.
    Mutant("bound scanned for one witness", "hv_models.py",
           "_scan(layout, variant, 0, n_models, count)",
           "_scan(layout, variant, 0, n_models)",
           ("test_hv_models.py",)),
    # A block that ties the maximum adds no witnesses once any are found, so
    # the lowest witnesses stop at the first block that attains it.
    Mutant("scan takes tied witnesses from one block only", "hv_models.py",
           "if top == best and len(found) < count:",
           "if top == best and not found:",
           ("test_hv_models.py",)),
    # The first-measurement assignment reads B through C' and C through B'.
    Mutant("first-measurement relabelling swaps two partners", "hv_models.py",
           """label: f"{label}'" if label in PAIR_SIGNS else label""",
           """label: {"B": "C'", "C": "B'"}.get(label, f"{label}'") if label in PAIR_SIGNS else label""",
           ("test_hv_models.py",)),
    # The γcC sequence loses its minus sign, as if the square's last column
    # multiplied to +1.
    Mutant("sign of the γcC chi term flipped", "observables.py",
           '"γcC": -1}',
           '"γcC": 1}',
           ("test_inequality.py",)),
    # Bob's partner of B carries the wrong sign in its S terms.
    Mutant("sign of B's pair flipped", "observables.py",
           'PAIR_SIGNS = {"B": -1,',
           'PAIR_SIGNS = {"B": 1,',
           ("test_inequality.py",)),
    # Entries down to -1e-12 reach the cumulative unclamped, so it can
    # fall and stop being sorted.
    Mutant("negative probabilities not clamped in the inverse CDF", "sequences.py",
           "np.maximum([dist.entries[c] for c in cells], 0.0)",
           "np.array([dist.entries[c] for c in cells])",
           ("test_sequences.py",)),
    # The bisection moves the wrong endpoint, so it runs away from the
    # crossing.
    Mutant("threshold bisection keeps the wrong half", "inequality.py",
           "if excess(mid) < 0:",
           "if excess(mid) > 0:",
           ("test_inequality.py",)),
    # Every odd-Y string's entries change sign (i for -i).
    Mutant("sign of i flipped in the entry table", "states.py",
           "PHASES[(x & z).bit_count() % 4]",
           "PHASES[-(x & z).bit_count() % 4]",
           ("test_states.py",)),
    # Coefficients with imaginary parts up to the whole tolerance pass, so
    # an entry of ρ − ρ† can reach twice it.
    Mutant("Hermiticity rule not halved", "states.py",
           "if worst > HERMITICITY_TOL / 2:",
           "if worst > HERMITICITY_TOL:",
           ("test_states.py",)),
    # Row stride 15 in the gather: the strings read entries of ρ other
    # than their own.
    Mutant("off-by-one row stride in the gather index", "states.py",
           "gather = columns * 16 + np.arange(16)",
           "gather = columns * 15 + np.arange(16)",
           ("test_states.py",)),
)


def _verdict(mutant: Mutant, workdir: Path) -> str | None:
    """Apply one mutant in a fresh copy; None if the tests kill it, else why not."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, workdir / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", workdir / "pyproject.toml")
    target = workdir / "src" / "bellsquare" / mutant.module
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"its text occurs {text.count(mutant.old)} times in {mutant.module}, not once"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *(f"tests/{name}" for name in mutant.tests)],
        cwd=workdir, env=env, capture_output=True, text=True)
    if result.returncode == 1:
        return None
    tail = "\n".join(result.stdout.splitlines()[-3:])
    return f"pytest exited {result.returncode}, not 1 (failed tests):\n{tail}"


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        started = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="bellsquare-mutant-") as tmp:
            why = _verdict(mutant, Path(tmp))
        elapsed = time.perf_counter() - started
        if why is None:
            print(f"killed   {mutant.name} ({elapsed:.1f} s)")
        else:
            survivors += 1
            print(f"SURVIVED {mutant.name}: {why}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
