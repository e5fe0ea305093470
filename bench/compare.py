"""Compare two sets of benchmark runs, one row per workload.

    python bench/compare.py A.json B.json

Each file is a ``bench/out/results.json`` from ``bench/run.py``, holding
one run per seed (``--seed`` given more than once).  For every
end-to-end metric the row shows the change of B's median over its runs
against A's, signed so that positive means worse, a verdict against the
bound from ``BENCHMARK.json``, and each side's run-to-run spread:

* ``ok``         — no worse than the bound;
* ``WORSE``      — worse by more than the bound;
* ``unresolved`` — a side's own run-to-run spread (quartile distance over
  median) exceeds the bound, or a side has a single run so its spread is
  unknown: the change cannot be told from noise.

Results recorded at another commit than the current HEAD, or with
uncommitted changes, are flagged.  The exit code is 1 when any metric is
WORSE.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from host import ROOT, git_commit  # noqa: E402


def spread(values: list[float]) -> float | None:
    """Quartile distance over median; ``None`` for a single value."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(metric: dict, a: list[float], b: list[float]) -> str:
    """``<change> <word> [<spread A>/<spread B>]`` for one metric."""
    change = statistics.median(b) / statistics.median(a) - 1.0
    worse = change if metric["better"] == "lower" else -change
    spreads = (spread(a), spread(b))
    if None in spreads or max(spreads) > metric["bound"]:
        word = "unresolved"
    else:
        word = "WORSE" if worse > metric["bound"] else "ok"
    shown = "/".join("-" if s is None else f"{s:.1%}" for s in spreads)
    return f"{worse:+.1%} {word} [{shown}]"


def provenance_notes(label: str, results: dict, head: str | None) -> list[str]:
    recorded = results["provenance"]
    notes = []
    if recorded["commit"] is None:
        notes.append(f"{label}: no commit recorded")
    elif recorded["commit"] != head:
        notes.append(
            f"{label}: recorded at {recorded['commit'][:12]}, HEAD is "
            f"{head[:12] if head else 'unknown'}"
        )
    if recorded.get("dirty"):
        notes.append(f"{label}: recorded with uncommitted changes")
    return notes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    head = git_commit()
    for label, document in (("A", a_doc), ("B", b_doc)):
        for note in provenance_notes(label, document, head):
            print(f"note: {note}")

    header = ["workload", "runs A/B"] + [
        f"{m['name']} (bound {m['bound']:.0%})" for m in declared
    ]
    rows, regressed = [], False
    for name, record in a_doc["workloads"].items():
        a = record["runs"]
        b = b_doc["workloads"].get(name, {}).get("runs")
        if not b:
            rows.append([name, f"{len(a)}/0"] + ["missing in B"] * len(declared))
            continue
        cells = [name, f"{len(a)}/{len(b)}"]
        for metric in declared:
            cell = verdict(
                metric,
                [run["end_to_end"][metric["name"]] for run in a],
                [run["end_to_end"][metric["name"]] for run in b],
            )
            regressed |= " WORSE " in cell
            cells.append(cell)
        rows.append(cells)
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
