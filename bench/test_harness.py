"""Tests of the benchmark harness itself, on tiny salaries inputs.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ("smoke-find", "smoke-serve")


def checkout(tmp_path: Path, with_program: bool = True) -> Path:
    """A copy of the benchmark files; the program is linked in, not copied."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def smoke_args(*extra: str) -> list[str]:
    args = ["--seconds", "0.2", "--trace", "1", *extra]
    for name in SMOKE:
        args += ["--workload", name]
    return args


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    root = checkout(tmp_path_factory.mktemp("checkout"))
    done = run(root, *smoke_args())
    return root, done


def test_every_declared_metric_is_emitted(traced_run):
    root, done = traced_run
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    results = json.loads((root / "bench/out/results.json").read_text())
    assert results["provenance"]["threads"] >= 1
    for name in SMOKE:
        record = results["workloads"][name]
        assert record["failed_frac"] == 0.0
        for group in ("end_to_end", "per_layer"):
            for metric in DECLARED[group]:
                assert isinstance(record[group][metric["name"]], (int, float))
                line = f"  {metric['name']} "
                assert any(
                    text.startswith(line) and text.endswith(metric["unit"])
                    for text in done.stdout.splitlines()
                ), (name, metric["name"])
            extra = set(record[group]) - {m["name"] for m in DECLARED[group]}
            assert not extra, extra
        for metric in DECLARED["per_layer"]:
            assert f"{name}.{metric['name']}" in summary["metrics"]


def test_spans_file_records_parent_and_job(traced_run):
    root, _ = traced_run
    document = json.loads((root / "bench/out/spans-smoke-serve-0.json").read_text())
    spans = document["spans"]
    ids = {span["id"] for span in spans}
    assert {"serve.request", "serve.execute", "find", "evaluate"} <= {
        span["name"] for span in spans
    }
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        assert span["job"] and span["end"] >= span["start"]


def test_corrupted_digest_fails_the_run(tmp_path):
    root = checkout(tmp_path)
    pins = json.loads((BENCH / "expected.json").read_text())
    pins["smoke-find"]["0"]["find"] = "0" * 64
    config = next(iter(pins["smoke-serve"]["0"]))
    pins["smoke-serve"]["0"][config] = "f" * 64
    (root / "bench/expected.json").write_text(json.dumps(pins))

    done = run(root, *smoke_args())
    assert done.returncode == 1
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert not summary["correct"] and summary["failed"] > 0
    results = json.loads((root / "bench/out/results.json").read_text())
    assert results["workloads"]["smoke-find"]["failed_frac"] == 1.0
    assert results["workloads"]["smoke-serve"]["failed_frac"] > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    root = checkout(tmp_path, with_program=False)
    done = run(root, "--workload", "smoke-find", "--seconds", "0.2")
    assert done.returncode != 0
    assert not done.stdout.strip()


def _raw_attributes():
    return {
        (path, attribute): vars(layers.resolve_owner(path))[attribute]
        for path, attribute, _, _ in layers.TARGETS
    }


def _check_nesting(spans):
    by_id = {span.id: span for span in spans}
    own = layers.self_seconds(spans)
    for span in spans:
        assert own[span.id] >= -1e-9, span.name
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.thread == span.thread
            assert parent.start <= span.start and span.end <= parent.end
    for root in (span for span in spans if span.parent is None):
        subtree, frontier = [], [root.id]
        while frontier:
            children = [s for s in spans if s.parent in frontier]
            subtree += children
            frontier = [s.id for s in children]
        total = own[root.id] + sum(own[s.id] for s in subtree)
        assert total == pytest.approx(root.seconds, abs=1e-9)


@pytest.mark.parametrize("name", SMOKE)
def test_traced_pass_nests_and_removes_its_wraps(name, tmp_path):
    before = _raw_attributes()
    workload = workloads.WORKLOADS[name]
    x0, errors = workloads.make_inputs(workload, seed=1)
    gate = workloads.Gate(name)
    probe = workloads.speed.Probe()
    if workload.kind == "serve":
        service = workloads.build_service(str(tmp_path), "pass-0")
        out = workloads.run_serve(
            workload, x0, errors, service, str(tmp_path), 0.1, True, gate, probe
        )
    else:
        out = workloads.run_find(workload, x0, errors, 0.1, True, gate, probe)

    after = _raw_attributes()
    assert all(after[key] is before[key] for key in before)
    assert gate.failed == 0 and gate.attempted > 0
    names = {span.name for span in out["spans"]}
    assert {"find", "onehot", "basic", "pairs", "evaluate", "topk", "decode"} <= names
    _check_nesting(out["spans"])
    assert set(out["per_layer"]) == {m["name"] for m in DECLARED["per_layer"]}


def test_gate_cross_checks_an_unpinned_seed():
    workload = workloads.WORKLOADS["smoke-find"]
    x0, errors = workloads.make_inputs(workload, seed=7)
    config = workloads.find_config(workload, x0.shape[0])
    result = workloads.slice_line(x0, errors, config)
    gate = workloads.Gate("smoke-find")
    gate.check("find", result)
    gate.check("find", result)
    other = workloads.slice_line(x0, errors, config.with_overrides(k=3))
    gate.check("find", other)
    assert (gate.attempted, gate.failed) == (3, 1)


@pytest.mark.parametrize(
    "name, level, extra, failed",
    [
        ("kdd98-wide", 2, 5, 0),  # a known overrun, less than one chunk
        ("kdd98-wide", 2, workloads.PRIORITY_CHUNK, 1),  # more than a chunk
        ("kdd98-wide", 2, -5, 1),  # a shortfall, not an overrun
        ("criteo-sparse", 2, 5, 1),  # a workload where it is not known
        ("covtype-deep", 2, 5, 1),  # a level where it is not known
    ],
)
def test_gate_tolerates_only_the_known_overrun(name, level, extra, failed):
    workload = workloads.WORKLOADS["smoke-find"]
    x0, errors = workloads.make_inputs(workload, seed=0)
    config = workloads.find_config(workload, x0.shape[0])
    result = workloads.slice_line(x0, errors, config)
    record = next(r for r in result.counters.levels if r.level == level)
    record.evaluated += extra
    gate = workloads.Gate(name)
    gate.check("find", result)
    assert gate.failed == failed
    assert len(gate.defects) == 1 - failed


def test_meter_scales_each_operation_by_the_probes_around_it():
    import speed

    readings = iter([0.030, 0.020, 0.0125])
    meter = speed.Meter(lambda: next(readings))
    assert meter.mark() == pytest.approx(speed.REFERENCE_S / 0.025)
    assert meter.mark() == pytest.approx(speed.REFERENCE_S / 0.01625)
    assert meter.probes == [0.030, 0.020, 0.0125]


def test_compare_reports_delta_against_bound(tmp_path, capsys):
    import compare

    def results(find_s: list[float]) -> Path:
        runs = [
            {"end_to_end": {m["name"]: 1.0 for m in DECLARED["end_to_end"]}}
            for _ in find_s
        ]
        for run, value in zip(runs, find_s):
            run["end_to_end"]["find_s"] = value
        path = tmp_path / f"results-{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps({
            "provenance": {"commit": None},
            "workloads": {"w": {"runs": runs}},
        }))
        return str(path)

    steady = results([1.0, 1.01, 0.99, 1.0])
    assert compare.main([steady, results([1.02, 1.03, 1.01, 1.02])]) == 0
    assert "+2.0% ok" in capsys.readouterr().out
    assert compare.main([steady, results([1.3, 1.31, 1.29, 1.3])]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert compare.main([steady, results([1.0, 1.5, 0.7, 1.2])]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([results([1.0]), results([1.0])]) == 0
    assert "unresolved" in capsys.readouterr().out
