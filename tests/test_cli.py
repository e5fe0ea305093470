"""Tests for the CSV command-line interface."""

import numpy as np
import pytest

from repro.cli import (
    _search_options,
    build_monitor_parser,
    build_parser,
    build_specs,
    is_numeric_column,
    main,
    read_csv_table,
)
from repro.core import SliceLineConfig
from repro.exceptions import ValidationError


@pytest.fixture
def csv_file(tmp_path, rng):
    """A CSV with a planted problematic slice (city=b AND plan=basic)."""
    n = 800
    city = rng.choice(["a", "b", "c"], size=n)
    plan = rng.choice(["basic", "pro"], size=n)
    age = rng.uniform(18, 80, size=n)
    err = (rng.random(n) < 0.05).astype(float)
    err[(city == "b") & (plan == "basic")] = 1.0
    path = tmp_path / "data.csv"
    with open(path, "w") as handle:
        handle.write("row_id,city,plan,age,err\n")
        for i in range(n):
            handle.write(f"{i},{city[i]},{plan[i]},{age[i]:.2f},{err[i]}\n")
    return str(path)


class TestCsvReading:
    def test_reads_columns(self, csv_file):
        table = read_csv_table(csv_file)
        assert set(table) == {"row_id", "city", "plan", "age", "err"}
        assert table["city"].shape[0] == 800

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            read_csv_table(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValidationError):
            read_csv_table(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValidationError):
            read_csv_table(str(path))


class TestSpecInference:
    def test_is_numeric(self):
        assert is_numeric_column(np.array(["1.5", "2"]))
        assert not is_numeric_column(np.array(["1.5", "x"]))

    def test_kinds_inferred(self, csv_file):
        table = read_csv_table(csv_file)
        specs = {
            s.name: s.kind
            for s in build_specs(table, "err", ["row_id"], [], [], 10)
        }
        assert specs["row_id"] == "drop"
        assert specs["city"] == "categorical"
        assert specs["age"] == "numeric"
        assert "err" not in specs

    def test_overrides_win(self, csv_file):
        table = read_csv_table(csv_file)
        specs = {
            s.name: s.kind
            for s in build_specs(table, "err", [], [], ["age"], 10)
        }
        assert specs["age"] == "categorical"

    def test_unknown_column_rejected(self, csv_file):
        table = read_csv_table(csv_file)
        with pytest.raises(ValidationError):
            build_specs(table, "err", ["nope"], [], [], 10)


class TestMain:
    def test_end_to_end_finds_planted_slice(self, csv_file, capsys):
        rc = main([
            csv_file, "--error-column", "err", "--drop", "row_id",
            "--k", "3", "--sigma", "20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "#1" in out
        assert "city=b" in out and "plan=basic" in out

    def test_missing_error_column(self, csv_file, capsys):
        rc = main([csv_file, "--error-column", "nope"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = main(["/does/not/exist.csv", "--error-column", "e"])
        assert rc == 2

    def test_no_problematic_slices(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        with open(path, "w") as handle:
            handle.write("f,err\n")
            for i in range(200):
                handle.write(f"{'ab'[i % 2]},1.0\n")
        rc = main([str(path), "--error-column", "err", "--sigma", "10"])
        assert rc == 0
        assert "no slice scores above 0" in capsys.readouterr().out


@pytest.fixture
def blank_cell_csv(tmp_path, rng):
    """Numeric column with scattered empty cells + a planted slice."""
    n = 600
    city = rng.choice(["a", "b", "c"], size=n)
    plan = rng.choice(["basic", "pro"], size=n)
    age = rng.uniform(18, 80, size=n)
    blank = rng.random(n) < 0.08
    err = (rng.random(n) < 0.05).astype(float)
    err[(city == "b") & (plan == "basic")] = 1.0
    path = tmp_path / "blanks.csv"
    with open(path, "w") as handle:
        handle.write("city,plan,age,err\n")
        for i in range(n):
            cell = "" if blank[i] else f"{age[i]:.2f}"
            handle.write(f"{city[i]},{plan[i]},{cell},{err[i]}\n")
    return str(path)


class TestBlankNumericCells:
    """Regression: an empty cell must not flip a numeric column to
    categorical — it is a missing value and maps to code 0."""

    def test_blank_cells_do_not_break_numeric_inference(self):
        assert is_numeric_column(np.array(["1.5", "", "2", "  "]))
        assert not is_numeric_column(np.array(["1.5", "", "x"]))
        # a column of only blanks carries no numeric evidence
        assert not is_numeric_column(np.array(["", "", ""]))

    def test_kind_inferred_numeric_despite_blanks(self, blank_cell_csv):
        table = read_csv_table(blank_cell_csv)
        specs = {
            s.name: s.kind for s in build_specs(table, "err", [], [], [], 10)
        }
        assert specs["age"] == "numeric"

    def test_end_to_end_with_blank_cells(self, blank_cell_csv, capsys):
        rc = main([
            blank_cell_csv, "--error-column", "err", "--k", "3", "--sigma", "20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "city=b" in out and "plan=basic" in out

    def test_blank_cells_encode_as_missing(self, blank_cell_csv):
        from repro.preprocessing import ColumnSpec, Preprocessor

        table = read_csv_table(blank_cell_csv)
        specs = build_specs(table, "err", [], [], [], 10)
        encoded = Preprocessor(specs).fit_transform(table)
        age_col = encoded.feature_names.index("age")
        codes = encoded.x0[:, age_col]
        blanks = np.array([not str(v).strip() for v in table["age"]])
        assert (codes[blanks] == 0).all()
        assert (codes[~blanks] >= 1).all()


class TestMonitorSubcommand:
    def test_monitor_end_to_end(self, csv_file, capsys, tmp_path):
        ticks_path = str(tmp_path / "ticks.json")
        rc = main([
            "monitor", csv_file, "--error-column", "err",
            "--drop", "row_id", "--batch-size", "200", "--window", "2",
            "--k", "3", "--sigma", "20", "--ticks-json", ticks_path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tick 0:" in out and "tick 3:" in out
        assert "city=b" in out and "plan=basic" in out
        import json

        with open(ticks_path) as handle:
            docs = json.load(handle)
        assert len(docs) == 4
        assert all(doc["schema"] == "repro.obs/v1" for doc in docs)
        assert docs[-1]["monitor"]["tick"] == 3
        # warm-started ticks report their seed bookkeeping
        assert docs[-1]["warm_start"] is not None

    def test_monitor_cold_flag_matches_warm(self, csv_file, capsys):
        rc = main([
            "monitor", csv_file, "--error-column", "err", "--drop", "row_id",
            "--batch-size", "200", "--window", "2", "--sigma", "20", "--cold",
        ])
        assert rc == 0
        assert "warm=" not in capsys.readouterr().out

    def test_monitor_tumbling_policy(self, csv_file, capsys):
        rc = main([
            "monitor", csv_file, "--error-column", "err", "--drop", "row_id",
            "--batch-size", "200", "--policy", "tumbling",
            "--tick-every", "2", "--sigma", "10",
        ])
        assert rc == 0
        assert "batch(es)" in capsys.readouterr().out

    def test_monitor_bad_inputs(self, csv_file, capsys):
        assert main(["monitor", csv_file, "--error-column", "nope"]) == 2
        assert main([
            "monitor", csv_file, "--error-column", "err", "--batch-size", "0",
        ]) == 2
        assert main(["monitor", "/does/not/exist.csv", "--error-column", "e"]) == 2
        capsys.readouterr()


@pytest.mark.parametrize("build", [build_parser, build_monitor_parser])
def test_execution_flags_map_to_config(build):
    """find and monitor share one declaration of the execution flags."""
    args = build().parse_args([
        "data.csv", "--error-column", "err", "--no-compaction",
        "--kernel-backend", "bitset", "--pair-parallelism", "2",
    ])
    config = SliceLineConfig(**_search_options(args))
    assert config.compaction is False
    assert config.kernel_backend == "bitset"
    assert config.pair_parallelism == 2
