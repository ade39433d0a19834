"""Unit tests for the repro-bench CLI (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 11):
            assert f"E{i}" in out


class TestRun:
    def test_run_single(self, capsys):
        assert main(["run", "E3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "64" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "E1", "E5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 15" in out

    def test_run_with_csv(self, capsys, tmp_path):
        target = tmp_path / "csvs"
        assert main(["run", "E3", "--csv", str(target)]) == 0
        assert (target / "E3.csv").exists()
        assert "wrote E3" in capsys.readouterr().out

    def test_unknown_experiment_raises(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            main(["run", "E42"])


class TestDemo:
    def test_demo_walks_the_paper_example(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "168" in out          # the worked query result
        assert "16 cells" in out     # RPS update cost
        assert "64" in out           # prefix sum comparison


class TestRouter:
    def test_router_workload_matches_the_oracle(self, capsys):
        argv = ["router", "--n", "64", "--rounds", "2", "--queries", "8"]
        assert main(argv) == 0
        assert "\n0 mismatches\n" in capsys.readouterr().out


class TestIngest:
    def write_csv(self, path, rows):
        lines = ["x,y,sales"] + [f"{x},{y},{s}" for x, y, s in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_csv_to_durable_cube(self, capsys, tmp_path):
        csv = tmp_path / "facts.csv"
        self.write_csv(csv, [(0, 0, 5.0), (1, 2, 3.0), (99, 0, 1.0)])
        assert main([
            "ingest", str(csv), "--state", str(tmp_path / "state"),
            "--dim", "x:0:3", "--dim", "y:0:3",
        ]) == 0
        out = capsys.readouterr().out
        assert "created durable state" in out
        assert '"rows_applied": 2' in out
        assert '"rows_quarantined": 1' in out

    def test_rerun_resumes_not_doubles(self, capsys, tmp_path):
        import json

        import numpy as np

        from repro import CubeService, RelativePrefixSumCube

        csv = tmp_path / "facts.csv"
        self.write_csv(csv, [(0, 0, 5.0), (1, 2, 3.0)])
        state = tmp_path / "state"
        argv = ["ingest", str(csv), "--state", str(state),
                "--dim", "x:0:3", "--dim", "y:0:3"]
        assert main(argv) == 0
        capsys.readouterr()
        # the second run must fence on the checkpoint and apply nothing
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "recovered durable state" in out
        report = json.loads(out[out.index("{"):])
        assert report["rows_applied"] == 0
        assert report["offset"] == 2
        svc = CubeService.recover(state, RelativePrefixSumCube)
        try:
            array, _ = svc.snapshot_array()
        finally:
            svc.close()
        expected = np.zeros((4, 4))
        expected[0, 0] = 5.0
        expected[1, 2] = 3.0
        assert np.array_equal(array, expected)

    def test_missing_dim_is_an_ingest_error(self, tmp_path):
        from repro.errors import IngestError

        csv = tmp_path / "facts.csv"
        self.write_csv(csv, [(0, 0, 1.0)])
        with pytest.raises(IngestError):
            main(["ingest", str(csv), "--state", str(tmp_path / "s")])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_alias(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["all"])
        assert args.experiments == []
