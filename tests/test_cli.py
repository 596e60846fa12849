import json

import numpy as np
import pytest

from mdconst import cli, scma
from mdconst import constellation as cn


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def base_file(tmp_path):
    p = tmp_path / "base.json"
    cn.cartesian_qpsk(2).save(str(p))
    return str(p)


class TestOptimize:
    def test_tiny_run_writes_outputs(self, tmp_path):
        out = tmp_path / "c.json"
        trace = tmp_path / "trace.csv"
        rc = run(["optimize", "--K", "2", "--M", "3", "--restarts", "2",
                  "--max-iters", "15", "--seed", "5",
                  "--out", str(out), "--trace", str(trace)])
        assert rc == 0
        C = cn.Constellation.load(str(out))
        assert (C.K, C.M) == (2, 3)
        assert cn.average_power(C) == pytest.approx(1.0, abs=1e-9)
        man = json.loads((tmp_path / "c.json.manifest.json").read_text())
        assert man["command"] == "optimize"
        assert man["seed"] == 5
        assert str(out) in man["outputs"]
        header = trace.read_text().splitlines()[0]
        assert header.startswith("q,energy,objective,eta,step_norm")

    def test_manifest_counts_non_optimal_solves(self, tmp_path):
        out = tmp_path / "c.json"
        rc = run(["optimize", "--K", "2", "--M", "3", "--restarts", "2",
                  "--max-iters", "5", "--seed", "5", "--out", str(out)])
        assert rc == 0
        man = json.loads((tmp_path / "c.json.manifest.json").read_text())
        restarts = man["config"]["restarts"]
        assert [r["chain_index"] for r in restarts] == [0, 1]
        assert all(r["non_optimal_solves"] == 0 for r in restarts)

    def test_determinism_bytes(self, tmp_path):
        argv = lambda o: ["optimize", "--K", "2", "--M", "3", "--restarts", "1",
                          "--max-iters", "10", "--seed", "1", "--out", o]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv(str(a))) == 0
        assert run(argv(str(b))) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_args_exit_2(self, tmp_path):
        rc = run(["optimize", "--K", "0", "--M", "4", "--seed", "0",
                  "--out", str(tmp_path / "x.json")])
        assert rc == 2


class TestMetrics:
    def test_report(self, base_file, tmp_path, capsys):
        jout = tmp_path / "m.json"
        rc = run(["metrics", base_file, "--json", str(jout)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "med" in text.lower()
        rep = json.loads(jout.read_text())
        assert rep["metrics"]["med"] == pytest.approx(1.0)
        assert rep["metrics"]["average_power"] == pytest.approx(1.0)

    def test_missing_file_exit_2(self):
        assert run(["metrics", "/nonexistent/c.json"]) == 2

    def test_corrupt_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["metrics", str(bad)]) == 2

    def test_missing_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "nopoints.json"
        bad.write_text('{"K": 2, "M": 4}')
        assert run(["metrics", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "points" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"K": 1, "M": 2, "points": [[[None, 0]], [[1, 0]]]},
            {"K": None, "M": 2, "points": [[[0, 0]], [[1, 0]]]},
            {"K": 1, "M": 2, "points": [[[{}, 0]], [[1, 0]]]},
            {"K": 1, "M": 2, "points": [[[0, 0]], [[1, 0]]], "meta": [1]},
        ],
        ids=["null-point", "null-K", "object-point", "list-meta"],
    )
    def test_malformed_values_exit_2(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["metrics", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_linalg_error_exit_3(self, base_file, monkeypatch, capsys):
        def fail(C):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(cn, "distance_profile", fail)
        assert run(["metrics", base_file]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")


class TestUnwritableOutput:
    """An output path that is a directory is a usage error, not a crash."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["metrics", "{base}", "--json", "{dir}"],
            ["simulate", "--constellation", "{base}", "--ebn0", "0", "--seed", "0",
             "--max-vectors", "100", "--noise-free", "--out", "{dir}"],
            ["optimize", "--K", "2", "--M", "3", "--restarts", "1",
             "--max-iters", "5", "--seed", "0", "--out", "{dir}"],
            ["optimize", "--K", "2", "--M", "3", "--restarts", "1",
             "--max-iters", "5", "--seed", "0", "--out", "{tmp}/c.json",
             "--trace", "{dir}"],
        ],
        ids=["metrics-json", "simulate-out", "optimize-out", "optimize-trace"],
    )
    def test_directory_target_exit_2(self, base_file, tmp_path, capsys, argv):
        target = tmp_path / "taken"
        target.mkdir()
        fill = {"base": base_file, "dir": str(target), "tmp": str(tmp_path)}
        assert run([a.format(**fill) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("*.tmp"))


class TestSCMABuild:
    def test_default_build(self, tmp_path):
        base = tmp_path / "base.json"
        pts = cn.cartesian_qpsk(1).points
        C = cn.Constellation(points=np.vstack([pts, pts]) / np.sqrt(2))
        C.save(str(base))
        out = tmp_path / "cb.json"
        rc = run(["scma-build", "--base", str(base), "--out", str(out)])
        assert rc == 0
        cbs = scma.SCMACodebookSet.load(str(out))
        assert (cbs.J, cbs.N, cbs.M) == (6, 4, 4)

    def test_wrong_base_K_exit_2(self, base_file, tmp_path):
        rc = run(["scma-build", "--base", base_file,
                  "--out", str(tmp_path / "cb.json")])
        # cartesian_qpsk(2) has K=2 and matches column weight 2, so build
        # a K=3 base to trigger the mismatch
        base3 = tmp_path / "b3.json"
        cn.cartesian_qpsk(3).save(str(base3))
        rc = run(["scma-build", "--base", str(base3),
                  "--out", str(tmp_path / "cb2.json")])
        assert rc == 2


class TestSimulate:
    def test_noise_free_p2p(self, base_file, tmp_path):
        out = tmp_path / "ber.csv"
        rc = run(["simulate", "--constellation", base_file,
                  "--channel", "awgn", "--ebn0", "0,4",
                  "--seed", "3", "--max-vectors", "2000",
                  "--noise-free", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "ebn0_db,errors,bits,ber,vectors,seed"
        assert all(row.split(",")[1] == "0" for row in lines[1:])
        assert (tmp_path / "ber.csv.manifest.json").exists()

    def test_ebn0_range_syntax(self, base_file, tmp_path):
        out = tmp_path / "ber.csv"
        rc = run(["simulate", "--constellation", base_file,
                  "--ebn0", "0:2:6", "--seed", "1",
                  "--max-vectors", "500", "--noise-free", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 5  # header + 4

    def test_both_sources_rejected(self, base_file, tmp_path):
        rc = run(["simulate", "--constellation", base_file,
                  "--codebook", base_file, "--ebn0", "0",
                  "--seed", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_non_power_of_two_M_rejected(self, tmp_path):
        C = cn.Constellation(points=np.array([[1.0, 1j, -1.0]]))
        p = tmp_path / "m3.json"
        C.save(str(p))
        rc = run(["simulate", "--constellation", str(p), "--ebn0", "0",
                  "--seed", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_bad_ebn0_exit_2(self, base_file, tmp_path):
        rc = run(["simulate", "--constellation", base_file,
                  "--ebn0", "0:bad:6", "--seed", "0",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("extra", [
        ["--ebn0", "0", "--max-vectors", "0"],
        ["--ebn0", "0", "--min-errors", "0"],
        ["--ebn0", "10:1:0"],
        ["--ebn0", "nan"],
        ["--ebn0", "0:1:inf"],
    ])
    def test_degenerate_inputs_exit_2(self, base_file, tmp_path, capsys, extra):
        # each ran to a traceback or wrote an empty or meaningless CSV
        out = tmp_path / "x.csv"
        rc = run(["simulate", "--constellation", base_file, "--seed", "0",
                  "--out", str(out)] + extra)
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture()
    def codebook_file(self, tmp_path):
        base = tmp_path / "base.json"
        pts = cn.cartesian_qpsk(1).points
        cn.Constellation(points=np.vstack([pts, pts * 1j]) / np.sqrt(2)).save(str(base))
        cb = tmp_path / "cb.json"
        assert run(["scma-build", "--base", str(base), "--out", str(cb)]) == 0
        return str(cb)

    def test_scma_simulation(self, codebook_file, tmp_path):
        out = tmp_path / "scma.csv"
        rc = run(["simulate", "--codebook", codebook_file,
                  "--channel", "rayleigh_iid", "--ebn0", "0",
                  "--seed", "2", "--max-vectors", "100",
                  "--mpa-iters", "3", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("ebn0_db,")

    def test_zero_mpa_iters_exit_2(self, codebook_file, tmp_path, capsys):
        out = tmp_path / "scma.csv"
        rc = run(["simulate", "--codebook", codebook_file,
                  "--channel", "rayleigh_iid", "--ebn0", "10",
                  "--seed", "2", "--max-vectors", "100",
                  "--mpa-iters", "0", "--out", str(out)])
        assert rc == 2
        assert "iters" in capsys.readouterr().err
        assert not out.exists()
