import dataclasses
import errno
import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mdconst import cccp, cli, scma
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

    def test_defaults_are_cccp_config_defaults(self):
        args = cli.build_parser().parse_args(
            ["optimize", "--K", "2", "--M", "4", "--seed", "0", "--out", "c.json"])
        defaults = {f.name: f.default for f in dataclasses.fields(cccp.CCCPConfig)}
        for dest, name in [("lam", "lam"), ("epsilon", "epsilon"),
                           ("max_iters", "max_iters"), ("restarts", "restarts")]:
            assert getattr(args, dest) == defaults[name], dest

    def test_manifest_lists_restart_rows(self, tmp_path):
        out = tmp_path / "c.json"
        rc = run(["optimize", "--K", "2", "--M", "3", "--restarts", "2",
                  "--max-iters", "5", "--seed", "5", "--out", str(out)])
        assert rc == 0
        man = json.loads((tmp_path / "c.json.manifest.json").read_text())
        restarts = man["config"]["restarts"]
        assert [r["chain_index"] for r in restarts] == [0, 1]
        # each chain's interior-point work: at least one iteration per solve,
        # the same count in the design file's restart rows
        assert all(r["ipm_iters"] >= r["iterations"] >= 1 for r in restarts)
        rows = json.loads(out.read_text())["meta"]["restarts"]
        assert [r["ipm_iters"] for r in rows] == [r["ipm_iters"] for r in restarts]
        # seconds, taken in the process that ran the chain, stay out of the
        # design file so that reruns are byte-identical
        assert all(0 < r["solve_s"] <= r["chain_s"] for r in restarts)
        assert all(k in restarts[0] and k not in rows[0]
                   for k in ("failure", "chain_s", "solve_s"))

    def test_determinism_bytes(self, tmp_path):
        argv = lambda o: ["optimize", "--K", "2", "--M", "3", "--restarts", "1",
                          "--max-iters", "10", "--seed", "1", "--out", o]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv(str(a))) == 0
        assert run(argv(str(b))) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_leaves_the_umask_alone(self, tmp_path, umask_forbidden):
        out, trace = str(tmp_path / "c.json"), str(tmp_path / "t.csv")
        assert run(OPTIMIZE_TINY + ["--out", out, "--trace", trace]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.json", "c.json.manifest.json", "t.csv"]

    def test_invalid_args_exit_2(self, tmp_path):
        rc = run(["optimize", "--K", "0", "--M", "4", "--seed", "0",
                  "--out", str(tmp_path / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--lambda", "--epsilon"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_exit_2(self, tmp_path, flag, value):
        out = tmp_path / "x.json"
        rc = run(["optimize", "--K", "2", "--M", "4", "--restarts", "2",
                  "--max-iters", "20", "--seed", "0", flag, value, "--out", str(out)])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []

    def test_threshold_flag_is_gone(self, tmp_path, capsys):
        # every design is at unit MED threshold; lam is the one scale
        with pytest.raises(SystemExit) as exc:
            run(["optimize", "--K", "2", "--M", "4", "--seed", "0", "--de", "1",
                 "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "--de" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["1e55", "1e154", "1e300"])
    def test_lambda_over_bound_exit_2(self, tmp_path, capsys, value):
        # a solve's products that carry lam overflowed at these values, a
        # numpy warning (an error here, as under -W error)
        rc = run(["optimize", "--K", "2", "--M", "4", "--restarts", "2", "--seed", "0",
                  "--lambda", value, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "lam <= 1e+06" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_row_matrix_over_bound_exit_2(self, tmp_path, capsys):
        # _pair_differences asked numpy for 101 GiB and raised MemoryError
        rc = run(["optimize", "--K", "2", "--M", "3000", "--seed", "0",
                  "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "MiB bound" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_diverging_subproblems_exit_3(self, tmp_path, capsys):
        # at lam = 1e5 the solves drive eta down without bound; chain 1's
        # first ends max_iter and ends the chain, before any product can
        # overflow, so no numpy warning (an error here) is raised
        rc = run(["optimize", "--K", "2", "--M", "4", "--restarts", "2", "--seed", "0",
                  "--lambda", "1e5", "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert "chain 1: subproblem max_iter" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unbounded_subproblems_exit_3(self, tmp_path, capsys):
        # at K=1, M=2 every chain's first subproblem is unbounded below
        rc = run(["optimize", "--K", "1", "--M", "2", "--restarts", "2",
                  "--seed", "0", "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert "chain 1: subproblem unbounded" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestBrokenRestarts:
    """Exit codes of an optimize whose restart process breaks, and of one
    whose chain has a bug."""

    ARGV = ["optimize", "--K", "2", "--M", "4", "--restarts", "2", "--max-iters", "3",
            "--seed", "0"]

    def test_a_restart_process_that_dies_exits_1(self, cpus, monkeypatch, tmp_path, capsys):
        # a ChildProcessError is an OSError, which alone would read as exit
        # 2; the child exits at once, before the fork returns in the caller
        cpus(2)
        fork = os.fork

        def dying_fork():
            if (pid := fork()) == 0:
                os._exit(7)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # left for the fan-out to reap
            return pid

        monkeypatch.setattr(os, "fork", dying_fork)
        assert run(self.ARGV + ["--out", str(tmp_path / "x.json")]) == cli.EXIT_PROCESS == 1
        assert re.fullmatch(r"error: fan-out process \d+ exited with code 7 before sending "
                            r"item 1\n", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_a_fork_that_fails_exits_1(self, cpus, monkeypatch, tmp_path, capsys):
        # os.fork's BlockingIOError is an OSError, which alone would read as
        # exit 2, a validation error, and would not name the fan-out
        cpus(2)

        def fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        assert run(self.ARGV + ["--out", str(tmp_path / "x.json")]) == cli.EXIT_PROCESS
        assert capsys.readouterr().err == (f"error: fan-out could not start a process: "
                                           f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_chain_that_raises_is_not_exit_3(self, monkeypatch, tmp_path, capsys):
        # exit 3 means only that every restart failed; a chain's exception is
        # a bug, which leaves main with its traceback (exit 1)
        def optimize(config):
            raise RuntimeError("a bug in chain 1")

        monkeypatch.setattr(cccp, "optimize", optimize)
        with pytest.raises(RuntimeError, match="^a bug in chain 1$") as exc:
            run(self.ARGV + ["--out", str(tmp_path / "x.json")])
        assert not isinstance(exc.value, cccp.RestartsFailed)
        assert capsys.readouterr().err == ""
        assert list(tmp_path.iterdir()) == []


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

    def test_non_unit_power_reports_both(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        cn.Constellation(points=2.0 * cn.cartesian_qpsk(2).points).save(str(path))
        jout = tmp_path / "m.json"
        assert run(["metrics", str(path), "--json", str(jout)]) == 0
        out, err = capsys.readouterr()
        assert err.startswith("warning: average power is 4.000000, not 1")
        assert "average_power [raw]: 4.000000" in out
        assert "average_power [normalized]: 1.000000" in out
        rep = json.loads(jout.read_text())
        assert sorted(rep) == ["normalized", "raw"]
        assert rep["normalized"]["med"] == pytest.approx(rep["raw"]["med"] / 2)

    def test_top_level_not_an_object_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        out = tmp_path / "m.json"
        assert run(["metrics", str(bad), "--json", str(out)]) == 2
        err = capsys.readouterr().err
        assert "expected a JSON object, got list" in err and "Traceback" not in err
        assert not out.exists()

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
            {"K": 1, "M": 2, "points": [[["0", 0]], [[1, 0]]]},
            {"K": 1, "M": 2, "points": [[[0, 0]], [[True, 0]]]},
        ],
        ids=["null-point", "null-K", "object-point", "list-meta", "string-point",
             "true-point"],
    )
    def test_malformed_values_exit_2(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["metrics", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")


OPTIMIZE_TINY = ["optimize", "--K", "2", "--M", "3", "--restarts", "1",
                 "--max-iters", "5", "--seed", "0"]


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error, not a crash:
    the error names that path, and no output of the run remains."""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["metrics", "{base}", "--json", "{bad}"], "taken/"),
            (["simulate", "--constellation", "{base}", "--ebn0", "0", "--seed", "0",
              "--max-vectors", "100", "--noise-free", "--out", "{bad}"], "taken/"),
            (OPTIMIZE_TINY + ["--out", "{bad}"], "taken/"),
            (OPTIMIZE_TINY + ["--out", "{tmp}/c.json", "--trace", "{bad}"], "taken/"),
            (OPTIMIZE_TINY + ["--out", "{tmp}/c.json", "--trace", "{tmp}/t.csv"],
             "c.json.manifest.json/"),
            (OPTIMIZE_TINY + ["--out", "{tmp}/c.json", "--trace", "{bad}"], "nodir/t.csv"),
            (["scma-build", "--base", "{base}", "--out", "{tmp}/cb.json"],
             "cb.json.manifest.json/"),
            (["metrics", "{base}", "--json", "{tmp}/m.json"], "m.json.manifest.json/"),
        ],
        ids=["metrics-json", "simulate-out", "optimize-out", "optimize-trace",
             "optimize-manifest", "optimize-trace-nodir", "scma-build-manifest",
             "metrics-manifest"],
    )
    def test_directory_target_exit_2(self, base_file, tmp_path, capsys, argv, bad):
        # bad is the path whose write fails: a directory where it ends in
        # "/", else a file in a missing directory
        target = tmp_path / bad
        if bad.endswith("/"):
            target.mkdir()
        before = sorted(tmp_path.rglob("*"))
        fill = {"base": base_file, "bad": str(target), "tmp": str(tmp_path)}
        assert run([a.format(**fill) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert repr(str(target)) in err and ".tmp" not in err
        assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture()
def run_dir(tmp_path, monkeypatch):
    """A working directory holding base.json (K=2, M=4), ops.json and
    cb.json, the codebooks built from them, each written without a manifest."""
    monkeypatch.chdir(tmp_path)
    pts = cn.cartesian_qpsk(1).points
    base = cn.Constellation(points=np.vstack([pts, pts * 1j]) / np.sqrt(2))
    base.save("base.json")
    F = scma.default_indicator()
    ops = scma.OperatorSet(phases=np.random.default_rng(3).uniform(-np.pi, np.pi, (F.J, 2)))
    ops.save("ops.json")
    scma.build_codebooks(F, base, ops).save("cb.json")
    return tmp_path


def _tree(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.mark.parametrize(
    "argv, seed, reads, writes",
    [
        (OPTIMIZE_TINY + ["--out", "c.json", "--trace", "t.csv"], 0, [],
         ["c.json", "t.csv"]),
        (["metrics", "base.json", "--json", "m.json"], None, ["base.json"], ["m.json"]),
        (["scma-build", "--base", "base.json", "--operators", "ops.json",
          "--out", "cb2.json"], None, ["base.json", "ops.json"], ["cb2.json"]),
        (["simulate", "--constellation", "base.json", "--ebn0", "0", "--seed", "4",
          "--max-vectors", "100", "--out", "p.csv"], 4, ["base.json"], ["p.csv"]),
        (["simulate", "--codebook", "cb.json", "--channel", "rayleigh_iid",
          "--ebn0", "0", "--seed", "5", "--max-vectors", "100", "--mpa-iters", "3",
          "--out", "s.csv"], 5, ["cb.json"], ["s.csv"]),
    ],
    ids=["optimize-trace", "metrics-json", "scma-build-operators", "simulate-p2p",
         "simulate-scma"],
)
def test_every_output_has_manifest(run_dir, argv, seed, reads, writes):
    before = _tree(run_dir)
    assert run(argv) == 0
    manifest = writes[0] + ".manifest.json"
    assert set(_tree(run_dir)) == set(before) | set(writes) | {manifest}
    man = json.loads((run_dir / manifest).read_text())
    assert (man["command"], man["seed"]) == (argv[0], seed)
    # each digest is that of the file's bytes, in the order the arguments name them
    sha = lambda p: hashlib.sha256((run_dir / p).read_bytes()).hexdigest()
    assert list(man["inputs"].items()) == [(p, sha(p)) for p in reads]
    assert list(man["outputs"].items()) == [(p, sha(p)) for p in writes]


def test_metrics_without_json_writes_nothing(run_dir, capsys):
    before = _tree(run_dir)
    assert run(["metrics", "base.json"]) == 0
    assert "med: " in capsys.readouterr().out
    assert _tree(run_dir) == before


@pytest.mark.parametrize(
    "argv, names",
    [
        (OPTIMIZE_TINY + ["--out", "c.json", "--trace", "c.json"], ["--out", "--trace"]),
        (OPTIMIZE_TINY + ["--out", "d.json", "--trace", "d.json.manifest.json"],
         ["--trace", "the --out manifest"]),
        (["scma-build", "--base", "base.json", "--out", "./base.json"],
         ["--base", "--out"]),
        (["metrics", "base.json", "--json", "base.json"], ["file", "--json"]),
        (["simulate", "--constellation", "base.json", "--ebn0", "0", "--seed", "0",
          "--max-vectors", "100", "--out", "base.json"], ["--constellation", "--out"]),
    ],
    ids=["optimize-out-trace", "optimize-trace-manifest", "scma-build-base-out",
         "metrics-file-json", "simulate-constellation-out"],
)
def test_one_file_for_two_roles_exit_2(run_dir, capsys, argv, names):
    # each ran to exit 0, one file overwriting the other or the input
    before = _tree(run_dir)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(n in err for n in names)
    assert _tree(run_dir) == before


def test_readme_command_lines_parse():
    # README's examples cannot drift from the CLI, by keeping a removed flag say
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Command line")[1].split("```bash\n")[1].split("```")[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("mdconst ")]
    assert len(lines) == 5
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_module_entry_point(tmp_path):
    # `python -m mdconst.cli` runs sys.exit(main()), as the mdconst script does
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def mdconst(*argv):
        return subprocess.Popen([sys.executable, "-W", "error", "-m", "mdconst.cli", *argv],
                                cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    # at K=1, M=2 every restart fails; it runs beside the two below
    failing = mdconst("optimize", "--K", "1", "--M", "2", "--restarts", "2", "--seed", "0",
                      "--out", "x.json")
    for argv in (OPTIMIZE_TINY + ["--out", "c.json"], ["metrics", "c.json", "--json", "m.json"]):
        proc = mdconst(*argv)
        assert proc.communicate(timeout=120)[1] == "" and proc.returncode == 0
    err = failing.communicate(timeout=120)[1]
    assert failing.returncode == 3
    assert err.startswith("optimization failed") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.json", "c.json.manifest.json", "m.json", "m.json.manifest.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--K", "2", "--M", "3", "--restarts", "1", "--max-iters", "5"],
        ["simulate", "--constellation", "{base}", "--ebn0", "0", "--max-vectors", "100"],
    ],
    ids=["optimize", "simulate"],
)
def test_negative_seed_exit_2(base_file, tmp_path, capsys, argv):
    # numpy's seeding rejected it with a message that did not name the seed
    rc = run([a.format(base=base_file) for a in argv]
             + ["--seed", "-1", "--out", str(tmp_path / "x.out")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["base.json"]


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


    def test_operators_file(self, tmp_path):
        base = tmp_path / "base.json"
        pts = cn.cartesian_qpsk(1).points
        C = cn.Constellation(points=np.vstack([pts, pts * 1j]) / np.sqrt(2))
        C.save(str(base))
        F = scma.default_indicator()
        ops = scma.OperatorSet(
            phases=np.random.default_rng(7).uniform(-np.pi, np.pi, (F.J, 2)))
        ops_file = tmp_path / "ops.json"
        ops.save(str(ops_file))
        assert np.array_equal(scma.OperatorSet.load(str(ops_file)).phases, ops.phases)
        out = tmp_path / "cb.json"
        rc = run(["scma-build", "--base", str(base), "--operators", str(ops_file),
                  "--out", str(out)])
        assert rc == 0
        cbs = scma.SCMACodebookSet.load(str(out))
        assert np.array_equal(cbs.operators.phases, ops.phases)
        assert np.array_equal(cbs.codebooks, scma.build_codebooks(F, C, ops).codebooks)
        man = json.loads((tmp_path / "cb.json.manifest.json").read_text())
        assert str(ops_file) in man["inputs"]

    @pytest.mark.parametrize("phases, message", [
        ([0.0, 1.0], "phases must be"),
        ([[0.0, 1.0, 2.0]] * 6, "operator set shape"),
    ])
    def test_operators_of_wrong_shape_exit_2(self, base_file, tmp_path, capsys,
                                             phases, message):
        # one dimension; then (J, 3) phases for the 4x6 graph's K = 2
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"phases": phases}))
        out = tmp_path / "cb.json"
        rc = run(["scma-build", "--base", base_file, "--operators", str(ops),
                  "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_indicator_without_users_exit_2(self, base_file, tmp_path, capsys):
        ind = tmp_path / "ind.json"
        ind.write_text(json.dumps({"N": 2, "J": 0, "rows": [[], []]}))
        out = tmp_path / "cb.json"
        rc = run(["scma-build", "--base", base_file, "--indicator", str(ind),
                  "--out", str(out)])
        assert rc == 2
        assert "at least one user" in capsys.readouterr().err
        assert not out.exists()


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

    def test_sweep_size_checked_before_it_is_built(self):
        # the cap itself passes; one point more, or 10^12, names its count
        assert len(cli._parse_ebn0(f"0:1:{cli.MAX_EBN0_POINTS - 1}")) == cli.MAX_EBN0_POINTS
        with pytest.raises(ValueError, match=f"has {cli.MAX_EBN0_POINTS + 1} points"):
            cli._parse_ebn0(f"0:1:{cli.MAX_EBN0_POINTS}")
        with pytest.raises(ValueError, match=r"has 1e\+12 points"):
            cli._parse_ebn0("0:1e-12:1")

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
        ["--ebn0", "0:1e-12:1"],
        ["--ebn0", "0:1e-320:1"],
        # 10^(x/10) or n0 = 1 / 10^(x/10) is not a finite double
        ["--ebn0=1e308"],
        ["--ebn0=-1e308"],
        ["--ebn0=-3200"],
        ["--ebn0=3100"],
        # n0 above 1e300, where the detectors' squared distances overflow
        ["--ebn0=-3001"],
        # a sweep of two fields, or whose step is not positive
        ["--ebn0", "0:5"],
        ["--ebn0", "0:0:5"],
        ["--ebn0", "5:-1:0"],
    ])
    def test_degenerate_inputs_exit_2(self, base_file, tmp_path, capsys, extra):
        # each ran to a traceback or wrote an empty or meaningless CSV
        out = tmp_path / "x.csv"
        rc = run(["simulate", "--constellation", base_file, "--seed", "0",
                  "--out", str(out)] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if extra == ["--ebn0", "10:1:0"]:
            assert err == "error: sweep '10:1:0' has no points: stop is below start\n"
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

    @pytest.mark.parametrize("source", ["--constellation", "--codebook"])
    def test_lowest_ebn0_runs_without_warnings(self, base_file, codebook_file, tmp_path,
                                               source):
        # n0 is 1e300 here; at -3076 dB (n0 ~ 1e307) the MPA's squared
        # distances could overflow
        out = tmp_path / "x.csv"
        path = base_file if source == "--constellation" else codebook_file
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["simulate", source, path, "--channel", "rayleigh_iid",
                      "--ebn0=-3000", "--seed", "0", "--max-vectors", "300",
                      "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("-3000,")

    def test_codebook_over_awgn_exit_2(self, codebook_file, tmp_path, capsys):
        # the channel defaults to awgn, which the SCMA uplink does not model
        out = tmp_path / "scma.csv"
        rc = run(["simulate", "--codebook", codebook_file, "--ebn0", "0",
                  "--seed", "2", "--max-vectors", "100", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "rayleigh_iid only" in err and "Traceback" not in err
        assert not out.exists()

    def test_null_indicator_entry_exit_2(self, codebook_file, tmp_path, capsys):
        with open(codebook_file) as fh:
            doc = json.load(fh)
        doc["indicator"]["rows"][0][0] = None
        bad = tmp_path / "bad_cb.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "scma.csv"
        rc = run(["simulate", "--codebook", str(bad),
                  "--channel", "rayleigh_iid", "--ebn0", "0",
                  "--seed", "2", "--max-vectors", "100", "--out", str(out)])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_mpa_tensors_over_block_exit_2(self, base_file, tmp_path, capsys):
        # 16 users on each of 2 resources at M=16: 16**16 MPA cells per
        # resource, which wrap to 0 in int64
        ind = tmp_path / "ind.json"
        ind.write_text(json.dumps({"N": 2, "J": 16, "rows": [[1] * 16] * 2}))
        cb = tmp_path / "cb.json"
        assert run(["scma-build", "--base", base_file, "--indicator", str(ind),
                    "--out", str(cb)]) == 0
        capsys.readouterr()
        out = tmp_path / "scma.csv"
        rc = run(["simulate", "--codebook", str(cb), "--channel", "rayleigh_iid",
                  "--ebn0", "10", "--seed", "0", "--max-vectors", "1",
                  "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bytes of tensors" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_mpa_iters_exit_2(self, codebook_file, tmp_path, capsys):
        out = tmp_path / "scma.csv"
        rc = run(["simulate", "--codebook", codebook_file,
                  "--channel", "rayleigh_iid", "--ebn0", "10",
                  "--seed", "2", "--max-vectors", "100",
                  "--mpa-iters", "0", "--out", str(out)])
        assert rc == 2
        assert "iters" in capsys.readouterr().err
        assert not out.exists()
