import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import snwave.cli as cli
import snwave.solvers as solvers
from snwave import MovingDomainSpec, build_time_grid, solve_forward
from snwave.game import DivergenceError


def run_cli(args):
    return cli.main(args)


FAST = ["--N", "40", "--M", "40"]


class TestRun:
    def test_defaults_small_mesh(self, tmp_path, capsys):
        rc = run_cli(["run", "--out", str(tmp_path), *FAST])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        log = (tmp_path / "iteration_log.csv").read_text().splitlines()
        assert log[0] == "n,stop_qty,du_L2,dw_L2,J,J2"
        assert len(log) >= 2
        state = (tmp_path / "final_state.csv").read_text().splitlines()
        assert state[0] == "x,u"
        assert len(state) == 42  # header + N+1 nodes

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["run", "--out", str(a), *FAST])
        run_cli(["run", "--out", str(b), *FAST])
        for name in ("iteration_log.csv", "final_state.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_max_iter_one_graceful(self, tmp_path, capsys):
        rc = run_cli(["run", "--out", str(tmp_path), "--max-iter", "1", *FAST])
        assert rc == 4
        assert "converged=False" in capsys.readouterr().out

    def test_not_converged_exits_four_after_writing_csvs(self, tmp_path, capsys):
        rc = run_cli(["run", "--out", str(tmp_path), "--max-iter", "2", *FAST])
        assert rc == 4
        assert "converged=False iterations=2 " in capsys.readouterr().out
        assert len((tmp_path / "iteration_log.csv").read_text().splitlines()) == 3
        assert len((tmp_path / "final_state.csv").read_text().splitlines()) == 42

    def test_huge_sigma_fast_convergence(self, tmp_path, capsys):
        rc = run_cli(["run", "--out", str(tmp_path), "--sigma", "1e10", *FAST])
        assert rc == 0
        out = capsys.readouterr().out
        iters = int(out.split("iterations=")[1].split()[0])
        assert iters <= 4

    def test_dump_frames(self, tmp_path):
        rc = run_cli(["run", "--out", str(tmp_path), "--dump-frames",
                      "--N", "10", "--M", "10"])
        assert rc == 0
        frames = (tmp_path / "u_frames.csv").read_text().splitlines()
        assert frames[0] == "m,t,x,value"
        assert len(frames) == 1 + 11 * 11
        assert (tmp_path / "p_frames.csv").exists()

    def test_dump_writes_rows_as_it_goes(self, tmp_path):
        """The frame dump holds one level's node row and the file's buffers,
        not a tuple per node: a list of them peaked at 15.7 frames on this
        trajectory, and the whole node array at 1.36."""
        N = M = 100
        traj = solve_forward(np.linspace(0.0, 1.0, M + 1), MovingDomainSpec(k=0.25, T=4.0),
                             build_time_grid(4.0, M), N)
        cli._dump_trajectory(tmp_path / "warm.csv", traj)  # fills numpy's own caches
        tracemalloc.start()
        try:
            cli._dump_trajectory(tmp_path / "u_frames.csv", traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * traj.frames.nbytes
        assert peak < traj.frames.nbytes
        lines = (tmp_path / "u_frames.csv").read_text().splitlines()
        assert len(lines) == 1 + (M + 1) * (N + 1)

    def test_additive_overlap_end_to_end(self, tmp_path, capsys):
        rc = run_cli(["run", "--out", str(tmp_path), "--segments", "additive-overlap",
                      "--phi-terminal", "bump:0.5", *FAST])
        assert rc == 0
        assert "converged=True iterations=5 " in capsys.readouterr().out
        assert len((tmp_path / "iteration_log.csv").read_text().splitlines()) == 6

    def test_explicit_horizon_fixed_domain(self, tmp_path):
        with pytest.warns(UserWarning, match="moving-boundary"):
            rc = run_cli(["run", "--out", str(tmp_path), "--k", "0", "--T", "1.0",
                          *FAST])
        assert rc == 0

    def test_fixed_domain_needs_horizon(self, tmp_path, capsys):
        rc = run_cli(["run", "--out", str(tmp_path), "--k", "0", *FAST])
        assert rc == 2
        assert "T" in capsys.readouterr().err


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_share_no_options(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", "--out", str(a), "--N", "20", "--M", "20", "--dump-frames"]) == 0
        assert run_cli(["run", "--out", str(b), "--M", "20"]) == 0
        assert len((a / "final_state.csv").read_text().splitlines()) == 1 + 21
        assert len((b / "final_state.csv").read_text().splitlines()) == 1 + 101
        assert (a / "u_frames.csv").exists() and not (b / "u_frames.csv").exists()

    def test_one_option_per_field(self):
        """One parser, no subcommands: ``config`` plus a ``--`` flag per
        ``RunConfig`` field that parses to the type of the field's default."""
        parser = cli.build_parser()
        options = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
        config_fields = dataclasses.fields(cli.RunConfig)
        assert set(options) == {"config"} | {f.name for f in config_fields}
        (command,) = [a for a in parser._actions if not a.option_strings]
        assert command.dest == "command" and list(command.choices) == list(cli.COMMANDS)
        for f in config_fields:
            flag = "--" + f.name.replace("_", "-")
            assert options[f.name].option_strings == [flag]
            argv = [flag] if isinstance(f.default, bool) else [flag, str(f.default)]
            value = getattr(parser.parse_args(["run", *argv]), f.name)
            assert type(value) is type(f.default)
            assert value == (True if isinstance(f.default, bool) else f.default)
            assert getattr(parser.parse_args(["run"]), f.name) is None

    def test_readme_cli_lines_parse(self):
        # every command line in the README's CLI section parses, so the
        # section cannot drift from the options
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```sh\n(.*?)```", readme.split("## CLI", 1)[1], re.S).group(1)
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        lines = [words for words in lines if words and words[0] == "snwave"]
        assert len(lines) >= 7
        for words in lines:
            args = cli.build_parser().parse_args(words[1:])
            assert args.command in cli.COMMANDS

    def test_module_entry(self, tmp_path):
        paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))

        def entry(*args):
            return subprocess.run([sys.executable, "-m", "snwave.cli", *args, "--out",
                                   str(tmp_path)], env=env, capture_output=True, text=True,
                                  timeout=120)

        done = entry("run", "--N", "4", "--M", "4")
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["final_state.csv",
                                                              "iteration_log.csv"]
        done = entry("table-T", "--dump-frames")
        assert done.returncode == 2
        assert done.stderr.startswith("error: dump_frames: ")
        assert not (tmp_path / "table_T.csv").exists()


class TestConfigFile:
    def test_file_values_applied(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("max_iter = 1\nN = 40\nM = 40\n# comment\n\nout = "
                           + str(tmp_path) + "\n")
        rc = run_cli(["run", "--config", str(cfgfile)])
        assert rc == 4
        assert "converged=False" in capsys.readouterr().out

    def test_cli_overrides_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("max_iter = 1\nN = 40\nM = 40\n")
        rc = run_cli(["run", "--config", str(cfgfile), "--max-iter", "100",
                      "--out", str(tmp_path)])
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("sigma = 10\nnot_a_key = 3\n")
        rc = run_cli(["run", "--config", str(cfgfile)])
        assert rc == 2
        assert "not_a_key" in capsys.readouterr().err

    def test_bad_value_reports_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("sigma = banana\n")
        rc = run_cli(["run", "--config", str(cfgfile)])
        assert rc == 2
        assert "sigma" in capsys.readouterr().err

    def test_invalid_value_range(self, tmp_path, capsys):
        rc = run_cli(["run", "--out", str(tmp_path), "--sigma", "-1"])
        assert rc == 2
        assert "sigma" in capsys.readouterr().err

    def test_bool_value_applied(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dump_frames = yes\nN = 10\nM = 10\nout = " + str(tmp_path) + "\n")
        assert run_cli(["run", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "u_frames.csv").exists()

    def test_false_bool_value_applied(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dump_frames = no\nN = 10\nM = 10\nout = " + str(tmp_path) + "\n")
        assert run_cli(["run", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "iteration_log.csv").exists()
        assert not (tmp_path / "u_frames.csv").exists()

    def test_line_without_equals_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("sigma = 10\nN 40\n")
        rc = run_cli(["run", "--config", str(cfgfile)])
        assert rc == 2
        assert f"error: {cfgfile}:2: expected key=value, got 'N 40'" in capsys.readouterr().err

    def test_malformed_bool_reports_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("dump_frames = banana\n")
        rc = run_cli(["run", "--config", str(cfgfile)])
        assert rc == 2
        assert "dump_frames" in capsys.readouterr().err

    def test_fractional_int_reports_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("N = 40.5\n")
        rc = run_cli(["run", "--config", str(cfgfile)])
        assert rc == 2
        assert "'N'" in capsys.readouterr().err

    def test_seed_is_unknown_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("seed = 1\n")
        rc = run_cli(["run", "--config", str(cfgfile)])
        assert rc == 2
        assert "unknown key 'seed'" in capsys.readouterr().err

    def test_seed_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--out", str(tmp_path), "--seed", "1"])
        assert exc.value.code == 2


class TestInputValidation:
    @pytest.mark.parametrize("flag,value,key", [
        ("--sigma", "nan", "sigma"),
        ("--epsilon", "nan", "epsilon"),
        ("--u2", "nan", "u2"),
        ("--T-multiple", "inf", "T_multiple"),
    ])
    def test_non_finite_is_usage_error(self, tmp_path, capsys, flag, value, key):
        rc = run_cli(["run", "--out", str(tmp_path), *FAST, flag, value])
        assert rc == 2
        assert f"{key}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,key", [
        ("--phi-terminal", "bump:nan", "phi_terminal"),
        ("--phi-terminal", "bump:inf", "phi_terminal"),
        ("--phi-terminal", "bump:abc", "phi_terminal"),
        ("--phi-terminal", "bump:", "phi_terminal"),
        ("--phi-terminal", "bumpy", "phi_terminal"),
        ("--T", "-1", "T"),
        ("--target-edge", "-1", "target_edge"),
        ("--k", "1.0", "k"),
        ("--epsilon", "0", "epsilon"),
        ("--N", "1", "N, M"),
        ("--M", "1", "N, M"),
        ("--max-iter", "0", "max_iter"),
        ("--T-multiple", "0", "T_multiple"),
        ("--segments", "bogus", "segments"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, flag, value, key):
        rc = run_cli(["run", "--out", str(tmp_path), *FAST, flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
        assert not (tmp_path / "iteration_log.csv").exists()

    @pytest.mark.parametrize("args,key", [
        (["run", "--k", "0.9"], "k"),
        (["run", "--T-multiple", "1e308"], "T_multiple"),
        (["table-mesh", "--k", "0.99"], "k"),
    ])
    def test_overflowing_horizon_is_usage_error(self, tmp_path, capsys, args, key):
        """T_multiple * T_c(k) past the float range is named, not a traceback."""
        rc = run_cli([*args, "--out", str(tmp_path), *FAST])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
        assert "explicit horizon with --T" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec,amp", [("zero", None), ("bump", 1.0),
                                          ("bump:2.5", 2.5), ("bump:-1e-3", -1e-3)])
    def test_phi_terminal_specs(self, spec, amp):
        assert cli.RunConfig(phi_terminal=spec).bump_amplitude() == amp


class TestTables:
    def test_table_mesh(self, tmp_path):
        rc = run_cli(["table-mesh", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "table_mesh.csv").read_text().splitlines()
        assert rows[0] == "multiple,T,n_vertices,n_triangles,border_length"
        assert len(rows) == 11
        borders = [float(r.split(",")[-1]) for r in rows[1:]]
        assert all(b2 > b1 for b1, b2 in zip(borders, borders[1:]))
        assert abs(borders[0] - 41.936) / 41.936 < 0.01
        verts = [int(r.split(",")[2]) for r in rows[1:]]
        assert all(abs(v - ref) / ref <= 0.3 for v, ref in
                   zip(verts, (2916, 2580, 2411, 2365, 2319, 2309, 2316, 2273, 2246, 2236)))

    def test_table_mesh_fixed_domain_is_usage_error(self, tmp_path, capsys):
        rc = run_cli(["table-mesh", "--out", str(tmp_path), "--k", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: k: mesh table needs k > 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_table_mesh_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["table-mesh", "--out", str(a)])
        run_cli(["table-mesh", "--out", str(b)])
        assert (a / "table_mesh.csv").read_bytes() == (b / "table_mesh.csv").read_bytes()

    def test_table_sigma_small(self, tmp_path):
        # reduced resolution keeps this a smoke test; the full-size sweep
        # lives in the acceptance suite
        rc = run_cli(["table-sigma", "--out", str(tmp_path), "--N", "30", "--M", "30"])
        assert rc == 0
        rows = (tmp_path / "table_sigma.csv").read_text().splitlines()
        assert rows[0] == "sigma,iterations,converged,stop_final"
        assert len(rows) == 11
        iters = [int(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(iters, iters[1:]))

    def test_table_survives_divergence(self, tmp_path, capsys):
        # k = 0.5 does not contract at small sigma: sigma = 1e1..1e3 go
        # non-finite, 1e4 hits the cap, the rest converge
        rc = run_cli(["table-sigma", "--out", str(tmp_path), "--k", "0.5",
                      "--N", "20", "--M", "20"])
        assert rc == 0
        rows = [r.split(",") for r in
                (tmp_path / "table_sigma.csv").read_text().splitlines()[1:]]
        assert len(rows) == 10
        for row in rows[:3]:
            assert row[2:] == ["false", "nan"] and 0 < int(row[1]) < 100
        assert rows[3][1:3] == ["100", "false"]
        assert all(row[2] == "true" for row in rows[4:])
        assert capsys.readouterr().out.count("diverged: non-finite") == 3

    @staticmethod
    def _table_with(tmp_path, command, source, key, value):
        """Run ``command`` with ``key`` set to ``value`` by its flag or by a config file."""
        if source == "flag":
            args = ["--" + key.replace("_", "-"), value]
        else:
            cfgfile = tmp_path / "table.cfg"
            cfgfile.write_text(f"{key} = {value}\n")
            args = ["--config", str(cfgfile)]
        return run_cli([command, *args, "--out", str(tmp_path)])

    @pytest.mark.parametrize("command", ["table-T", "table-mesh"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_explicit_horizon_is_usage_error(self, tmp_path, capsys, command, source):
        # the tables set their own horizons, T = 1..10 x T_c
        rc = self._table_with(tmp_path, command, source, "T", "5")
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search(rf"^error: T: {command} runs the multiples 1\.\.10 of T_c", err)
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("command", ["table-T", "table-mesh"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_horizon_multiple_is_usage_error(self, tmp_path, capsys, command, source):
        # the tables set their own multiples of T_c, 1..10
        rc = self._table_with(tmp_path, command, source, "T_multiple", "5")
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search(rf"^error: T_multiple: {command} runs the multiples 1\.\.10 of T_c "
                         r"and takes no other multiple, got T_multiple=5\.0$", err, re.M)
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("command", ["table-T", "table-sigma", "table-mesh", "verify"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_dump_frames_is_usage_error(self, tmp_path, capsys, command, source):
        # only run writes per-level frames, from the flag or the config key
        if source == "flag":
            args = ["--dump-frames"]
        else:
            cfgfile = tmp_path / "frames.cfg"
            cfgfile.write_text("dump_frames = yes\n")
            args = ["--config", str(cfgfile)]
        rc = run_cli([command, *args, "--out", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert re.fullmatch(rf"error: dump_frames: {command} writes no per-level frames; "
                            r"only run takes dump_frames\n", captured.err)
        assert captured.out == "" and list(tmp_path.glob("*.csv")) == []

    def test_table_T_small(self, tmp_path):
        rc = run_cli(["table-T", "--out", str(tmp_path), "--N", "30", "--M", "30"])
        assert rc == 0
        rows = (tmp_path / "table_T.csv").read_text().splitlines()
        assert rows[0] == ("multiple,T,iterations,converged,stop_final,"
                           "du_L2_final,dw_L2_final,J,J2")
        assert len(rows) == 11
        assert all(r.split(",")[3] == "true" for r in rows[1:])


class TestDivergenceExit:
    def test_exit_code_three(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise DivergenceError("synthetic blow-up", payload={"iteration": 0})

        monkeypatch.setattr(cli, "fixed_point_solve", boom)
        rc = run_cli(["run", "--out", str(tmp_path), *FAST])
        assert rc == 3

    def test_non_finite_sweep_exits_three(self, tmp_path, capsys):
        # k = 0.5 at sigma = 100 does not contract: the sweep's log goes to
        # inf/nan long before the 100-sweep cap, without reaching the state
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(["run", "--out", str(tmp_path), "--k", "0.5", "--sigma", "100",
                          "--N", "20", "--M", "20"])
        assert rc == 3
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("divergence: ") and err.count("\n") == 1
        assert "Warning" not in err
        assert "'field': 'log'" in err
        sweep = int(re.search(r"'iteration': (\d+)", err).group(1))
        assert sweep < 100

    def test_underflowing_time_step_exits_three_without_warnings(self, tmp_path, capsys):
        # dt^2 underflows to 0, so the level plan divides by zero; that is
        # reported by the sweep's non-finite checks, not as numpy warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(["run", "--out", str(tmp_path), "--T", "1e-300",
                          "--N", "10", "--M", "10"])
        assert rc == 3
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("divergence: ") and err.count("\n") == 1


class TestMarchCounts:
    """Marches per ``snwave run`` on the benchmark's three configurations:
    two per sweep, less the first sweep's all-zero state, plus the final
    state; the final adjoint is not read, so it is not marched.  With the
    leader chain live a complex march carries two fields, (u, psi) forward
    and (p, phi) backward, so it is still two per sweep.  Each march makes
    M+1 interpolation calls, one per frame."""

    @pytest.mark.parametrize("args,marches,interpolations", [
        ([], 12, 12 * 101),
        (["--phi-terminal", "bump:1.0", "--T-multiple", "10"], 34, 34 * 101),
        (["--N", "300", "--M", "300"], 20, 20 * 301),
    ], ids=["run-default", "run-leader", "run-fine"])
    def test_marches_per_run(self, tmp_path, monkeypatch, args, marches, interpolations):
        count = {"_march": 0, "interpolate": 0}
        for name in count:
            def counted(*a, _name=name, _call=getattr(solvers, name), **kw):
                count[_name] += 1
                return _call(*a, **kw)

            monkeypatch.setattr(solvers, name, counted)
        assert run_cli(["run", "--out", str(tmp_path), *args]) == 0
        assert count == {"_march": marches, "interpolate": interpolations}


class TestGoldenOutputs:
    """``snwave run`` writes the CSVs stored in ``tests/golden`` byte for
    byte: 4 sweeps each, the leader cases with the leader chain live.  The
    N=200 cases step on the folded operators (``solvers._FOLD_N``).  A
    change that moves any bit of the arithmetic regenerates them and says
    why.  ``golden.json`` beside them records the BLAS kernel, numpy and
    OpenBLAS they were written with; a failure names that kernel and the
    running one, since another kernel may round a product differently."""

    GOLDEN = Path(__file__).parent / "golden"
    PLATFORM = json.loads((Path(__file__).parent / "golden.json").read_text())
    LEADER = ["--phi-terminal", "bump:1.0", "--T-multiple", "2"]
    CASES = {
        "default-N20-M20": ["--N", "20", "--M", "20"],
        "leader-N20-M20-T2": ["--N", "20", "--M", "20", *LEADER],
        "default-N200-M20": ["--N", "200", "--M", "20"],
        "leader-N200-M20-T2": ["--N", "200", "--M", "20", *LEADER],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_csv_bytes(self, tmp_path, case, blas_kernel):
        assert run_cli(["run", "--out", str(tmp_path), *self.CASES[case]]) == 0
        for name in ("iteration_log.csv", "final_state.csv"):
            assert (tmp_path / name).read_bytes() == (self.GOLDEN / case / name).read_bytes(), (
                f"{case}/{name}: golden written on BLAS kernel {self.PLATFORM['blas_kernel']}, "
                f"this run uses {blas_kernel}")


class TestVerify:
    def test_battery_passes(self, capsys):
        rc = run_cli(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") >= 10
        assert "FAIL" not in out
