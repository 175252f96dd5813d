import re
import warnings

import pytest

import snwave.cli as cli
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
        assert rc == 0
        assert "converged=False" in capsys.readouterr().out

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

    def test_explicit_horizon_fixed_domain(self, tmp_path):
        with pytest.warns(UserWarning, match="moving-boundary"):
            rc = run_cli(["run", "--out", str(tmp_path), "--k", "0", "--T", "1.0",
                          *FAST])
        assert rc == 0

    def test_fixed_domain_needs_horizon(self, tmp_path, capsys):
        rc = run_cli(["run", "--out", str(tmp_path), "--k", "0", *FAST])
        assert rc == 2
        assert "T" in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_applied(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("max_iter = 1\nN = 40\nM = 40\n# comment\n\nout = "
                           + str(tmp_path) + "\n")
        rc = run_cli(["run", "--config", str(cfgfile)])
        assert rc == 0
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


class TestVerify:
    def test_battery_passes(self, capsys):
        rc = run_cli(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") >= 10
        assert "FAIL" not in out
