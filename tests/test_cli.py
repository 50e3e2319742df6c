import argparse
import gc
import json

import pytest

from daviesgap.cli import main
from daviesgap.davies import ThermalParams, build_generator, liouville_matrix
from daviesgap.models import build_ising_ring
from daviesgap.spectral import KERNEL_RTOL
from oracles import csr, read_coo_text


def run_cli(args):
    return main(args)


class TestBounds:
    def test_infinite_temperature(self, capsys):
        assert run_cli(["bounds", "--betaJ", "0"]) == 0
        out = capsys.readouterr().out
        assert "generator_gap = 0.3333333333" in out

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "bounds.json"
        run_cli(["bounds", "--betaJ", "0.25", "--json", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert abs(doc["generator_gap"] - 0.045111761078871046) < 1e-12

    def test_parser_left_as_no_garbage(self, capsys):
        # the parser is built once per process, not once per call
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(2):
                assert run_cli(["bounds", "--betaJ", "0.25"]) == 0
            gc.collect()
            parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        capsys.readouterr()
        assert parsers == []


class TestVerify:
    def test_toric_passes(self, capsys):
        assert run_cli(["verify", "--model", "toric", "--size", "2"]) == 0
        out = capsys.readouterr().out
        assert "ground degeneracy equals 2^logical" in out
        assert "FAIL" not in out

    def test_usage_error_without_model(self, capsys):
        assert run_cli(["verify"]) == 2
        capsys.readouterr()


class TestGap:
    def test_ising_certification(self, capsys):
        code = run_cli(["gap", "--model", "ising", "--size", "3",
                        "--betaJ", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel=1" in out and "margin=" in out

    def test_json_fields(self, tmp_path, capsys):
        path = tmp_path / "gap.json"
        run_cli(["gap", "--model", "ising", "--size", "3", "--betaJ", "0",
                 "--json", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["kernel_dim"] == 1
        assert doc["gap"] >= doc["analytic_bound"]

    def test_json_stage_timings(self, tmp_path, capsys):
        path = tmp_path / "gap.json"
        run_cli(["gap", "--model", "toric", "--size", "2", "--betaJ", "0.25",
                 "--json", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        stages = doc["stages"]
        assert set(stages) == {"frame_s", "generator_s", "charge_blocks_s", "orbits_s",
                               "bounds_s", "eigensolve_s", "residual_s"}
        assert all(isinstance(v, float) and v >= 0 for v in stages.values())

    def test_json_counts_pieces(self, tmp_path, capsys):
        path = tmp_path / "gap.json"
        run_cli(["gap", "--model", "ising", "--size", "8", "--betaJ", "0.25",
                 "--json", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        # the pieces of the 4 blocks solved; the 56 screened are not split
        assert (doc["pieces"], doc["largest_piece"]) == (258, 128)

    def test_block_inventory(self, tmp_path, capsys):
        path = tmp_path / "blocks.json"
        run_cli(["gap", "--model", "ising", "--size", "3", "--betaJ", "0.25",
                 "--blocks-out", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert len(doc) == 16  # 4 flip patterns x 4 sectors
        assert sum(b["dim"] for b in doc) == 64
        assert {b["sector"] for b in doc} == {"I", "X", "Y", "Z"}
        trivial = next(b for b in doc if b["flip"] == 0 and b["sector"] == "I")
        assert trivial["kernel_dim"] == 1


    @pytest.mark.parametrize("model, size, reps, total", [
        ("ising", 8, 60, 512), ("toric", 2, 116, 1024)])
    def test_json_counts_blocks_solved(self, tmp_path, capsys, model, size,
                                       reps, total):
        # of the orbit representatives, 4 on the ring and 13 on the torus are
        # solved, the rest screened
        path = tmp_path / "gap.json"
        run_cli(["gap", "--model", model, "--size", str(size), "--betaJ", "0.25",
                 "--json", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        solved = 4 if model == "ising" else 13
        assert (doc["blocks_solved"], doc["blocks_screened"], doc["blocks_total"]) == \
            (solved, reps - solved, total)
        assert doc["screen_margin"] > KERNEL_RTOL
        # the ring's top sector has exact discs; the torus's keeps Lambda = 37.58 > 32
        assert doc["screen_rounds"] == (1 if model == "ising" else 2)
        assert abs(doc["top_slack"] - (0.0 if model == "ising" else 0.17447)) < 1e-5
        assert doc["symmetry_generators"] == (2 if model == "ising" else 4)

    def test_json_names_min_block(self, tmp_path, capsys):
        path = tmp_path / "gap.json"
        run_cli(["gap", "--model", "ising", "--size", "3", "--betaJ", "0.25",
                 "--json", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert set(doc["min_block"]) == {"flip", "sector", "dim"}
        assert doc["min_block"]["dim"] == 4

    @pytest.mark.parametrize("source, method", [
        ("flag", "dense"), ("flag", "iterative"), ("config", "dense")],
        ids=["flag-dense", "flag-iterative", "config-dense"])
    def test_full_space_methods_rejected(self, tmp_path, capsys, source,
                                         method):
        blocks, report = tmp_path / "blocks.json", tmp_path / "gap.json"
        argv = ["gap", "--model", "ising", "--size", "3", "--betaJ", "0.25",
                "--blocks-out", str(blocks), "--json", str(report)]
        if source == "flag":
            argv += ["--method", method]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"method = {method}\n")
            argv += ["--config", str(config)]
        assert run_cli(argv) == 2
        assert repr(method) in capsys.readouterr().err
        assert not blocks.exists() and not report.exists()


class TestSweep:
    def test_csv_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code = run_cli(["sweep", "--model", "ising", "--sizes", "3,4",
                            "--betaJs", "0,0.25",
                            "--out", str(out)])
            assert code == 0
        capsys.readouterr()
        strip = lambda p: [",".join(l.split(",")[:-1])
                           for l in p.read_text().splitlines()]
        assert strip(out1) == strip(out2)
        header = out1.read_text().splitlines()[0]
        assert header == "model,N_or_L,betaJ,gap,bound,margin,kernel_dim,solver,seconds"


class TestDynamics:
    def test_trace_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        report = tmp_path / "trace.json"
        code = run_cli(["dynamics", "--model", "ising", "--size", "3",
                        "--betaJ", "0.25", "--observable", "Z1",
                        "--out", str(out), "--json", str(report)])
        assert code == 0
        text = capsys.readouterr().out
        assert "relaxation_time=" in text
        assert out.read_text().startswith("t,re_full,im_full,dissipative")
        payload = json.loads(report.read_text())
        assert payload["exact_rate"] == pytest.approx(payload["gap_estimate"],
                                                      rel=1e-12)
        assert payload["relaxation_time"] == 1.0 / payload["fitted_rate"]
        assert set(payload["stages"]) == {"frame_s", "generator_s", "blocks_s", "trace_s"}

    @pytest.mark.parametrize("model,size,which,label", [
        ("ising", "3", "Z1", "+ZII"), ("ising", "3", "X", "+XXX"),
        ("ising", "3", "z1", "+ZII"), ("toric", "2", "Z2", "+ZIZIIIII")])
    def test_observable_names_a_logical(self, tmp_path, capsys, model, size,
                                        which, label):
        code = run_cli(["dynamics", "--model", model, "--size", size,
                        "--betaJ", "0.25", "--observable", which,
                        "--out", str(tmp_path / "trace.csv")])
        assert code == 0
        assert f"observable={label} " in capsys.readouterr().out

    @pytest.mark.parametrize("which", ["Z0", "Q1", "Z3", "X2", "ZZ", ""])
    def test_unknown_observable_rejected(self, tmp_path, capsys, which):
        out = tmp_path / "trace.csv"
        code = run_cli(["dynamics", "--model", "ising", "--size", "3",
                        "--betaJ", "0.25", "--observable", which,
                        "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown observable {which!r}" in err and "allowed: X1, Z1" in err
        assert not out.exists()


class TestExport:
    def test_model_json(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        run_cli(["export-model", "--model", "ising", "--size", "4",
                 "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert len(doc["stabilizers"]) == 4

    def test_generator_coo(self, tmp_path, capsys):
        out = tmp_path / "gen.coo"
        code = run_cli(["export-generator", "--model", "ising", "--size", "3",
                        "--betaJ", "0.25", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        dim, nnz = out.read_text().splitlines()[0].split()
        assert dim == "64"
        got = read_coo_text(out)
        want = liouville_matrix(build_generator(
            build_ising_ring(3), tp=ThermalParams.from_betaJ(0.25)))
        assert got.shape == want.shape == (64, 64)
        assert got.nnz == want.nnz == int(nnz)
        assert abs(got - csr(want)).max() == 0.0

    def test_oversized_export_refused(self, capsys):
        code = run_cli(["export-generator", "--model", "ising", "--size", "9",
                        "--betaJ", "0"])
        assert code == 2
        capsys.readouterr()


class TestBadInput:
    # each ends in exit 2 with the offending value named, not in a traceback
    def test_unknown_coupling_letter(self, capsys):
        code = run_cli(["gap", "--model", "ising", "--size", "3", "--betaJ", "0.25",
                        "--couplings", "xq"])
        assert code == 2
        assert "unknown Pauli letter 'q'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gap", "dynamics", "export-generator"])
    def test_empty_coupling_list(self, tmp_path, capsys, command):
        out = tmp_path / "report.json"
        code = run_cli([command, "--model", "ising", "--size", "3", "--betaJ", "0.25",
                        "--couplings", "", "--json", str(out)])
        assert code == 2
        assert "need at least one coupling, got []" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("betaJ", ["nan", "inf"])
    def test_non_finite_betaJ(self, capsys, betaJ):
        code = run_cli(["gap", "--model", "ising", "--size", "3", "--betaJ", betaJ])
        assert code == 2
        assert f"got beta={betaJ}, coupling=1.0" in capsys.readouterr().err

    def test_non_finite_coupling(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert run_cli(["export-model", "--model", "ising", "--size", "3",
                        "--coupling", "inf", "--out", str(out)]) == 2
        assert "coupling must be finite and positive, got inf" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(["verify", "--model", "ising", "--size", "3", "--coupling", "nan"]) == 2
        assert "coupling must be finite and positive, got nan" in capsys.readouterr().err


class TestFlags:
    # a command accepts only the flags it reads
    @pytest.mark.parametrize("command, flag, value", [
        ("verify", "--couplings", "xz"), ("verify", "--seed", "1"),
        ("bounds", "--model", "toric"), ("bounds", "--size", "99"),
        ("bounds", "--couplings", "xz"), ("bounds", "--seed", "1"),
        ("sweep", "--size", "3"), ("sweep", "--seed", "1"), ("sweep", "--json", "x.json"),
        ("export-model", "--couplings", "q"), ("export-model", "--seed", "1"),
        ("export-model", "--json", "x.json")])
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        out = str(tmp_path / "out")
        argv = {"verify": ["--model", "ising", "--size", "3"],
                "bounds": ["--betaJ", "0.25"],
                "sweep": ["--model", "ising", "--sizes", "3", "--betaJs", "0", "--out", out],
                "export-model": ["--model", "ising", "--size", "3", "--out", out]}[command]
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *argv, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_defaults_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = ising\nsize = 3\nbetaJ = 0.25  # comment\n")
        code = run_cli(["gap", "--config", str(cfg), "--size", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "size=4" in out

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model ising\n")
        assert run_cli(["gap", "--config", str(cfg), "--betaJ", "0"]) == 2
        capsys.readouterr()

    def test_config_file_serves_a_command_that_reads_fewer_keys(self, tmp_path, capsys):
        # keys a command does not read are left unused, as before
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = toric\nsize = 2\nseed = 3\ncouplings = xz\n")
        assert run_cli(["bounds", "--config", str(cfg), "--betaJ", "0"]) == 0
        assert "generator_gap = 0.3333333333" in capsys.readouterr().out

    def test_unread_key_is_not_converted(self, tmp_path, capsys):
        # bounds has no --seed, so a seed it cannot parse is left alone
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = abc\n")
        assert run_cli(["bounds", "--config", str(cfg), "--betaJ", "0.25"]) == 0
        assert "generator_gap = " in capsys.readouterr().out

    def test_read_key_that_does_not_parse_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = abc\n")
        out = tmp_path / "gen.coo"
        assert run_cli(["export-generator", "--config", str(cfg), "--model", "ising",
                        "--size", "3", "--betaJ", "0.25", "--out", str(out)]) == 2
        assert "'abc'" in capsys.readouterr().err
        assert not out.exists()
