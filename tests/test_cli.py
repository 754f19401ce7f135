import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import nashdescent
from nashdescent import experiments
from nashdescent.cli import main
from nashdescent.experiments import (ExperimentConfig, _tight_games, exp_compare,
                                     exp_success_rate)
from nashdescent.generator import solve_b


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_constants(capsys):
    code, out = run(capsys, "constants")
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == pytest.approx(solve_b().b)
    assert set(doc) >= {"b", "lambda0", "mu0", "rhoStar"}


def test_generate_static_and_solve_ts(tmp_path, capsys):
    code, out = run(capsys, "generate", "--static", "tight-3x3", "--out", str(tmp_path))
    assert code == 0
    path = json.loads(out)["written"][0]
    code, out = run(capsys, "solve", path, "--algorithm", "ts",
                    "--init", "file:canonical", "--delta", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == pytest.approx(solve_b().b, abs=1e-6)


def test_solve_dfm_on_static_instance(tmp_path, capsys):
    run(capsys, "generate", "--static", "dfm-tight", "--out", str(tmp_path))
    code, out = run(capsys, "solve", str(tmp_path / "dfm-tight.json"),
                    "--algorithm", "dfm", "--init", "file:canonical", "--delta", "1e-6")
    assert code == 0
    assert json.loads(out)["f"] == pytest.approx(1 / 3, abs=1e-9)


def test_solve_regret_matching_finds_pure_equilibrium(tmp_path, capsys):
    run(capsys, "generate", "--static", "tight-3x3", "--out", str(tmp_path))
    code, out = run(capsys, "solve", str(tmp_path / "tight-3x3.json"),
                    "--algorithm", "rm", "--rounds", "100000", "--seed", "1")
    assert code == 0
    assert json.loads(out)["f"] <= 1e-3


def test_generate_verify_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    code, summary = run(capsys, "generate", "--size", "3x3", "--count", "2",
                        "--seed", "7", "--out", str(out1))
    assert code == 0
    assert json.loads(summary)["written"] == 2
    code, _ = run(capsys, "generate", "--size", "3x3", "--count", "2",
                  "--seed", "7", "--out", str(out2))
    assert code == 0
    for name in ("game_0000.json", "game_0001.json", "game_0000.cert.json"):
        assert (out1 / name).read_text() == (out2 / name).read_text()

    code, out = run(capsys, "verify", str(out1 / "game_0000.json"),
                    "--cert", str(out1 / "game_0000.cert.json"), "--full-square")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["checks"]["square_above_b"]


def test_verify_fails_on_tampered_game(tmp_path, capsys):
    run(capsys, "generate", "--static", "tight-3x3", "--out", str(tmp_path))
    path = tmp_path / "tight-3x3.json"
    doc = json.loads(path.read_text())
    doc["R"][0][0] = 0.25
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", str(path))
    assert code == 2
    assert not json.loads(out)["passed"]


def test_nested_generation_exits_empty(tmp_path, capsys):
    code, out = run(capsys, "generate", "--size", "3x3", "--count", "1",
                    "--restriction", "nested", "--seed", "1",
                    "--max-attempts", "40", "--out", str(tmp_path))
    assert code == 2
    assert json.loads(out)["written"] == 0


def test_missing_file_is_io_error(capsys):
    code, _ = run(capsys, "solve", "/nonexistent/game.json")
    assert code == 1


def test_bad_init_spec_is_io_error(tmp_path, capsys):
    run(capsys, "generate", "--static", "half-sp", "--out", str(tmp_path))
    code, _ = run(capsys, "solve", str(tmp_path / "half-sp.json"), "--init", "weird")
    assert code == 1


@pytest.mark.parametrize("init", ["pure:-1,0", "pure:5,0", "pure:0,2"])
def test_pure_init_out_of_range_is_io_error(tmp_path, capsys, init):
    run(capsys, "generate", "--static", "half-sp", "--out", str(tmp_path))
    code = main(["solve", str(tmp_path / "half-sp.json"), "--init", init])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: pure strategy index")


@pytest.mark.parametrize("init", ["pure:1", "pure:a,b", "pure:0,1,2"])
def test_malformed_pure_init_names_the_form(tmp_path, capsys, init):
    run(capsys, "generate", "--static", "half-sp", "--out", str(tmp_path))
    code = main(["solve", str(tmp_path / "half-sp.json"), "--init", init])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: init {init!r}: expected pure:I,J with two integers\n"


@pytest.mark.parametrize("doc", [{"y": [1, 0, 0]}, {"x": [1, 0, 0]}, [1, 0, 0]])
def test_init_file_without_x_and_y_is_io_error(tmp_path, capsys, doc):
    run(capsys, "generate", "--static", "tight-3x3", "--out", str(tmp_path))
    init = tmp_path / "init.json"
    init.write_text(json.dumps(doc))
    code = main(["solve", str(tmp_path / "tight-3x3.json"), "--init", f"file:{init}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: init file {str(init)!r} must be an object with keys 'x' and 'y'\n"


def test_canonical_block_without_y_is_io_error(tmp_path, capsys):
    run(capsys, "generate", "--static", "tight-3x3", "--out", str(tmp_path))
    path = tmp_path / "tight-3x3.json"
    doc = json.loads(path.read_text())
    del doc["canonical"]["y"]
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path), "--init", "file:canonical"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: the game file's canonical block must be an object with keys 'x' and 'y'\n"


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_game_file_without_c_is_io_error(tmp_path, capsys, command):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"R": [[0.0, 1.0], [1.0, 0.0]]}))
    code = main([command, str(path)])
    assert code == 1
    assert capsys.readouterr().err == "error: game document has no 'C' matrix\n"


def test_certificate_without_ystar_is_io_error(tmp_path, capsys):
    run(capsys, "generate", "--static", "tight-3x3", "--out", str(tmp_path))
    cert = tmp_path / "tight-3x3.cert.json"
    cert.write_text(json.dumps({"xStar": [1, 0, 0], "wStar": [0, 0, 1], "zStar": [0, 0, 1]}))
    code = main(["verify", str(tmp_path / "tight-3x3.json"), "--cert", str(cert)])
    assert code == 1
    assert capsys.readouterr().err == f"error: certificate {str(cert)!r} has no 'yStar'\n"


def test_canonical_block_without_w_fails_verify_as_io_error(tmp_path, capsys):
    run(capsys, "generate", "--static", "tight-3x3", "--out", str(tmp_path))
    path = tmp_path / "tight-3x3.json"
    doc = json.loads(path.read_text())
    del doc["canonical"]["w"]
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    assert code == 1
    assert capsys.readouterr().err == "error: the game file's canonical block has no 'w'\n"


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_non_finite_delta_is_io_error(tmp_path, capsys, delta):
    run(capsys, "generate", "--static", "tight-3x3", "--out", str(tmp_path))
    code = main(["solve", str(tmp_path / "tight-3x3.json"), "--init", "file:canonical",
                 "--delta", delta])
    assert code == 1
    assert capsys.readouterr().err == "error: delta must be a positive finite number\n"


def test_stability_on_one_by_one_games_is_io_error(capsys):
    code = main(["exp-stability", "--size", "1x1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sizes must be (m, n) pairs with m, n >= 2, got (1, 1)\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_stability_without_restarts_is_io_error(capsys, samples):
    code = main(["exp-stability", "--count", "2", "--samples", samples])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: counts must be positive: samples\n"


def test_stability_whose_game_sampler_gives_up_exits_empty(capsys):
    # On 2x2, disjoint witnesses sit on the one strategy outside supp x*
    # (supp y*), whose far-corner floor 1 exceeds lambda0 (mu0): no input
    # has a candidate pair, and the draw loop gives up before its first draw.
    code = main(["exp-stability", "--size", "2x2", "--count", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no disjoint input at 2x2 has a candidate "
                            "best-response pair, so no tight game exists\n")


@pytest.mark.parametrize("argv", [["generate", "--size", "2x3", "--count", "2"],
                                  ["exp-compare", "--size", "3x2", "--count", "1"],
                                  ["exp-otb", "--size", "5x2", "--mixed-duals"]])
def test_draws_without_candidates_exit_empty_without_generating(tmp_path, capsys,
                                                                  monkeypatch, argv):
    def no_generate(*args, **kwargs):
        raise AssertionError("generate_tight was called")

    monkeypatch.setattr(experiments, "generate_tight", no_generate)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    size = argv[2]
    assert captured.err == (f"error: no disjoint input at {size} has a candidate "
                            "best-response pair, so no tight game exists\n")
    assert list(tmp_path.iterdir()) == []


def test_solve_agrees_with_exp_compare(tmp_path, capsys):
    # Both entry points run one algorithm runner: on exp-compare's game, solve
    # with a record's seed gives that record's f, iterations and detail
    # (default_rng(s) and exp-compare's default_rng([s]) give one stream).
    cfg = ExperimentConfig(count=1, rounds=300, seed=2, algorithms=("fp", "rm", "zs"))
    records = exp_compare(cfg).records
    (_, _, _, games), = _tight_games(cfg)
    path = tmp_path / "game.json"
    path.write_text(games[0].game.to_json())
    assert [r.algorithm for r in records] == ["fp", "rm", "zs"]
    for r in records:
        code, out = run(capsys, "solve", str(path), "--algorithm", r.algorithm,
                        "--rounds", "300", "--seed", str(r.seed))
        assert code == 0
        doc = json.loads(out)
        assert (doc["f"], doc["iterations"], doc["detail"]) == (r.f, r.iterations, r.detail)


@pytest.mark.parametrize("argv, flags", [(["--count", "0"], "--count"),
                                         (["--max-attempts", "-3"], "--max-attempts"),
                                         (["--count", "-1", "--max-attempts", "0"],
                                          "--count, --max-attempts")])
def test_generate_rejects_counts_below_one(tmp_path, capsys, argv, flags):
    code = main(["generate", "--out", str(tmp_path / "out"), *argv])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: counts must be positive: {flags}\n"
    assert list(tmp_path.iterdir()) == []


def test_static_name_is_case_blind(tmp_path, capsys):
    # tight-3X3 names tight_3x3(), not tight_m_n(3, 3), which exchanges
    # strategies 1 and 2 and would write another game under the same stem.
    files = []
    for spec, out in (("tight-3x3", "a"), ("tight-3X3", "b"), ("TIGHT-3x3", "c")):
        code, text = run(capsys, "generate", "--static", spec, "--out", str(tmp_path / out))
        assert code == 0
        files.append(Path(json.loads(text)["written"][0]))
    assert {f.name for f in files} == {"tight-3x3.json"}
    assert len({f.read_bytes() for f in files}) == 1


def test_exp_success_library_and_cli_draw_alike(tmp_path, capsys):
    # Both draw set-valued witnesses, whatever the config's pure_duals says.
    out = tmp_path / "report.json"
    code, _ = run(capsys, "exp-success", "--size", "3x3", "4x4", "--trials", "6",
                  "--seed", "2", "--out", str(out))
    assert code == 0
    cli = json.loads(out.read_text())
    lib = json.loads(exp_success_rate(
        ExperimentConfig(sizes=((3, 3), (4, 4)), trials=6, seed=2)).to_json())
    for report in (lib, cli):
        for rec in report["records"]:
            del rec["wall_ms"]
    assert lib["config"]["pure_duals"] is False
    assert lib == cli


def test_otb_whose_ball_sampler_gives_up_exits_empty(capsys):
    # No two profiles lie at max-norm distance 2, so sample_outside_ball
    # uses up its draws on the first stable instance.
    code = main(["exp-otb", "--size", "3x3", "--count", "2", "--samples", "2",
                 "--radius", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: could not sample a profile at distance >= 2.0 "
                            "from the center\n")


def test_malformed_static_size_is_io_error(tmp_path, capsys):
    code = main(["generate", "--static", "tight-3", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: static instance 'tight-3'")


@pytest.mark.parametrize("spec", ["dfm-family:abc", "dfm-family:0.5", "dfm-family:0",
                                  "dfm-family:nan", "dfm-family:"])
def test_malformed_dfm_family_names_the_form(tmp_path, capsys, spec):
    code = main(["generate", "--static", spec, "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: static instance {spec!r}: expected dfm-family:EPS "
                            "with EPS in (0, 1/3]\n")


@pytest.mark.parametrize("argv, flags", [
    (["--size", "5x5", "--seed", "3", "--lambda-intersect"],
     "--size, --seed, --lambda-intersect"),
    (["--restriction", "none", "--mixed-duals", "--max-attempts", "3"],
     "--restriction, --max-attempts, --mixed-duals"),
    (["--seed", "0"], "--seed"),  # a default value, given, is still given
])
def test_static_rejects_sampling_flags(tmp_path, capsys, argv, flags):
    code = main(["generate", "--static", "tight-3x3", *argv, "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --static writes a named instance and reads no sampling flag: {flags}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", ["tight-3x3", "tight-4x5", "no-dominated", "dfm-tight",
                                  "dfm-family:0.1", "half-sp"])
def test_static_file_stem_is_its_spec(tmp_path, capsys, spec):
    code, out = run(capsys, "generate", "--static", spec, "--out", str(tmp_path / "a"))
    assert code == 0
    first = Path(json.loads(out)["written"][0])
    assert first.stem == spec
    code, out = run(capsys, "generate", "--static", first.stem, "--out", str(tmp_path / "b"))
    assert code == 0
    assert Path(json.loads(out)["written"][0]).read_text() == first.read_text()


def test_exp_success_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, text = run(capsys, "exp-success", "--size", "3x3", "--trials", "10",
                     "--seed", "3", "--out", str(out), "--format", "json")
    assert code == 0
    doc = json.loads(out.read_text())
    assert "aggregates" in doc and "records" in doc
    assert json.loads(text)["aggregates"]


def test_exp_stability_csv_output(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _ = run(capsys, "exp-stability", "--size", "3x3", "--count", "2",
                  "--samples", "4", "--seed", "3", "--out", str(out),
                  "--format", "csv")
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("experiment,instance,algorithm")


# The flags each exp-* subcommand once accepted but its experiment never read.
UNREAD_FLAGS = {
    "exp-stability": ("--trials", "--points", "--rounds"),
    "exp-otb": ("--trials", "--points", "--rounds"),
    "exp-success": ("--count", "--samples", "--points", "--delta", "--radius", "--rounds",
                    "--restriction", "--workers", "--mixed-duals"),
    "exp-compare": ("--trials", "--samples", "--radius"),
}


@pytest.mark.parametrize("command", sorted(UNREAD_FLAGS))
def test_exp_subcommand_rejects_flags_its_experiment_never_reads(capsys, command):
    for flag in UNREAD_FLAGS[command]:
        value = {"--restriction": ["nested"], "--mixed-duals": []}.get(flag, ["1"])
        # --size 1x1 makes a parser that took the flag fail at once with
        # exit 1, instead of running the experiment.
        with pytest.raises(SystemExit) as exc:
            main([command, "--size", "1x1", flag, *value])
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {' '.join([flag, *value])}" in capsys.readouterr().err


def test_runtime_imports_nothing_beyond_numpy(tmp_path):
    """numpy is the only runtime dependency: constants, generate and solve,
    run in a fresh interpreter, import only the standard library, numpy and
    nashdescent (the test process itself has scipy, hypothesis and pytest)."""
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        from nashdescent.cli import main
        out = sys.argv[1]
        assert main(["constants"]) == 0
        assert main(["generate", "--size", "3x3", "--seed", "7", "--out", out]) == 0
        assert main(["solve", out + "/game_0000.json", "--algorithm", "ts"]) == 0
        print(" ".join(sorted(set(sys.modules) - before)))
    """)
    src = str(Path(nashdescent.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    imported = proc.stdout.splitlines()[-1].split()
    assert "nashdescent.cli" in imported and "numpy" in imported
    # __mp_main__ is multiprocessing's alias of __main__; cython_runtime and
    # _cython_X_Y_Z are registered in memory by numpy's compiled extensions.
    allowed = set(sys.stdlib_module_names) | {"numpy", "nashdescent", "__mp_main__",
                                              "cython_runtime"}
    stray = sorted(top for top in {name.partition(".")[0] for name in imported} - allowed
                   if not top.startswith("_cython_"))
    assert stray == []
