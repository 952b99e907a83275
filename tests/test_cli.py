import pytest

from zexlab.cli import main, parse_config_text, ConfigError


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_parse_config_text_basics():
    config = parse_config_text("""
# a comment
function = cusp alpha=0.5 center=0.5
d = 1
L = 8
p = 2,3
""")
    assert config["function"] == "cusp alpha=0.5 center=0.5"
    assert config["p"] == "2,3"


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("grid = fine\n")
    with pytest.raises(ConfigError):
        parse_config_text("d = 1\nd = 2\n")


def test_modulus_subcommand_constant_interior(tmp_path):
    cfg = _write_config(tmp_path, """
function = const value=1
d = 1
L = 8
p = 2
kind = interior
""")
    out = tmp_path / "out"
    assert main(["modulus", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "modulus_interior_p2.csv").read_text()
    lines = body.strip().split("\n")
    assert lines[0].startswith("t,value,kind")
    for line in lines[1:]:
        assert line.split(",")[1] == "0.0"


def test_modulus_reruns_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, """
function = random level=3 seed=4
d = 1
L = 8
p = 2
kind = whole
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["modulus", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["modulus", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "modulus_whole_p2.csv").read_bytes() == \
        (out2 / "modulus_whole_p2.csv").read_bytes()


def test_unknown_config_key_exits_2(tmp_path):
    cfg = _write_config(tmp_path, "mystery = 1\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_config_key_beta_is_unknown(tmp_path, capsys):
    cfg = _write_config(tmp_path, "function = linear\nd = 1\nL = 8\nbeta = 0.5\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'beta'" in capsys.readouterr().err


def test_missing_required_key_exits_2(tmp_path):
    cfg = _write_config(tmp_path, "d = 1\nL = 8\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_window_exits_2(tmp_path, capsys):
    # the flag and the config key share one parse, so one message
    cfg = _write_config(tmp_path, "function = linear\nd = 1\nL = 8\nwindow = upside\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    from_key = capsys.readouterr().err
    assert "bad value for 'window': 'upside'" in from_key
    cfg = _write_config(tmp_path, "function = linear\nd = 1\nL = 8\n")
    assert main(["modulus", "--config", cfg, "--window", "upside",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == from_key


def test_window_flag_and_key_parse_alike(tmp_path):
    from zexlab.cli import build_parser, load_config

    cfg = _write_config(tmp_path, "function = linear\nd = 1\nL = 8\nwindow = 0.03125:0.25\n")
    from_key = load_config(build_parser().parse_args(["modulus", "--config", cfg]))
    cfg = _write_config(tmp_path, "function = linear\nd = 1\nL = 8\n")
    from_flag = load_config(build_parser().parse_args(
        ["modulus", "--config", cfg, "--window", "0.03125:0.25"]))
    assert from_key["window"] == from_flag["window"] == (0.03125, 0.25)


def test_shift_bound_subcommand(tmp_path):
    cfg = _write_config(tmp_path, "cases = 10\nseed = 7\n")
    out = tmp_path / "out"
    assert main(["shift-bound", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "shift_bound_suite.csv").read_text()
    rows = body.strip().split("\n")[1:]
    assert len(rows) == 10 * 10 * 3 + 1
    assert all(row.endswith("true") for row in rows)


def test_adaptive_subcommand_worked_example(tmp_path):
    cfg = _write_config(tmp_path, """
function = linear
d = 1
L = 10
p = 2
epsilon = 0.15
""")
    out = tmp_path / "out"
    assert main(["adaptive", "--config", cfg, "--out", str(out)]) == 0
    dump = (out / "partition_eps0.15.txt").read_text().strip().split("\n")
    good_level1 = [ln for ln in dump if ln.startswith("1,") and ln.endswith("good")]
    assert len(good_level1) == 2


def test_adaptive_subcommand_builds_one_pyramid(tmp_path, monkeypatch):
    from zexlab import adaptive
    from zexlab.grid import parse_spec, sample

    built = []
    original = adaptive.ErrorPyramid.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(adaptive.ErrorPyramid, "__init__", counting)
    cfg = _write_config(tmp_path, "function = random level=4 seed=3\nd = 2\n"
                                  "L = 6\np = 2\n")
    out = tmp_path / "out"
    assert main(["adaptive", "--config", cfg, "--out", str(out)]) == 0
    assert len(built) == 1
    # each file equals the one built through the library, partition by partition
    f = sample(parse_spec("random level=4 seed=3"), 2, 6)
    epsilons = adaptive.default_epsilons(f, 2.0)
    written = sorted(path.name for path in out.glob("partition_eps*.txt"))
    assert written == sorted(f"partition_eps{e:g}.txt" for e in epsilons)
    for eps in epsilons:
        assert (out / f"partition_eps{eps:g}.txt").read_text() == \
            adaptive.build_partition(f, 2.0, eps).to_text()
    assert (out / "count_scaling.csv").read_text() == \
        adaptive.count_bound_report(f, 2.0, 2.0, epsilons).to_csv()


def test_adaptive_duplicate_thresholds_counted_once(tmp_path):
    cfg = _write_config(tmp_path, "function = linear\nd = 1\nL = 8\np = 2\n"
                                  "epsilons = 0.1,0.1,0.05\n")
    out = tmp_path / "out"
    assert main(["adaptive", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "count_scaling.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["0.1", "0.05"]
    assert sorted(path.name for path in out.glob("partition_eps*.txt")) == \
        ["partition_eps0.05.txt", "partition_eps0.1.txt"]


def test_adaptive_eta_guard_exits_2_before_writing(tmp_path):
    # eta = 1/3 - 1/q + 1/p < 0
    cfg = _write_config(tmp_path, "function = linear\nd = 3\nL = 4\np = 3\nq = 1\n")
    out = tmp_path / "out"
    assert main(["adaptive", "--config", cfg, "--out", str(out)]) == 2
    assert not list(out.glob("partition_eps*.txt"))


@pytest.mark.parametrize("line, shown", [
    ("epsilon = nan", "nan"), ("epsilons = 0.1,nan", "nan"), ("epsilon = 0", "0.0"),
    ("epsilons = 0.1,-1", "-1.0"),
])
def test_adaptive_bad_threshold_exits_2_before_the_pyramid(tmp_path, capsys, monkeypatch,
                                                           line, shown):
    from zexlab import adaptive

    monkeypatch.setattr(adaptive, "_mean_pyramid", _no_alloc)
    cfg = _write_config(tmp_path, f"function = cusp alpha=0.5\nd = 1\nL = 8\n{line}\n")
    out = tmp_path / "out"
    assert main(["adaptive", "--config", cfg, "--out", str(out)]) == 2
    assert f"epsilon must be > 0, got {shown}" in capsys.readouterr().err
    assert not list(out.glob("partition_eps*.txt"))


def test_adaptive_infinite_threshold_keeps_the_root(tmp_path):
    cfg = _write_config(tmp_path, "function = cusp alpha=0.5\nd = 1\nL = 8\nepsilon = inf\n")
    out = tmp_path / "out"
    assert main(["adaptive", "--config", cfg, "--out", str(out)]) == 0
    dump = (out / "partition_epsinf.txt").read_text().strip().split("\n")
    assert len(dump) == 2 and dump[1].startswith("0,0,") and dump[1].endswith("good")


def test_cli_import_leaves_scipy_signal_and_stats_out():
    # a fresh interpreter: other tests in this run import them as references
    import os
    import subprocess
    import sys
    from pathlib import Path

    import zexlab

    env = dict(os.environ, PYTHONPATH=str(Path(zexlab.__file__).parents[1]))
    code = ("import sys, zexlab.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_hybrid_subcommand(tmp_path):
    cfg = _write_config(tmp_path, "function = cusp alpha=0.5\nd = 1\nL = 8\np = 2\n")
    out = tmp_path / "out"
    assert main(["hybrid", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "modulus_hybrid_p2.csv").read_text()
    assert "s_opt=" in body


def test_kernel_error_subcommand(tmp_path):
    cfg = _write_config(tmp_path, """
function = indicator lo=0 hi=0.5
d = 1
L = 8
p = 2
kernel = gauss
window = 0.03125:0.25
""")
    out = tmp_path / "out"
    assert main(["kernel-error", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "kernel_error_gauss_p2.csv").read_text()
    assert ",error_norm," in body


@pytest.mark.parametrize("kernel, cells", [("poisson", 263193624576),
                                           ("fejer_tensor", 1702560451684)])
def test_kernel_error_refuses_oversized_window(tmp_path, capsys, monkeypatch,
                                               kernel, cells):
    def no_window(*args, **kwargs):
        raise AssertionError("a window was allocated")

    monkeypatch.setattr("zexlab.kernels.zero_extend", no_window)
    cfg = _write_config(tmp_path, f"function = cusp alpha=0.5\nd = 2\nL = 10\n"
                                  f"kernel = {kernel}\n")
    assert main(["kernel-error", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"a window of {cells} cells" in capsys.readouterr().err


def test_besov_fit_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, "function = cusp alpha=0.5\nd = 1\nL = 10\np = 2\n")
    out = tmp_path / "out"
    assert main(["besov-fit", "--config", cfg, "--out", str(out)]) == 0
    assert "slope=" in capsys.readouterr().out


def test_besov_fit_on_vanishing_modulus_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, "function = const value=0\nd = 1\nL = 10\np = 2\n")
    assert main(["besov-fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("no result: vanishing modulus")


def test_exponent_drop_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, "function = cusp alpha=0.5\nd = 1\nL = 10\np = 2\n")
    out = tmp_path / "out"
    assert main(["exponent-drop", "--config", cfg, "--out", str(out)]) == 0
    assert "pass=true" in capsys.readouterr().out


def test_dyadic_subcommand(tmp_path):
    cfg = _write_config(tmp_path, "function = cusp alpha=0.5\nd = 1\nL = 8\np = 2\n")
    out = tmp_path / "out"
    assert main(["dyadic", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "average_error.csv").read_text()
    rows = body.strip().split("\n")
    assert rows[0] == "p,N,error,bound,constant,pass"
    assert all(row.endswith("true") for row in rows[1:])


def test_embedding_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, """
function = cusp alpha=0.5
d = 1
p = 2
q = 2
levels = 8,9
""")
    out = tmp_path / "out"
    assert main(["embedding", "--config", cfg, "--out", str(out)]) == 0
    assert "stabilization=" in (out / "embedding.txt").read_text()


def test_meta_file_holds_timestamp_not_csv(tmp_path):
    cfg = _write_config(tmp_path, "function = linear\nd = 1\nL = 8\np = 2\n")
    out = tmp_path / "out"
    assert main(["modulus", "--config", cfg, "--out", str(out)]) == 0
    meta = (out / "run_meta.txt").read_text()
    assert "generated_unix=" in meta
    csv_body = (out / "modulus_interior_p2.csv").read_text()
    assert "generated_unix" not in csv_body


@pytest.mark.parametrize("command, keys", [
    ("adaptive", "L = 6\n"), ("embedding", "levels = 8,9\n")])
def test_single_p_commands_refuse_a_p_list(tmp_path, capsys, command, keys):
    cfg = _write_config(tmp_path, f"function = linear\nd = 1\n{keys}p = 2,3\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "takes one p, got 2, 3" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_correlation_table_exits_2(tmp_path, capsys, monkeypatch):
    from zexlab import moduli

    monkeypatch.setattr(moduli, "_MAX_CELLS", 1 << 12)
    cfg = _write_config(tmp_path, "function = linear\nd = 2\nL = 6\np = 2\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "128 x 128 FFT grid of 16384 cells (limit 4096)" in capsys.readouterr().err


def test_modulus_meta_records_table_provenance(tmp_path):
    cfg = _write_config(tmp_path, "function = cusp alpha=0.5\nd = 1\nL = 10\np = 1,3\n")
    out = tmp_path / "out"
    assert main(["modulus", "--config", cfg, "--out", str(out)]) == 0
    meta = dict(line.split("=", 1) for line in
                (out / "run_meta.txt").read_text().splitlines())
    for p in ("1", "3"):
        name = f"modulus_interior_p{p}"
        rows = (out / f"{name}.csv").read_text().strip().split("\n")[1:]
        assert meta[f"{name}.method"] == "bound"
        assert meta[f"{name}.exact"] == "True"
        assert meta[f"{name}.shifts"] == "256"
        assert 0 < int(meta[f"{name}.rechecked"]) < 256
        # exact rows: the certified upper bound is the value itself
        assert meta[f"{name}.upper"].split(",") == [row.split(",")[1] for row in rows]
        assert float(meta[f"{name}.elapsed"]) > 0.0
        assert "elapsed" not in (out / f"{name}.csv").read_text()


def test_dyadic_meta_marks_bracketed_rows(tmp_path, monkeypatch):
    from zexlab import moduli

    cfg = _write_config(tmp_path, "function = cusp alpha=0.5\nd = 1\nL = 8\np = 1\n")
    full, capped = tmp_path / "full", tmp_path / "capped"
    assert main(["dyadic", "--config", cfg, "--out", str(full)]) == 0
    # two direct evaluations per table: the coarse levels' tables stop short
    monkeypatch.setattr(moduli, "_DIRECT_WORK_BUDGET", 2 * 256)
    with pytest.warns(moduli.LowerBoundWarning):
        main(["dyadic", "--config", cfg, "--out", str(capped)])
    rows = {}
    for out in (full, capped):
        meta = dict(line.split("=", 1) for line in
                    (out / "run_meta.txt").read_text().splitlines())
        body = (out / "average_error.csv").read_text().strip().split("\n")[1:]
        rows[out] = [(meta[f"average_error_p1_N{n}.exact"],
                      float(meta[f"average_error_p1_N{n}.upper"]),
                      int(meta[f"average_error_p1_N{n}.rechecked"]),
                      float(row.split(",")[3]) / float(row.split(",")[4]))
                     for n, row in enumerate(body)]
    assert len(rows[full]) == 7 and all(exact == "True" for exact, *_ in rows[full])
    assert {exact for exact, *_ in rows[capped]} == {"True", "False"}
    for (exact, upper, rechecked, value), (_, _, _, true) in zip(rows[capped], rows[full]):
        assert rechecked <= 2
        if exact == "True":
            assert value == pytest.approx(upper, rel=1e-15) and value == true
        else:  # the bound read is a lower bound; the upper bound is marked
            assert value <= true <= upper and value < upper


def _no_alloc(*args, **kwargs):
    raise AssertionError("an oversized array was allocated")


def test_oversized_lattice_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    import numpy as np

    monkeypatch.setattr(np, "meshgrid", _no_alloc)
    cfg = _write_config(tmp_path, "function = cusp alpha=0.5\nd = 3\nL = 10\np = 2\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "a 3-d lattice at level 10 has 2^30 cells (limit 134217728)" in \
        capsys.readouterr().err


def test_oversized_window_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    from zexlab import grid

    monkeypatch.setattr(grid, "_MAX_CELLS", 1 << 12)  # a 32^2 lattice still fits
    cfg = _write_config(tmp_path, "function = linear\nd = 2\nL = 5\np = 2\n"
                                  "kind = whole\nwindow = 0.0625:1\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "a margin of 32 cells makes a window of 96^2 = 9216 cells (limit 4096)" in \
        capsys.readouterr().err


def test_oversized_bound_screen_exits_2_before_any_fft(tmp_path, capsys, monkeypatch):
    from zexlab import moduli

    monkeypatch.setattr(moduli, "_MAX_CELLS", 1 << 12)
    monkeypatch.setattr(moduli, "_half_shifts", _no_alloc)
    monkeypatch.setattr(moduli, "_screen", _no_alloc)
    cfg = _write_config(tmp_path, "function = linear\nd = 1\nL = 12\np = 3\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "on 4096 cells needs a 5120 FFT grid of 5120 cells (limit 4096)" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("modulus", "p", "nan"), ("besov-fit", "p", "nan"), ("dyadic", "p", "nan"),
    ("adaptive", "p", "nan"), ("modulus", "p", "inf"), ("kernel-error", "p", "inf"),
    ("adaptive", "q", "0"),
])
def test_invalid_exponent_exits_2(tmp_path, capsys, monkeypatch, command, key, value):
    from zexlab import kernels, moduli

    monkeypatch.setattr(moduli, "_build_table", _no_alloc)
    monkeypatch.setattr(kernels, "zero_extend", _no_alloc)
    cfg = _write_config(tmp_path, f"function = cusp alpha=0.5\nd = 1\nL = 8\n"
                                  f"{key} = {value}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"{key} must be finite and >= 1, got {value}" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_embedding_nan_q_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    from zexlab import besov

    monkeypatch.setattr(besov, "sample", _no_alloc)
    cfg = _write_config(tmp_path, "function = cusp alpha=0.5\nd = 1\np = 2\nq = nan\n"
                                  "levels = 8,9\n")
    out = tmp_path / "out"
    assert main(["embedding", "--config", cfg, "--out", str(out)]) == 2
    assert "q must be >= 1 or infinity, got nan" in capsys.readouterr().err
    assert not (out / "embedding.txt").exists()



@pytest.mark.parametrize("command, line, message", [
    ("modulus", "kind = bogus", "unknown modulus kind 'bogus'"),
    ("modulus", "p = 2,nan", "p must be finite and >= 1, got nan"),
    ("dyadic", "p = 0.5", "p must be finite and >= 1, got 0.5"),
    ("kernel-error", "kernel = bogus", "unknown kernel family 'bogus'"),
    ("kernel-error", "tail = 0.7", "tail budget must lie in (0, 0.5), got 0.7"),
    ("kernel-error", "tail = 0", "tail budget must lie in (0, 0.5), got 0"),
    ("adaptive", "q = 0", "q must be finite and >= 1, got 0"),
    ("adaptive", "p = 2,3", "this command takes one p, got 2, 3"),
])
def test_config_errors_exit_2_before_sampling(tmp_path, capsys, monkeypatch, command,
                                              line, message):
    monkeypatch.setattr("zexlab.cli.sample", _no_alloc)
    cfg = _write_config(tmp_path, f"function = cusp alpha=0.5\nd = 2\nL = 10\n{line}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("function, message", [
    ("indicator lo=0.7 hi=0.2", "0 <= lo < hi <= 1, got lo=0.7 hi=0.2"),
    ("indicator lo=-0.5", "0 <= lo < hi <= 1, got lo=-0.5 hi=0.5"),
    ("tensor base=indicator lo=0.7 hi=0.2", "0 <= lo < hi <= 1, got lo=0.7 hi=0.2"),
    ("cusp alpha=1.5", "cusp exponent must lie in (0,1), got alpha=1.5"),
    ("random level=-1 seed=1", "random level must be >= 0, got level=-1"),
    # 2^40 cells: refused before any draw, where numpy alone would raise MemoryError
    ("random level=40 seed=1", "random level=40 needs a 1-d table of 2^40 cells"),
    ("tensor base=random level=40 seed=1", "random level=40 needs a 1-d table"),
    ("random level=3", "missing parameter 'seed'"),
])
def test_function_spec_ranges_exit_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                     function, message):
    monkeypatch.setattr("zexlab.cli.sample", _no_alloc)
    cfg = _write_config(tmp_path, f"function = {function}\nd = 1\nL = 8\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
