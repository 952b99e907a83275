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


def test_missing_required_key_exits_2(tmp_path):
    cfg = _write_config(tmp_path, "d = 1\nL = 8\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_window_exits_2(tmp_path):
    cfg = _write_config(tmp_path, "function = linear\nd = 1\nL = 8\nwindow = upside\n")
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


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
