"""One test per verification gate; each prints its pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to watch the lines stream, or
``zexlab verify`` for the CLI equivalent (which also writes the artifacts).
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from zexlab import acceptance


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify.json"


@pytest.mark.parametrize("gate", acceptance.GATES,
                         ids=lambda g: g.__name__.removeprefix("gate_"))
def test_gate(gate):
    result = acceptance.run_gate(gate, acceptance.DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.details
    assert result.in_budget, (
        f"{result.name} took {result.elapsed:.1f}s, over its "
        f"{result.limit:.0f}s budget")
    # the artifacts keep the bytes recorded at the default seed
    recorded = {name: entry["sha256"] for name, entry
                in json.loads(REFERENCE.read_text())["artifacts"].items()
                if entry["gate"] == result.name}
    produced = {name: hashlib.sha256(body.encode()).hexdigest()
                for name, body in result.artifacts.items()}
    assert produced == recorded


def _quad_indicator_error(t, p):
    from scipy.integrate import quad

    def err(x):
        smooth = ndtr(x / t) - ndtr((x - 1.0) / t)
        return abs(smooth - (1.0 if 0.0 <= x <= 1.0 else 0.0)) ** p

    return sum(quad(err, a, b, limit=200)[0]
               for a, b in ((-1.0, 0.0), (0.0, 1.0), (1.0, 2.0))) ** (1.0 / p)


@pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
@pytest.mark.parametrize("t", (2.0 ** -3, 2.0 ** -4, 2.0 ** -5))
def test_indicator_oracle_matches_quad_and_its_refinement(t, p, monkeypatch):
    oracle = acceptance._gauss_indicator_error_oracle(t, p)
    # 1e-9, not tighter: at p=2 quad itself sits about 2e-12 from the rule
    assert oracle == pytest.approx(_quad_indicator_error(t, p), rel=1e-9, abs=0.0)
    # doubling the nodes per panel shows the rule's own error
    monkeypatch.setattr(acceptance, "_ORACLE_NODES", 2 * acceptance._ORACLE_NODES)
    refined = acceptance._gauss_indicator_error_oracle(t, p)
    assert abs(oracle - refined) < 1e-12 * refined


def test_oracle_normal_cdf_matches_scipy_ndtr_on_its_nodes(monkeypatch):
    # not bit for bit: math.erfc and scipy's ndtr round apart in the tails,
    # by at most one unit in the last place of 1, which moves no oracle digit
    seen = []
    ndtr_erfc = acceptance._ndtr

    def recording(x):
        seen.append(x.copy())
        return ndtr_erfc(x)

    for t in (2.0 ** -3, 2.0 ** -4, 2.0 ** -5):
        for p in (1.0, 2.0, 3.0):
            monkeypatch.setattr(acceptance, "_ndtr", recording)
            oracle = acceptance._gauss_indicator_error_oracle(t, p)
            monkeypatch.setattr(acceptance, "_ndtr", ndtr)
            assert abs(oracle - acceptance._gauss_indicator_error_oracle(t, p)) <= 1e-15 * oracle
    assert len(seen) == 18
    nodes = np.concatenate([x.ravel() for x in seen])
    assert np.max(np.abs(ndtr_erfc(nodes) - ndtr(nodes))) <= 2.0 ** -52


def test_indicator_oracle_prints_the_gate_digits():
    assert f"{acceptance._gauss_indicator_error_oracle(2.0 ** -4, 2.0):.6f}" == "0.170915"


def test_verify_cli_runs_everything(tmp_path, monkeypatch):
    from zexlab.cli import main

    # test_gate runs and pins every gate; two real gates that write the
    # asserted files exercise the command's plumbing
    monkeypatch.setattr(acceptance, "GATES",
                        (acceptance.gate_shift_bounds, acceptance.gate_adaptive))
    out = tmp_path / "verify"
    assert main(["verify", "--out", str(out)]) == 0
    assert (out / "shift_bound_suite.csv").exists()
    assert (out / "count_scaling.csv").exists()
    assert (out / "run_meta.txt").exists()


def test_crashing_gate_fails_alone(tmp_path, monkeypatch, capsys):
    from zexlab.cli import main

    def crash():
        raise RuntimeError("boom")

    def gate_crashing():
        return acceptance._gate("crashing gate", None, crash)

    def gate_cheap():
        return acceptance._gate("cheap gate", None,
                                lambda: (True, "fine", {"cheap.txt": "ok\n"}))

    monkeypatch.setattr(acceptance, "GATES", (gate_crashing, gate_cheap))
    out = tmp_path / "verify"
    # a crash exits 4, not a failed check's 1, once every gate has run
    assert main(["verify", "--out", str(out)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[FAIL] crashing gate")
    assert lines[0].endswith("crashed: RuntimeError: boom")
    assert lines[1].startswith("[PASS] cheap gate")
    assert (out / "cheap.txt").read_text() == "ok\n"


def test_verify_writes_each_gate_as_it_finishes(tmp_path, monkeypatch, capsys):
    from zexlab.cli import main

    out = tmp_path / "verify"
    seen = []

    def gate_first():
        return acceptance._gate("first gate", None,
                                lambda: (True, "done", {"first.txt": "1\n"}))

    def gate_second():
        def run():
            seen.append(((out / "first.txt").read_text(), capsys.readouterr().out))
            return True, "done", {}

        return acceptance._gate("second gate", None, run)

    monkeypatch.setattr(acceptance, "GATES", (gate_first, gate_second))
    assert main(["verify", "--out", str(out)]) == 0
    assert len(seen) == 1
    artifact, printed = seen[0]
    assert artifact == "1\n"
    assert printed.startswith("[PASS] first gate")
    assert capsys.readouterr().out.startswith("[PASS] second gate")


def test_verify_writes_run_meta_before_the_first_gate(tmp_path, monkeypatch):
    from zexlab.cli import main

    out = tmp_path / "verify"
    seen = []

    def gate_first():
        def run():
            seen.append((out / "run_meta.txt").read_text())
            return True, "done", {}

        return acceptance._gate("first gate", None, run)

    monkeypatch.setattr(acceptance, "GATES", (gate_first,))
    assert main(["verify", "--out", str(out), "--seed", "3"]) == 0
    assert len(seen) == 1
    lines = seen[0].splitlines()
    assert lines[0].startswith("generated_unix=")
    assert lines[1:] == [f"out={out}", "seed=3"]
    assert (out / "run_meta.txt").read_text() == seen[0]
