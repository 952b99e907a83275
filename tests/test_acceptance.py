"""One test per verification gate; each prints its pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to watch the lines stream, or
``zexlab verify`` for the CLI equivalent (which also writes the artifacts).
"""
import pytest

from zexlab import acceptance


@pytest.mark.parametrize("gate", acceptance.GATES,
                         ids=lambda g: g.__name__.removeprefix("gate_"))
def test_gate(gate):
    if gate in (acceptance.gate_shift_bounds, acceptance.gate_determinism):
        result = gate(acceptance.DEFAULT_SEED)
    else:
        result = gate()
    print(result.line())
    assert result.passed, result.details
    assert result.in_budget, (
        f"{result.name} took {result.elapsed:.1f}s, over its "
        f"{result.limit:.0f}s budget")


def test_verify_cli_runs_everything(tmp_path):
    from zexlab.cli import main

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
    assert main(["verify", "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[FAIL] crashing gate")
    assert lines[0].endswith("crashed: RuntimeError: boom")
    assert lines[1].startswith("[PASS] cheap gate")
    assert (out / "cheap.txt").read_text() == "ok\n"
