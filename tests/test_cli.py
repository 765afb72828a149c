"""Tests for the ``python -m repro`` command-line interface."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main
from repro.analysis.cli import main as lint_main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_demo_runs_and_verifies():
    completed = run_cli("demo")
    assert completed.returncode == 0
    assert "all safety properties verified" in completed.stdout
    assert "transitional set" in completed.stdout


def test_simulate_defaults():
    assert main(["simulate", "--nodes", "4"]) == 0


def test_simulate_unknown_algorithm():
    assert main(["simulate", "--algorithm", "quantum"]) == 2


def test_simulate_wan_flag():
    assert main(["simulate", "--nodes", "4", "--wan", "--seed", "3"]) == 0


def test_version_flag():
    completed = run_cli("--version")
    assert completed.returncode == 0
    assert "repro" in completed.stdout


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_lint_command_clean(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "lint: clean" in out
    assert "automata" in out


@pytest.mark.parametrize(
    "parse", [lambda: build_parser().parse_args(["lint", "--help"]), lambda: lint_main(["--help"])],
    ids=["repro", "repro.analysis.cli"],
)
def test_lint_help_names_all_seven_checks(parse, capsys):
    with pytest.raises(SystemExit):
        parse()
    text = " ".join(capsys.readouterr().out.split())
    for check in ("R1", "R2", "R3", "R4", "R5", "R6", "SUP"):
        assert f"({check})" in text
    for name in ("interference", "fast-lane conformance", "suppression hygiene"):
        assert name in text


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    assert "R2.parent-write" in capsys.readouterr().out


def test_experiments_command(capsys):
    assert main(["experiments", "E1", "E2", "E4", "E5", "E10", "E11"]) == 0
    out = capsys.readouterr().out
    for marker in ("E1 ", "E1b", "E2 ", "E4 ", "E5 ", "E10 ", "E11 "):
        assert f"\n{marker}" in f"\n{out}", marker
    assert "E3 " not in out  # only the ids asked for


def test_experiments_default_is_every_registered_id(monkeypatch, capsys):
    from repro.experiments import REGISTRY, Experiment, experiment_ids

    for id, entry in list(REGISTRY.items()):
        stub = Experiment(id, entry.title, entry.paper, lambda id=id: [f"{id} stub table"])
        monkeypatch.setitem(REGISTRY, id, stub)
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines() if line] == experiment_ids()


def test_experiments_list_and_unknown_id(capsys):
    from repro.experiments import experiment_ids

    assert main(["experiments", "--list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == experiment_ids()
    assert main(["experiments", "E4", "E99"]) == 2
    assert "E99" in capsys.readouterr().err


def test_experiments_exit_nonzero_on_a_missed_claim(monkeypatch, capsys):
    from repro.experiments import REGISTRY, ClaimMissed, Experiment

    def run():
        raise ClaimMissed("measured 3, claimed 2")

    monkeypatch.setitem(REGISTRY, "E4", Experiment("E4", "t", "p", run))
    assert main(["experiments", "E4", "E13"]) == 1
    captured = capsys.readouterr()
    assert "FAIL: E4" in captured.err and "measured 3" in captured.err
    assert "E13 " in captured.out  # the others still run


def test_scale_command_and_check(monkeypatch, capsys):
    from repro.experiments import scale

    args = ["scale", "--n", "12", "--g", "4", "--processes", "20", "--check"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "E19 endpoint axis" in out and "E19 group axis" in out
    assert "all acceptance bounds hold" in out

    honest = scale.measure_scale_endpoints

    def chatty(**kwargs):
        result = honest(**kwargs)
        result.model_ratio = 2.5
        return result

    monkeypatch.setattr(scale, "measure_scale_endpoints", chatty)
    assert main(args) == 1
    assert "2.50x the cost model" in capsys.readouterr().err
    assert main(args[:-1]) == 0  # without --check the bounds only print


def test_chaos_sweep_shrinks_the_first_failing_seed(monkeypatch, capsys):
    """A violating sweep exits 1 and shrinks the seed the sweep recorded
    as failing (not one parsed back out of a summary string)."""
    import functools
    import importlib

    import repro.__main__ as cli
    from repro.chaos import ChaosRunner
    from repro.checking.forge import FORGERIES, as_mutator

    forging = functools.partial(ChaosRunner, mutate_trace=as_mutator(FORGERIES["VS-MONO"]))
    monkeypatch.setattr(cli, "ChaosRunner", forging)
    sweep_mod = importlib.import_module("repro.experiments.chaos_sweep")
    monkeypatch.setattr(sweep_mod, "ChaosRunner", forging)
    assert main(["chaos", "--seed", "7", "--episodes", "2"]) == 1
    captured = capsys.readouterr()
    assert "2 violation(s)" in captured.out
    finding = json.loads(captured.err.strip().splitlines()[-1])
    assert finding["seed"] == 7  # the first seed the sweep recorded as failing
