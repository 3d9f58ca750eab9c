"""The benchmark's layer tracer patches names inside the package; every
name it patches must exist, and restore() must put the originals back."""

import importlib.util
from pathlib import Path

from twosquares import cli, sieve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_restores():
    tracer = load_tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, attr


def test_tracer_reads_witness_search(tmp_path):
    # the witness counters read witness_search's arguments by position
    tracer = load_tracer()
    tracer.install()
    try:
        code = cli.main(
            [
                "witness-search", "--N", "2000", "--limit", "8000", "--theta1", "0.1",
                "--theta2", "1", "--D0", "1", "--tuple", "0,4,16", "--bins", "1:1,2:2",
                "--output", str(tmp_path / "witness.json"),
            ]
        )
    finally:
        tracer.restore()
    assert code == 0
    metrics = tracer.pass_metrics(0, 0)
    params = sieve.SieveParams(N=2000, theta1=0.1, theta2=1.0, D0=1, strict=False)
    ns = sieve.window(params, sieve.AdmissibleTuple((0, 4, 16)), 8000, (0, 0))
    assert metrics["bins.witness_candidates"] == len(ns)
    assert 0 < metrics["bins.witness_hit_ratio"] <= 1
    assert metrics["bins.verify_s"] > 0
