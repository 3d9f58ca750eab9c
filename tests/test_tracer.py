"""The benchmark's layer tracer patches names inside the package; every
name it patches must exist, and restore() must put the originals back."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
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
