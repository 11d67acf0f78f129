"""The benchmark's tracer patches program functions by name, from outside
the program. A renamed or deleted function would crash a traced benchmark
run (``bench/run.py --trace 1``); this test fails first."""

import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_patches_every_name_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()            # getattr raises on a missing name
        patched = list(tracer._patched)
        assert patched
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patched)
