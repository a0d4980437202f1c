"""The traced benchmark can still wrap every program name it looks up.

perfbench/layers.py wraps functions at the names their callers look them up
(module globals and the ANGULAR_LOSSES registry); a rename or a dropped
import there would break the traced run, so install every target here.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402


def _resolve():
    """{(owner, key): the object the target names}, registry entries one by one."""
    found = {}
    for owner_path, key, _ in layers.TARGETS:
        module_name, _, dict_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if dict_name:
            for k, fn in getattr(owner, dict_name).items():
                found[(owner_path, k)] = fn
        else:
            found[(owner_path, key)] = getattr(owner, key)
    return found


def test_tracer_installs_and_uninstalls_every_target():
    originals = _resolve()
    tracer = tracing.Tracer()
    try:
        tracer.install(layers.TARGETS)
        wrapped = _resolve()
        assert len(tracer._patches) == len(originals)
        assert all(wrapped[k] is not fn for k, fn in originals.items())
    finally:
        tracer.uninstall()
    restored = _resolve()
    assert all(restored[k] is fn for k, fn in originals.items())
