"""The shipped example scripts stay runnable against the public API."""

import importlib.util
from pathlib import Path

from repro.core import OriginalGetEndpoint

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        "example_" + name, EXAMPLES / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_custom_policy_example_runs():
    example = load_example("custom_policy")
    label, requests, mean_ms, vlrt, drops = example.run(
        example.ResponsiveCurrentLoadPolicy, OriginalGetEndpoint,
        "custom", duration=1.0)
    assert label == "custom"
    assert requests > 0
    assert float(mean_ms) > 0
    assert vlrt.endswith("%") and drops >= 0
