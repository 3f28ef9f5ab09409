"""The benchmark's tracer wraps treesynth names it looks up by string.

perfbench/spans.py fails at install time on a name the package no
longer has, and only traced benchmark runs would notice. This test reads
its target table and resolves every entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_spans().PACKAGE_TARGETS
    assert targets
    for span, module_name, attr, _ in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer replaces the method in the class's own namespace
            assert meth in vars(getattr(module, cls_name)), span
        else:
            assert callable(getattr(module, attr, None)), span
