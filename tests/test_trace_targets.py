"""The names the benchmark tracer wraps must exist and nest as it expects.

`perfbench/spans.py` replaces module attributes by name and reads a stage's
time from the span nesting. A renamed import would leave a span empty or
attach it to the wrong parent, and only a benchmark run would show it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from sumcol import cli

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_target_resolves_and_alpha_tilde_nests_the_kernel(capsys):
    spans = load_spans()
    for _, module_name, attr in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)

    tracer = spans.Tracer()
    tracer.install(sys.modules)
    try:
        code = cli.main(["bound", "queen5_5", "--no-cache", "--format", "json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0

    names = [s.name for s in tracer.spans]
    (tilde,) = [i for i, name in enumerate(names) if name == "misgraph.alpha_tilde"]
    children = [s.name for s in tracer.spans if s.parent == tilde]
    assert children == ["stable.alpha_mis_graph"]
