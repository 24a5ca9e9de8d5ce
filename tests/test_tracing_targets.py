"""The benchmark tracer wraps boostdet functions by module attribute.

``boostbench/tracing.py`` imports only the standard library, so its
target table loads here without running the benchmark. A refactor that
drops or renames a wrapped attribute fails this test instead of breaking
every traced benchmark run.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "boostbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("boostbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = [(mod, attr) for mod, attr, *_ in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
