"""The benchmark tracer's hooks still name functions gms calls through.

``perfbench/tracer.py`` times layers by rebinding gms module attributes, and
skips any attribute it does not find.  A refactor that moves or renames one
of them would drop that span silently; this test makes it fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_every_hook_resolves():
    missing = {
        (module, attr)
        for module, attr, _ in load_hooks()
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert not missing
