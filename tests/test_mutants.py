"""The mutation probe's mutants and its table of equivalent ones: each
mutant compiles and differs from its source, and each listed one is a mutant
the probe makes, given with its reason.  No suite runs here; CI runs the
probe itself."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = mutants  # dataclasses look their module up
spec.loader.exec_module(mutants)


# the plant link and the run-log metrics, which CI probes, and every module
# with a listed mutant
MODULES = sorted({"src/twinloop/tcp.py", "src/twinloop/metrics.py", *(module for module, _, _ in mutants.EQUIVALENT)})


@pytest.mark.parametrize("module", MODULES)
def test_each_mutant_compiles_and_differs_from_its_source(module):
    source = (mutants.ROOT / module).read_bytes()
    made = mutants.mutants(module)
    assert made
    for m in made:
        compile(m.source, module, "exec")
        assert m.source != source


def test_each_equivalent_mutant_is_one_the_probe_makes_with_a_reason():
    for key, reason in mutants.EQUIVALENT.items():
        assert key in {m.key for m in mutants.mutants(key[0])}, f"{key}: the line or its operator has changed"
        assert reason.endswith("."), key
