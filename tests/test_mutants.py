"""The mutation probe's mutants and its table of equivalent ones: each
mutant compiles and differs from its source, each listed one is a mutant
the probe makes, given with its reason, and a listed one excuses its own
site alone.  No suite of the package runs here; CI runs the probe itself."""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, settings

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = mutants  # dataclasses look their module up
spec.loader.exec_module(mutants)


# the plant link, the run-log metrics and the record codec, which CI
# probes, and every module with a listed mutant
PROBED = ["src/twinloop/tcp.py", "src/twinloop/metrics.py", "src/twinloop/jsonio.py"]
MODULES = sorted({*PROBED, *(key[0] for key in mutants.EQUIVALENT)})


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


def test_a_listed_mutant_excuses_one_of_two_identical_lines(tmp_path, monkeypatch, capsys):
    (tmp_path / "twice.py").write_text("def f(x):\n    return x < 1\n\n\ndef g(x):\n    return x < 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_nothing.py").write_text("def test_nothing():\n    pass\n")
    # the probe runs pytest under the suite's Hypothesis profile
    (tmp_path / "tests" / "conftest.py").write_bytes((mutants.ROOT / "tests" / "conftest.py").read_bytes())
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    listed = ("twice.py", "return x [<] 1", "<=", 0)
    monkeypatch.setattr(mutants, "EQUIVALENT", {listed: "Only the first is listed."})
    assert [m.key for m in mutants.mutants("twice.py")] == [listed, listed[:3] + (1,)]
    assert mutants.main([str(tmp_path / "twice.py"), "--tests", "tests"]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "2 mutants, 2 survived, 1 not listed as equivalent",
        "survived: twice.py:2: return x [<] 1  -> <= (equivalent: Only the first is listed.)",
        "survived: twice.py:6: return x [<] 1  -> <=",
    ]


def test_the_probe_profile_is_every_phase_but_the_shrink():
    assert set(settings.get_profile("no-shrink").phases) == set(Phase) - {Phase.shrink}
