"""The benchmark's boundary tracer still fits the program.

perfbench/tracer.py wraps the public module-level functions of every layer
module, found by scanning, and the methods it names in METHODS.  A renamed or
deleted method breaks a traced benchmark run; this test catches it first.
The tracer is executed from source (not imported), so no bytecode cache is
written under perfbench/.
"""

import sys
import types
from pathlib import Path

import orbitlab
import orbitlab.scenarios  # noqa: F401 - imports every layer module the tracer scans
from orbitlab import linalg
from orbitlab.seminorms import SeminormSpec, Separator
from orbitlab.vectors import SparseVector

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _bindings():
    """Every attribute of every orbitlab module and traced class, by identity."""
    tracer = _tracer()
    owners = [mod for name, mod in sys.modules.items() if name.startswith("orbitlab")]
    owners += [getattr(sys.modules[f"orbitlab.{layer}"], cls) for layer, cls, _ in tracer.METHODS]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_every_traced_method_exists():
    tracer = _tracer()
    for layer in tracer.LAYERS:
        assert f"orbitlab.{layer}" in sys.modules
    for layer, cls_name, names in tracer.METHODS:
        cls = getattr(sys.modules[f"orbitlab.{layer}"], cls_name)
        for name in names:
            assert callable(cls.__dict__[name]), f"{layer}.{cls_name}.{name}"


def test_install_traces_and_uninstall_restores():
    before = _bindings()
    tracer = _tracer().Tracer()
    tracer.install(orbitlab)
    try:
        assert linalg.RowReducer.try_add is not before[(id(linalg.RowReducer), "try_add")]
        Separator(SeminormSpec.sup_on((1, 2))).add(SparseVector({1: 1, 2: 1}))
    finally:
        tracer.uninstall()
    assert tracer.calls["linalg.rowreducer"] == 1
    after = _bindings()
    assert [key for key in before if after.get(key) is not before[key]] == []
