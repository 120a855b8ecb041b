"""The benchmark's tracer wraps protopipe functions by name.

`perfbench/tracer.py` names each function it times as a module and an
attribute. A rename in `src/` would make a traced run fail only when it is
run, so this resolves every name here.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


def resolve(module_name: str, attr: str):
    """What the tracer wraps: a module attribute or a method in a class dict."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


@pytest.mark.parametrize(
    "module_name, attr", [t[:2] for t in TARGETS], ids=[t[2] for t in TARGETS]
)
def test_target_resolves(module_name, attr):
    assert callable(resolve(module_name, attr))


def test_install_and_uninstall_restore_every_target():
    tracer = load_tracer().Tracer()
    before = {t[:2]: resolve(*t[:2]) for t in TARGETS}
    tracer.install()
    try:
        assert all(resolve(*key) is not fn for key, fn in before.items())
    finally:
        tracer.uninstall()
    assert all(resolve(*key) is fn for key, fn in before.items())
