"""The benchmark's traced run wraps package attributes by name; each must exist."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402


@pytest.mark.parametrize("name", sorted(spans.TARGETS))
def test_trace_target_resolves(name):
    # the traced run lists a missing target as absent and its metrics read 0
    module_name, path = spans.TARGETS[name]
    spans._resolve(importlib.import_module(module_name), path)


def test_memo_target_resolves():
    assert isinstance(importlib.import_module("sato4.conway")._MEMO, dict)
