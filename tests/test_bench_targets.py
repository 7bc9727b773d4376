"""The benchmark's traced run wraps package attributes by name; each must exist."""

import importlib
import sys
from functools import cached_property
from pathlib import Path

import pytest

from sato4.diagram import LinkDiagram

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402


# the Seifert route no longer passes through braid form, and R2 is
# inserted by add_r2 and bigons are listed by bigon_arcs alone
RETIRED = {"seifert.to_braid_form", "rewrites.insert_r2", "rewrites.find_bigons"}


@pytest.mark.parametrize("name", sorted(set(spans.TARGETS) - RETIRED))
def test_trace_target_resolves(name):
    # the traced run lists a missing target as absent and its metrics read 0
    module_name, path = spans.TARGETS[name]
    spans._resolve(importlib.import_module(module_name), path)


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_target_is_gone(name):
    module_name, path = spans.TARGETS[name]
    with pytest.raises(AttributeError):
        spans._resolve(importlib.import_module(module_name), path)


def test_memo_target_resolves():
    assert isinstance(importlib.import_module("sato4.conway")._MEMO, dict)


@pytest.mark.parametrize("attr", ["canonical_encoding", "faces"])
def test_cached_targets_stay_cached_properties(attr):
    # spans.install rewraps a cached_property's function, so the encode and
    # faces spans (diagram.encode_calls, ...) count computations, not reads
    assert isinstance(LinkDiagram.__dict__[attr], cached_property)
