"""The benchmark's traced run wraps package attributes by name; each must exist.

Also: the harness's reference answers agree with an oracle of their own.
"""

import importlib
import sys
from functools import cached_property
from pathlib import Path

import pytest

from sato4.conway import conway_coefficients
from sato4.diagram import LinkDiagram, parse_pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402
import spans  # noqa: E402


# the Seifert route no longer passes through braid form, R2 is inserted
# by add_r2 and bigons are listed by bigon_arcs alone, and conway()
# answers by the Seifert route instead of a skein step
RETIRED = {"seifert.to_braid_form", "rewrites.insert_r2", "rewrites.find_bigons", "conway._compute"}


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


def test_memo_target_is_gone():
    # the traced run then lists conway._MEMO as absent and memo_entries reads 0
    assert not hasattr(importlib.import_module("sato4.conway"), "_MEMO")


@pytest.mark.parametrize("attr", ["canonical_encoding", "faces"])
def test_cached_targets_stay_cached_properties(attr):
    # spans.install rewraps a cached_property's function, so the encode and
    # faces spans (diagram.encode_calls, ...) count computations, not reads
    assert isinstance(LinkDiagram.__dict__[attr], cached_property)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scrambled_reference_matches_the_smoothing_sum(seed):
    # the harness takes ref_z3 from conway(), the route the workload checks;
    # the smoothing sum on the scrambled link is an independent reference
    for item in gen.make_inputs("certify-scrambled", seed, 12):
        assert item["ref_z3"] == conway_coefficients(parse_pd(item["pd"]), 3)[3], item["pd"]
