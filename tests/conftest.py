import json
import random
from pathlib import Path

import pytest

from sato4.braids import braid_closure
from sato4.corpus import Calibration, load_corpus
from sato4.diagram import LinkDiagram

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


@pytest.fixture(scope="session")
def corpus(corpus_dir):
    return load_corpus(corpus_dir)


@pytest.fixture(scope="session")
def by_name(corpus):
    return {entry.name: entry for entry in corpus}


@pytest.fixture(scope="session")
def shipped_calibration(corpus_dir) -> Calibration:
    payload = json.loads((corpus_dir / "calibration.json").read_text())
    return Calibration.from_json(payload)


@pytest.fixture
def built(monkeypatch):
    """Every LinkDiagram constructed or re-laid (switched or slid) while the fixture is active."""
    diagrams = []
    init, relaid = LinkDiagram.__init__, LinkDiagram._relaid

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        diagrams.append(self)

    def recording_relaid(self, new_crossings):  # a switch or a slide derives its diagram without __init__
        diagrams.append(relaid(self, new_crossings))
        return diagrams[-1]

    monkeypatch.setattr(LinkDiagram, "__init__", recording)
    monkeypatch.setattr(LinkDiagram, "_relaid", recording_relaid)
    return diagrams


@pytest.fixture
def lk0_closure():
    """Call with a random.Random: a connected 2-component, linking-number-0 closure on 3 strands."""

    def make(rng: random.Random) -> LinkDiagram:
        while True:
            word = [rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(7)]
            if len({abs(x) for x in word}) != 2:
                continue
            d = braid_closure(word, 3)
            if d.component_count == 2 and d.linking_number(1, 2) == 0:
                return d

    return make
