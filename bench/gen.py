"""Seeded inputs and reference answers for the benchmark workloads.

This is harness work: it runs in the parent process before anything is
timed, and the measured process receives only PD text plus the
reference values to check against.  The same workload and seed give
byte-identical PD texts.
"""

from __future__ import annotations

import random

from sato4.braids import braid_closure
from sato4.conway import clear_memo, conway
from sato4.search import apply_move, enumerate_moves

# (strands, crossings); a 2-component closure needs crossings of the
# strands' parity, since the closing permutation has two cycles
BETA_SHAPES = ((3, 11), (5, 11))
CERTIFY_SHAPES = ((3, 7), (4, 8), (5, 7))
SCRAMBLE_MOVES = 5
SCRAMBLE_KINDS = ("r1_add", "r2_add", "r3")

# frozen values of the shipped corpus
CORPUS_E_CAL = -1
CORPUS_PHI = {"whitehead": 3, "double_clasp": 2}


def closure(rng: random.Random, strands: int, crossings: int):
    """A connected 2-component, linking-number-0 braid closure."""
    if crossings % 2 != strands % 2:
        raise ValueError(f"{crossings} crossings on {strands} strands never close into 2 components")
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)]
        if len({abs(x) for x in word}) != strands - 1:
            continue  # a generator that never occurs splits the diagram
        d = braid_closure(word, strands)
        if d.component_count == 2 and d.linking_number(1, 2) == 0:
            return d


def scramble(rng: random.Random, d, moves: int = SCRAMBLE_MOVES):
    """Apply random enlarging or sliding Reidemeister moves."""
    for _ in range(moves):
        options = [
            m for m in enumerate_moves(d, include_sc=False, include_adds=True)
            if m.kind in SCRAMBLE_KINDS
        ]
        d = apply_move(d, rng.choice(options))
    return d


def beta_braids(rng: random.Random, count: int) -> list[dict]:
    return [
        {"pd": closure(rng, *BETA_SHAPES[i % len(BETA_SHAPES)]).serialize()}
        for i in range(count)
    ]


def certify_scrambled(rng: random.Random, count: int) -> list[dict]:
    """Scrambled closures; the reference is the skein z^3 of the unscrambled base."""
    items = []
    for i in range(count):
        base = closure(rng, *CERTIFY_SHAPES[i % len(CERTIFY_SHAPES)])
        clear_memo()
        ref = conway(base).coefficient(3)
        items.append({"pd": scramble(rng, base).serialize(), "ref_z3": ref})
    clear_memo()
    return items


def verify_corpus(rng: random.Random, count: int) -> list[dict]:
    return [{"e_cal": CORPUS_E_CAL, "phi": CORPUS_PHI}]


GENERATORS = {
    "beta-braids": beta_braids,
    "certify-scrambled": certify_scrambled,
    "verify-corpus": verify_corpus,
}


def make_inputs(workload: str, seed: int, count: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, count)
