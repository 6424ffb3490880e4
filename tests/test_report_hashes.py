"""Every suite's report, pinned byte for byte by its SHA-1.

The reports are pure functions of ``(suite, seed, iterations, mode)``;
this pins the JSON that ``cli.emit_json`` writes for every suite in
every mode at seed 0 and 20 iterations.  A refactor must leave these
hashes alone; a change that alters the report format on purpose updates
them and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from costglue.cli import emit_json
from costglue.phase import EvaluationMode
from costglue.suites import REGISTRY

SEED = 0
ITERATIONS = 20

PINNED = {
    "cost/laws": {
        "full": "91c1fb9f5964954a325d5ba8b01e7feb54b0d82a",
        "abstract": "78a18dcc8d7ba30b22e1d2814ad2c007aea5c697",
        "behavioral": "38cc62a2199606cc089df81c49255511a7a91e2c",
        "concrete": "6febe7c0b7592b0c4b6868786a0505233fd06247",
    },
    "phase/roundtrip": {
        "full": "2620d1a0b65072ad35ea01bf14ceff445330beb4",
        "abstract": "2e788a498bd566a0863b63822658c62fdfac8021",
        "behavioral": "c10b0b977d9f66515eb6e331e595209cb08d20b9",
        "concrete": "eea3c53359ca45014a079ea1f5c99d86baaef94f",
    },
    "queues/coherence": {
        "full": "b2a7c45bf71a8686966f46a9da0a793473785ca2",
        "abstract": "db39263a2fd606507f66557f06fe7c3fe7322e8b",
        "behavioral": "96d8c8f77e534fcbde694416ca5b342fb3329a33",
        "concrete": "e6d7a0466ddd81c83cdce797e1282a8a6b99d28e",
    },
    "queues/noninterference": {
        "full": "c404ae1e0d19e5c0d336f016460085621316596a",
        "abstract": "dda30610812b81f4f47289d7d8c23eb35fb075f8",
        "behavioral": "50c4ecacd157693a794e59c0f4769ec9e53e24df",
        "concrete": "abdbe0839d958df747da6686a80299990c8dd566",
    },
    "rbtree/invariants": {
        "full": "4a657a4dc0fe0dbcf84bd7ef9c6f8950f6785bdf",
        "abstract": "6e4696ed75c4cecf904eb6b1767236a26d5924f5",
        "behavioral": "019bab690393d4569eb20efb2705e5766a0ac975",
        "concrete": "a77b5071a378291f111e7444bfc47cde03ce5902",
    },
    "rbtree/reduce": {
        "full": "fc289b50c404823c5f03074ddd4f74ee830ea672",
        "abstract": "b55a0d273a41f8098dfd2ae81735339e60a3a853",
        "behavioral": "8db189ca996f3ba0d9860e22aa124fae97baf936",
        "concrete": "d982341d937faca898fb766cb89b05c5e52cc444",
    },
    "rbtree/universal": {
        "full": "a97d7ae78c6a4c93d4bd7dce2bbd024b852e3752",
        "abstract": "ecfc75505dbcb4c37a47c8262df27e2f0db12fef",
        "behavioral": "125dada2f661797f9ed93405fefbc6e90bf17e99",
        "concrete": "64bdc163f1a6f3b83195db5cc60a021b161d0ed3",
    },
    "sealing/laws": {
        "full": "ce5dfb231d85eed1cd2c4171486261eb93e8ed94",
        "abstract": "90ea0daa4d2108044e15b8e78a69d0a45aa4f984",
        "behavioral": "bd1cd2107d1daca3d6ee03e19a330a74c99e61da",
        "concrete": "bab3f7b7981c0f4da1bab0fac9b2865b62b4f61f",
    },
    "sorting/bounds": {
        "full": "269ec5f154f6e9048a1b98107695df4e0a013761",
        "abstract": "4915c5901e38360dfe953ca2879db78414e35a41",
        "behavioral": "e7ce435fd35d77362e3142afd4b02cb8fb83fac7",
        "concrete": "3a07eaeeeef4494257cc1bc67859069e049729e8",
    },
}


def test_every_suite_is_pinned() -> None:
    assert sorted(PINNED) == sorted(REGISTRY)


@pytest.mark.parametrize("mode", [m.value for m in EvaluationMode])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_hash(name: str, mode: str) -> None:
    report = REGISTRY[name](seed=SEED, iterations=ITERATIONS, mode=EvaluationMode(mode))
    assert hashlib.sha1(emit_json(report).encode()).hexdigest() == PINNED[name][mode]
