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
        "full": "9717d4489fcff0aff316a8ca66aebbb72aa8126f",
        "abstract": "37de702ded0dcf7a7007927654715dd560ba7caa",
        "behavioral": "0269ff4551fa702e650808bb4b1e84bde9b7b953",
        "concrete": "4cbeab9e9e209bb506e8ff1e7ce4570e38d92328",
    },
    "queues/noninterference": {
        "full": "48a738e3ec609daccaa980c87e9038234faf95c5",
        "abstract": "0d7afbc4a3f9f90735e12354e8e1f68ef4b56250",
        "behavioral": "52454387090157c03463ef27b65fc57b97c84abc",
        "concrete": "abdbe0839d958df747da6686a80299990c8dd566",
    },
    "rbtree/invariants": {
        "full": "4a657a4dc0fe0dbcf84bd7ef9c6f8950f6785bdf",
        "abstract": "6e4696ed75c4cecf904eb6b1767236a26d5924f5",
        "behavioral": "019bab690393d4569eb20efb2705e5766a0ac975",
        "concrete": "a77b5071a378291f111e7444bfc47cde03ce5902",
    },
    "rbtree/reduce": {
        "full": "4e417c2093c4324a96ca6f00cce3015dbbe1dde7",
        "abstract": "c532a025c6367537ec0cbb32e629cc14b8e35ba9",
        "behavioral": "bc10c8819bd9b036c8903e195fd9f0b80a60d404",
        "concrete": "bac1874d7923050d83af87638882c3789a22f55d",
    },
    "rbtree/universal": {
        "full": "eb565bb1e55b7cf24925177466a0b6513d950147",
        "abstract": "bb36705c42357055c8e3c764d06b4954c157072c",
        "behavioral": "b8cb2574311fc3b2f9dcb0eb6c2eebbe3a43b424",
        "concrete": "64bdc163f1a6f3b83195db5cc60a021b161d0ed3",
    },
    "sealing/laws": {
        "full": "07afcdd91cc8daf0e80ca8e3d75bc9c1f9abd068",
        "abstract": "c9cfc3ab614728cb53a73d521afcf3f03a85a0a9",
        "behavioral": "9141d6af5902a6ee41c03c6e2982ccc45aafed3a",
        "concrete": "401a6baa22fbe6d330b31ae154cad6388aa01161",
    },
    "sorting/bounds": {
        "full": "5ceaabb1f8edee742ee36d05b30021374721e402",
        "abstract": "e398719e7ed32f3c59a57ba1f25877b903466491",
        "behavioral": "7663b708f876d3a31d8173d90bf36e665b5efa87",
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
