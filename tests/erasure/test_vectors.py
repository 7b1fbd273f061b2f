"""Committed codec test vectors: the coded elements of fixed values.

Every backend is compared with every other one elsewhere, so a change that
moves them all together (another generator matrix, another frame layout,
another field polynomial) passes those tests and fails here by name.  The
file ``vectors.json`` beside this module holds, per ``[n, k]`` shape the
goldens and the benchmark run (SODA ``[6, 4]`` at 32 B and 64 KiB, the
``demo`` default ``[5, 3]``):

* the value, named by a seed string and a length (its bytes are
  ``shake_256(seed)``, so the file need not carry them);
* every coded element, in hex for short values and by SHA-256 digest for
  64 KiB ones;
* index sets the value must decode from (parity elements included);

and one SODAerr errors-and-erasures decode: ``k + 2e`` received elements,
``e`` of them corrupted, which must decode to the value.

Regenerate (only on purpose, and say why in CHANGES.md) with
``PYTHONPATH=src python tests/erasure/test_vectors.py --write``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.erasure.gf import GF256, available_backends
from repro.erasure.mds import CodedElement, corrupt
from repro.erasure.rs import ReedSolomonCode

VECTORS = Path(__file__).with_name("vectors.json")

#: Values longer than this are pinned by digest, not by their hex.
HEX_LIMIT = 256

#: name -> (n, k, value length).
SHAPES = {
    "soda-6-4-32B": (6, 4, 32),
    "soda-6-4-64KiB": (6, 4, 65536),
    "demo-5-3-32B": (5, 3, 32),
}

#: The SODAerr vector: the ``sodaerr`` sweep's ``n = 10, f = 2`` at
#: ``e = 2``, so ``k = n - f - 2e = 4``; elements 1 and 6 of the first
#: ``k + 2e`` are corrupted.
SODAERR = {"name": "sodaerr-10-4-e2-32B", "n": 10, "k": 4, "e": 2, "size": 32,
           "received": list(range(8)), "corrupted": [1, 6], "xor_mask": 0xA5}


def value_of(seed: str, size: int) -> bytes:
    return hashlib.shake_256(seed.encode()).digest(size)


def _pin(data: bytes) -> str:
    if len(data) <= HEX_LIMIT:
        return data.hex()
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _code(n: int, k: int, backend: str) -> ReedSolomonCode:
    return ReedSolomonCode(n, k, field=GF256(backend=backend))


def build(backend: str = "numpy") -> dict:
    """The vectors as ``backend`` computes them."""
    shapes = {}
    for name, (n, k, size) in SHAPES.items():
        elements = _code(n, k, backend).encode(value_of(name, size))
        shapes[name] = {
            "n": n,
            "k": k,
            "value": {"seed": name, "size": size},
            "elements": [_pin(element.data) for element in elements],
            "decode_from": [list(range(k)), list(range(n - k, n))],
        }
    spec = SODAERR
    code = _code(spec["n"], spec["k"], backend)
    elements = code.encode(value_of(spec["name"], spec["size"]))
    received = [
        corrupt(elements[i], spec["xor_mask"]) if i in spec["corrupted"] else elements[i]
        for i in spec["received"]
    ]
    return {
        "shapes": shapes,
        "sodaerr": {
            **spec,
            "value": {"seed": spec["name"], "size": spec["size"]},
            "received_elements": [_pin(element.data) for element in received],
        },
    }


@pytest.fixture(scope="module")
def vectors():
    return json.loads(VECTORS.read_text())


@pytest.fixture(params=available_backends())
def backend(request):
    return request.param


def check_coded_elements(backend: str = "native", names=tuple(SHAPES)) -> None:
    """``backend`` encodes the value of every named shape into exactly the
    committed elements (the default is the kill check of the kernels'
    C-source mutants)."""
    vectors = json.loads(VECTORS.read_text())
    for name in names:
        vector = vectors["shapes"][name]
        value = value_of(vector["value"]["seed"], vector["value"]["size"])
        elements = _code(vector["n"], vector["k"], backend).encode(value)
        assert [_pin(element.data) for element in elements] == vector["elements"], (
            f"{name}: the {backend} codec no longer produces the committed elements"
        )


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_coded_elements_match_the_vectors(backend, name):
    check_coded_elements(backend, [name])


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_vectors_decode_from_every_listed_index_set(vectors, backend, name):
    vector = vectors["shapes"][name]
    value = value_of(vector["value"]["seed"], vector["value"]["size"])
    code = _code(vector["n"], vector["k"], backend)
    elements = code.encode(value)
    for indices in vector["decode_from"]:
        assert code.decode([elements[i] for i in indices]) == value, (name, indices)
        if len(value) <= HEX_LIMIT:  # decode the committed bytes themselves
            committed = [
                CodedElement(i, bytes.fromhex(vector["elements"][i])) for i in indices
            ]
            assert code.decode(committed) == value, (name, indices)


def test_sodaerr_decode_corrects_the_injected_errors(vectors, backend):
    vector = vectors["sodaerr"]
    value = value_of(vector["value"]["seed"], vector["value"]["size"])
    received = [
        CodedElement(i, bytes.fromhex(data))
        for i, data in zip(vector["received"], vector["received_elements"])
    ]
    code = _code(vector["n"], vector["k"], backend)
    assert len(received) == vector["k"] + 2 * vector["e"]
    assert code.decode_with_errors(received, max_errors=vector["e"]) == value
    assert build(backend)["sodaerr"] == vector


def test_the_file_is_what_the_generator_writes(vectors):
    """The committed file has nothing the generator would not write."""
    assert vectors == build("numpy")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_vectors.py --write")
    VECTORS.write_text(json.dumps(build("numpy"), indent=1) + "\n")
    print(f"wrote {VECTORS}")
