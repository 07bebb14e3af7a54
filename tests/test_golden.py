"""The CLI reproduces its recorded outputs byte for byte (timestamps aside).

The record is ``tests/golden/expected.json``, written by ``tests/make_golden.py``.
"""

import json

import pytest

from make_golden import CASES, EXPECTED, record

_EXPECTED = json.loads(EXPECTED.read_text())


def test_every_case_is_recorded():
    assert sorted(_EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    actual, expected = record(name), _EXPECTED[name]
    assert actual["exit"] == expected["exit"]
    assert actual["stdout"] == expected["stdout"]
    assert actual["stderr"] == expected["stderr"]
    assert actual["files"] == expected["files"]
