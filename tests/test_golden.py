"""The analytic CLI reproduces its recorded outputs byte for byte (timestamps aside).

The record is ``tests/golden/expected.json``, written by ``tests/make_golden.py``.
"""

import json

import pytest

from make_golden import CASES, EXPECTED, run_case, strip_timestamp

_EXPECTED = json.loads(EXPECTED.read_text())


def test_every_case_is_recorded():
    assert sorted(_EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    code, out, err = run_case(CASES[name])
    expected = _EXPECTED[name]
    assert code == expected["exit"]
    assert strip_timestamp(out) == expected["stdout"]
    if code != 0:
        assert err.startswith("error: ")
