"""The output contract: every call of the corpus prints what contract.txt pins."""

import contract


def test_every_call_prints_what_the_contract_pins():
    expected = contract.CONTRACT.read_text(encoding="utf-8").splitlines()
    found = contract.changes(expected, contract.lines())
    assert not found, "\n".join(found)
