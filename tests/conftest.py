import pytest

from pwcalc import calculus


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    # every test starts with no pair in _checked_pair_spectrum's memo and no
    # triple in _checked_state_spectrum's, so that no count it pins depends
    # on which test ran before it
    monkeypatch.setattr(calculus, "_last_pair", None)
    monkeypatch.setattr(calculus, "_last_state", None)
