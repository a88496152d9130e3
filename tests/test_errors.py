"""Every package error survives a pickle round trip, as a fold worker's must."""

import pickle

import pytest

from nextaction import errors

CASES = [
    errors.NextactionError("no scoreable sequences"),
    errors.MalformedRecordError(3, "bad"),
    errors.MalformedRecordError(12, "short header", unit="byte"),
    errors.ConfigError("bad value"),
    errors.UnfittedModelError("no observations"),
    errors.NumericalFaultError("epoch 1: non-finite training loss"),
]


def _subclasses(cls):
    return {cls}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


def test_every_error_type_has_a_case():
    assert {type(exc) for exc in CASES} == _subclasses(errors.NextactionError)


@pytest.mark.parametrize("exc", CASES, ids=lambda exc: f"{type(exc).__name__}-{exc}")
def test_round_trip_keeps_type_message_and_fields(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
