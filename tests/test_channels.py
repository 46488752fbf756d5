import time

import pytest

from dicbound.channels import (
    MAX_SHIFT2_ENTRIES,
    DeterministicChannel,
    builtin_channel,
    channel_from_dict,
    channel_to_dict,
    validate_channel,
)
from dicbound.errors import BudgetExceededError, ChannelFormatError, DicboundError


def test_xor2_valid_by_exhaustive_check(xor2):
    # oracle: all 4 (x, v) pairs per user map to distinct outputs per x
    for user in range(2):
        for x in range(2):
            outputs = {xor2.receive(user, x, (v,)) for v in range(2)}
            assert len(outputs) == 2
    report = validate_channel(xor2)
    assert report.valid and report.violations == ()


def test_constant_receive_map_is_invalid():
    # f_1(x_1, v_2) = x_1 ignores the interference entirely
    channel = DeterministicChannel(
        user_count=2,
        input_sizes=(2, 2),
        g=((0, 1), (0, 1)),
        f=((0, 0, 1, 1), tuple((x ^ v) for x in range(2) for v in range(2))),
    )
    report = validate_channel(channel)
    assert not report.valid
    users = {v[0] for v in report.violations}
    assert users == {1}
    # a collision at every own input of user 1
    assert {v[1] for v in report.violations} == {0, 1}


def test_concat3_valid_by_exhaustive_check(concat3):
    for user in range(3):
        for x in range(2):
            outs = {concat3.receive(user, x, (va, vb)) for va in range(2) for vb in range(2)}
            assert len(outs) == 4
    assert validate_channel(concat3).valid


def test_builtin_shift2_families_validate():
    for params in ([2, 2, 1], [3, 3, 2], [3, 3, 1], [3, 2, 1], [2, 1, 1]):
        assert validate_channel(builtin_channel("shift2", params)).valid


def test_shift2_parameter_constraints():
    with pytest.raises(DicboundError):
        builtin_channel("shift2", [2, 1, 2])  # cross above direct
    with pytest.raises(DicboundError):
        builtin_channel("shift2", [2, 3, 1])  # direct above width


def test_huge_shift2_is_refused_before_any_table_is_built():
    # 2^41 entries would never finish; the cap is checked on the exponents
    assert 1 << (8 + 4) <= MAX_SHIFT2_ENTRIES < 1 << (40 + 1)
    for params in ([40, 40, 1], [10**12, 1, 1]):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="above the cap"):
            builtin_channel("shift2", params)
        assert time.perf_counter() - start < 0.1
    with pytest.raises(BudgetExceededError):
        channel_from_dict({"family": "shift2", "params": [40, 40, 1]})


def test_unknown_family_rejected():
    with pytest.raises(DicboundError):
        builtin_channel("nosuch")


def test_validation_is_pure(shift2_221):
    first = validate_channel(shift2_221)
    second = validate_channel(shift2_221)
    assert first == second


def test_malformed_tables_raise_structural_error():
    with pytest.raises(ChannelFormatError):
        DeterministicChannel(user_count=2, input_sizes=(2, 2), g=((0,), (0, 1)), f=((0,) * 4,) * 2)
    with pytest.raises(ChannelFormatError):
        DeterministicChannel(
            user_count=2, input_sizes=(2, 2), g=((0, 1), (0, 1)), f=((0, 1, 1), (0, 1, 1, 0))
        )
    with pytest.raises(ChannelFormatError):
        channel_from_dict({"user_count": 2, "alphabet_sizes": [2, 2], "g": [[0, 1], [0, 1]]})


def test_numpy_integer_symbols_are_integers():
    import numpy as np

    table = tuple(np.int64(v) for v in (0, 1))
    channel = DeterministicChannel(
        user_count=np.int64(2),
        input_sizes=(np.int64(2), 2),
        g=(table, table),
        f=(tuple(np.int64(v) for v in (0, 1, 1, 0)),) * 2,
    )
    assert channel == builtin_channel("xor2")
    assert channel_from_dict({"family": "xor2", "params": []}) == channel
    assert channel_from_dict({"family": "shift2", "params": [np.int64(2), 2, 1]}) == builtin_channel(
        "shift2", [2, 2, 1]
    )


def test_channel_json_round_trip(shift2_332):
    doc = channel_to_dict(shift2_332)
    again = channel_from_dict(doc)
    assert again == shift2_332
    assert channel_from_dict({"family": "xor2"}) == builtin_channel("xor2")
