"""Stream factory: reproducibility, isolation, replay."""
import numpy as np
import pytest

from isacsim.seeds import (
    HOP_BACKGROUND,
    HOP_TARGET_RX,
    HOP_TX_TARGET,
    SCOPE_COEFF,
    SCOPE_CONCAT,
    RandomStreams,
)


def test_slots_are_distinct():
    slots = [HOP_TX_TARGET, HOP_TARGET_RX, HOP_BACKGROUND, SCOPE_CONCAT, SCOPE_COEFF]
    assert slots == [0, 1, 2, 3, 4]


def test_same_context_replays_identical_values():
    s = RandomStreams(42, drop=3, hop=1)
    a = s.stream("delays").random(16)
    b = s.stream("delays").random(16)
    np.testing.assert_array_equal(a, b)


def test_two_factories_with_same_seed_agree():
    a = RandomStreams(123, drop=7, hop=2).stream("phases").standard_normal(8)
    b = RandomStreams(123, drop=7, hop=2).stream("phases").standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_tags_give_independent_streams():
    s = RandomStreams(5)
    a = s.stream("delays").random(32)
    b = s.stream("powers").random(32)
    assert not np.array_equal(a, b)


def test_drop_hop_and_seed_all_separate_streams():
    base = RandomStreams(9, drop=0, hop=0)
    v0 = base.stream("x").random(8)
    assert not np.array_equal(v0, RandomStreams(9, drop=1).stream("x").random(8))
    assert not np.array_equal(v0, base.scoped(1).stream("x").random(8))
    assert not np.array_equal(v0, RandomStreams(10).stream("x").random(8))


def test_scoped_keeps_drop_for_drop_resets_hop():
    s = RandomStreams(4, drop=6, hop=2)
    assert s.scoped(3).drop == 6
    assert s.scoped(3).hop == 3
    assert RandomStreams(4, drop=9).drop == 9
    assert RandomStreams(4, drop=9).hop == 0


def test_draw_order_between_streams_does_not_matter():
    s1 = RandomStreams(77, drop=1)
    a_first = s1.stream("a").random(4)
    b_after = s1.stream("b").random(4)

    s2 = RandomStreams(77, drop=1)
    b_first = s2.stream("b").random(4)
    a_after = s2.stream("a").random(4)
    np.testing.assert_array_equal(a_first, a_after)
    np.testing.assert_array_equal(b_after, b_first)


def test_negative_components_rejected():
    with pytest.raises(ValueError):
        RandomStreams(-1)
    with pytest.raises(ValueError):
        RandomStreams(0, drop=-2)
    with pytest.raises(ValueError):
        RandomStreams(0, drop=0, hop=-1)
