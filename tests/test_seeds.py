"""Stream factory: reproducibility, isolation, replay, bulk keys."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim.config import validate_config
from isacsim.runner import concat_study, run
from isacsim.seeds import (
    HOP_BACKGROUND,
    HOP_TARGET_RX,
    HOP_TX_TARGET,
    PIPELINE_TAGS,
    SCOPE_COEFF,
    SCOPE_CONCAT,
    RandomStreams,
    _tag_id,
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


# ------------------------------------------------ bulk keys and fallbacks

KEYS = settings(derandomize=True, database=None, deadline=None, max_examples=40)
# small values, the one/two-word boundary at 2**32 and the whole uint64 range
u64 = st.one_of(st.integers(0, 300), st.integers(2**32 - 70, 2**32 + 70),
                st.integers(0, 2**64 - 1))


def seed_sequence_generator(seed, drop, hop, tag):
    """The generator every stream was built as before keys were derived in bulk."""
    entropy = [seed, drop, hop, _tag_id(tag)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@KEYS
@given(u64, u64, st.integers(0, 4))
@example(0, 0, 0)
@example(2**64 - 1, 2**64 - 1, 4)
@example(2**32 - 1, 2**32, 2)
def test_bulk_keys_equal_seed_sequence_keys(seed, drop, scope):
    streams = RandomStreams(seed, drop=drop, hop=scope)
    for tag in PIPELINE_TAGS:
        got = streams.stream(tag)
        want = seed_sequence_generator(seed, drop, scope, tag)
        assert not isinstance(got.bit_generator.seed_seq, np.random.SeedSequence)
        np.testing.assert_array_equal(got.bit_generator.state["state"]["key"],
                                      want.bit_generator.state["state"]["key"])
        np.testing.assert_array_equal(got.random(2), want.random(2))


@KEYS
@given(st.one_of(st.integers(2**64, 2**80), st.integers(0, 2**64 - 1)), u64,
       st.integers(0, 6), st.sampled_from(PIPELINE_TAGS + ("x", "a")))
@example(2**64, 0, 0, "delays")
@example(5, 0, 0, "x")
def test_fallback_streams_draw_as_before(seed, drop, hop, tag):
    """A seed or drop of 2**64 or more, a scope past 4 or an ad hoc tag takes
    SeedSequence itself, with the same draws."""
    got = RandomStreams(seed, drop=drop, hop=hop).stream(tag)
    bulk = max(seed, drop) < 2**64 and hop < 5 and tag in PIPELINE_TAGS
    assert isinstance(got.bit_generator.seed_seq, np.random.SeedSequence) is not bulk
    np.testing.assert_array_equal(got.random(4),
                                  seed_sequence_generator(seed, drop, hop, tag).random(4))


def test_every_pipeline_stream_has_a_bulk_key(tmp_path, monkeypatch):
    """A bistatic and a mono-static concat-study, and a run with a B1 table,
    background and CIR, ask only for (scope, tag) pairs of the bulk table,
    and between them for every tag in it."""
    asked = set()
    real = RandomStreams.stream

    def spy(self, tag):
        asked.add((self.hop, tag))
        return real(self, tag)

    monkeypatch.setattr(RandomStreams, "stream", spy)
    b1 = tmp_path / "b1.tbl"
    b1.write_text("-180 1.0\n0 0.5\n180 1.0\n", encoding="utf-8")
    for i, (entry, text) in enumerate((
        (concat_study, "frequency_hz = 6e9\ndrops = 6\n"),
        (concat_study, "frequency_hz = 6e9\ndrops = 6\nsensing_mode = monostatic\n"),
        (run, f"frequency_hz = 6e9\ndrops = 2\nconcat_case = Case3N\nrcs.b1_table = {b1}\n"
              "rcs.b2_std_db = 3\npolarization.mode = full\nbackground.enabled = true\n"
              "conditions.tx_target = LOS\nconditions.background = LOS\n"),
    )):
        entry(validate_config(text), str(tmp_path / f"out{i}"))
    assert asked <= {(scope, tag) for scope in range(5) for tag in PIPELINE_TAGS}
    assert {tag for _, tag in asked} == set(PIPELINE_TAGS)


@pytest.mark.parametrize("bad", [1.9, 1.0, np.float64(2.0), True, np.bool_(False), "3", None])
def test_non_integral_components_rejected(bad):
    for args in ((bad,), (0, bad), (0, 0, bad)):
        with pytest.raises(TypeError):
            RandomStreams(*args)


def test_numpy_integer_components_accepted():
    s = RandomStreams(np.int64(7), drop=np.uint32(3), hop=np.int8(1))
    assert (s.master_seed, s.drop, s.hop) == (7, 3, 1)
    assert all(type(v) is int for v in (s.master_seed, s.drop, s.hop))
    np.testing.assert_array_equal(s.stream("delays").random(4),
                                  RandomStreams(7, 3, 1).stream("delays").random(4))
