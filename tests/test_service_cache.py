"""Result cache: keying, hit/miss accounting, TTL expiry, LRU eviction.

The key cases call the one result key with no request (the table-level
submission path), where the configuration and function pool always fold in.
"""

from __future__ import annotations

import pytest

from repro.core import identity_configuration, overlap_configuration
from repro.dataio import Schema, Table, read_csv_text
from repro.service import ResultCache, request_idempotency_key


def idempotency_key(source, target, config, registry_names=None):
    return request_idempotency_key(None, source, target, config=config,
                                   registry_names=registry_names)


@pytest.fixture
def pair():
    source = read_csv_text("id,val\n1,100\n2,200\n3,300\n")
    target = read_csv_text("id,val\n1,1\n2,2\n3,3\n")
    return source, target


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# idempotency key
# --------------------------------------------------------------------- #
def test_key_is_deterministic(pair):
    source, target = pair
    config = identity_configuration()
    assert idempotency_key(source, target, config) == idempotency_key(
        source, target, config
    )


def test_key_depends_on_table_content(pair):
    source, target = pair
    config = identity_configuration()
    other_target = read_csv_text("id,val\n1,1\n2,2\n3,4\n")
    assert idempotency_key(source, target, config) != idempotency_key(
        source, other_target, config
    )


def test_key_depends_on_direction(pair):
    source, target = pair
    config = identity_configuration()
    assert idempotency_key(source, target, config) != idempotency_key(
        target, source, config
    )


def test_key_depends_on_comparable_config_fields(pair):
    source, target = pair
    assert idempotency_key(source, target, identity_configuration()) != \
        idempotency_key(source, target, overlap_configuration())
    assert idempotency_key(source, target, identity_configuration(seed=0)) != \
        idempotency_key(source, target, identity_configuration(seed=1))


def test_key_ignores_observer_callbacks(pair):
    source, target = pair
    plain = identity_configuration()
    observed = identity_configuration().with_overrides(
        progress_callback=lambda p: None, should_stop=lambda: False
    )
    assert idempotency_key(source, target, plain) == idempotency_key(
        source, target, observed
    )


def test_key_is_unambiguous_for_separator_characters():
    # A digest that joined cells with a separator would make ("a\x1fb", "c")
    # and ("a", "b\x1fc") collide; the JSON encoding keeps cell boundaries.
    config = identity_configuration()
    left = Table(Schema(["x", "y"]), [("a\x1fb", "c")])
    right = Table(Schema(["x", "y"]), [("a", "b\x1fc")])
    target = Table(Schema(["x", "y"]), [("1", "2")])
    assert idempotency_key(left, target, config) != idempotency_key(
        right, target, config
    )


def test_key_depends_on_registry_names(pair):
    source, target = pair
    config = identity_configuration()
    assert idempotency_key(source, target, config) != idempotency_key(
        source, target, config, registry_names=("identity",)
    )


# --------------------------------------------------------------------- #
# cache behaviour
# --------------------------------------------------------------------- #
def test_get_miss_then_hit():
    cache = ResultCache(max_entries=4)
    assert cache.get("k") is None
    cache.put("k", "value")
    assert cache.get("k") == "value"
    stats = cache.stats()
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.size == 1
    assert stats.hit_rate == pytest.approx(0.5)


def test_lru_eviction_order():
    cache = ResultCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refresh 'a'; 'b' is now LRU
    cache.put("c", 3)
    assert cache.get("b") is None       # evicted
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats().evictions == 1


def test_put_existing_key_updates_without_eviction():
    cache = ResultCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    assert cache.get("a") == 10
    assert cache.get("b") == 2
    assert cache.stats().evictions == 0


def test_ttl_expiry():
    clock = FakeClock()
    cache = ResultCache(max_entries=4, ttl_seconds=10.0, clock=clock)
    cache.put("k", "value")
    clock.advance(9.0)
    assert cache.get("k") == "value"
    clock.advance(2.0)
    assert cache.get("k") is None
    stats = cache.stats()
    assert stats.expirations == 1
    assert stats.size == 0


def test_clear_and_len():
    cache = ResultCache(max_entries=4)
    cache.put("a", 1)
    cache.put("b", 2)
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0
    assert cache.get("a") is None


def test_constructor_validation():
    with pytest.raises(ValueError):
        ResultCache(max_entries=0)
    with pytest.raises(ValueError):
        ResultCache(ttl_seconds=0.0)
    with pytest.raises(ValueError):
        ResultCache(ttl_seconds=-1.0)
