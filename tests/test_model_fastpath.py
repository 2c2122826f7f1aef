"""Equivalence properties of the model-layer fast path (GUIDE §16).

Two families of guarantees the speed pass must uphold:

- the keyed :class:`FilterStore` index is a pure lookup structure —
  any interleaving of puts and (keyed or predicate) gets serves exactly
  the same items to the same getters at the same times as the legacy
  predicate scan;
- both code paths implement oldest-matching FIFO semantics, checked
  against a brute-force reference model.

The CPU dispatch engine is pinned by golden run documents instead
(``tests/test_cpu_golden.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, FilterStore


# ------------------------------------------------------------------ stores
@st.composite
def store_scripts(draw):
    """A random interleaving of tagged puts and keyed/predicate gets."""
    tags = draw(st.integers(min_value=1, max_value=4))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["put", "get_key", "get_pred"]),
            st.integers(min_value=0, max_value=tags - 1),
        ),
        min_size=1, max_size=40,
    ))
    return ops


def run_script(ops, keyed):
    """Execute one op per simulated second; log every completed get.

    Gets are posted without waiting (some legitimately never complete),
    so the log records the full observable behaviour: which getter got
    which item at which time, in completion order.
    """
    env = Environment()
    store = FilterStore(env, key=(lambda item: item[0]) if keyed else None)
    served = []

    def driver(env):
        for i, (kind, tag) in enumerate(ops):
            if kind == "put":
                store.put((tag, i))
            else:
                if kind == "get_key" and keyed:
                    get = store.get(key=tag)
                else:
                    get = store.get(lambda m, t=tag: m[0] == t)
                get.callbacks.append(
                    lambda ev, i=i: served.append((i, ev._value, env.now)))
            yield env.timeout(1)

    env.process(driver(env))
    env.run()
    return served


def reference_serves(ops):
    """Brute-force oldest-matching FIFO model of the same script.

    Items live in insertion order; getters wait in registration order.
    A get is served immediately from the oldest matching item, else it
    waits; each put offers the new item to the oldest matching waiter.
    The op at index ``i`` executes at time ``i`` (the driver above posts
    one op per second starting at 0) and events triggered at time ``t``
    run their callbacks at ``t`` without delay.
    """
    items = []    # (tag, seq), insertion order
    waiters = []  # (getter index, tag), registration order
    served = []
    for now, (kind, tag) in enumerate(ops):
        if kind == "put":
            item = (tag, now)
            for w, (idx, wtag) in enumerate(waiters):
                if wtag == tag:
                    del waiters[w]
                    served.append((idx, item, now))
                    break
            else:
                items.append(item)
        else:
            for j, item in enumerate(items):
                if item[0] == tag:
                    del items[j]
                    served.append((now, item, now))
                    break
            else:
                waiters.append((now, tag))
    return served


@settings(max_examples=200, deadline=None)
@given(ops=store_scripts())
def test_keyed_store_equivalent_to_legacy_scan(ops):
    """The per-key index must be invisible: same serves, same order,
    same times as the legacy predicate scan — including scripts that mix
    keyed and predicate getters over the same tags."""
    assert run_script(ops, keyed=True) == run_script(ops, keyed=False)


@settings(max_examples=200, deadline=None)
@given(ops=store_scripts())
def test_store_serves_oldest_matching_fifo(ops):
    """Both implementations must realise oldest-matching FIFO exactly:
    oldest waiting getter first, each taking the oldest matching item."""
    expected = reference_serves(ops)
    assert run_script(ops, keyed=False) == expected
    assert run_script(ops, keyed=True) == expected


def test_keyed_get_api_validation():
    env = Environment()
    keyed = FilterStore(env, key=lambda item: item[0])
    legacy = FilterStore(env)
    with pytest.raises(ValueError):
        keyed.get(lambda m: True, key=1)   # mutually exclusive
    with pytest.raises(ValueError):
        legacy.get(key=1)                  # key= needs a keyed store
