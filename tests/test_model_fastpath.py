"""Properties of the model-layer fast path (GUIDE §16).

The keyed :class:`FilterStore` behind every mailbox must realise
oldest-matching FIFO exactly: the oldest waiting getter of a key is
served first, each getter takes the oldest item filed under its key,
and a cancelled getter takes nothing.  Random scripts of puts, gets and
cancels are checked against a brute-force reference model.

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
    """A random interleaving of tagged puts, keyed gets and cancels.

    A ``("cancel", n)`` op withdraws the ``n``-th get posted so far
    (modulo their number); it may already have been served or
    cancelled.
    """
    tags = draw(st.integers(min_value=1, max_value=4))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "cancel"]),
            st.integers(min_value=0, max_value=tags - 1),
        ),
        min_size=1, max_size=40,
    ))
    return ops


def run_script(ops):
    """Execute one op per simulated second; log every completed get.

    Gets are posted without waiting (some legitimately never complete),
    so the log records the full observable behaviour: which getter got
    which item at which time, in completion order.
    """
    env = Environment()
    store = FilterStore(env, lambda item: item[0])
    served = []
    gets = []

    def driver(env):
        for i, (kind, tag) in enumerate(ops):
            if kind == "put":
                store.put((tag, i))
            elif kind == "cancel":
                if gets:
                    store.cancel(gets[tag % len(gets)])
            else:
                get = store.get(tag)
                gets.append(get)
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
    waits; each put offers the new item to the oldest matching waiter;
    a cancel withdraws its getter if it is still waiting.  The op at index ``i`` executes at time ``i`` (the driver above posts
    one op per second starting at 0) and events triggered at time ``t``
    run their callbacks at ``t`` without delay.
    """
    items = []    # (tag, seq), insertion order
    waiters = []  # (getter index, tag), registration order
    served = []
    gets = []     # getter indices, registration order
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
        elif kind == "cancel":
            if gets:
                target = gets[tag % len(gets)]
                waiters = [w for w in waiters if w[0] != target]
        else:
            gets.append(now)
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
def test_store_serves_oldest_matching_fifo(ops):
    """Oldest waiting getter first, each taking the oldest item filed
    under its key; a cancelled getter is skipped."""
    assert run_script(ops) == reference_serves(ops)


def test_keyed_get_api_validation():
    env = Environment()
    with pytest.raises(TypeError):
        FilterStore(env, "tag")            # the key must be a callable
    store = FilterStore(env, lambda item: item[0])
    with pytest.raises(TypeError):
        store.get()                        # every get names its key
