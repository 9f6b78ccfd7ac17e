"""The switch controller against its switch-log reference, call by call.

`msrl.SwitchController` counts alternations from the last recorded choice and
the switch flags of the ones before it; `reference_policies.SwitchController`
counts them over a log of the choices themselves. Both are driven with the
same entropies, and every return value and every state field the reference
has must agree after each call.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_policies as ref
from vtmigsim import msrl

# Entropies drawn relative to the live threshold: at it, one ulp either side,
# anywhere in a range around it, or not finite.
KINDS = ("thr", "below", "above", "near", "any", "repeat", "nonfinite")


def state(c):
    return c.calls, c.server_calls, c.hold_remaining, c.thr, list(c.entropy_window)


@settings(max_examples=300, deadline=None)
@given(
    window=st.one_of(st.sampled_from([1, 2]), st.integers(3, 20)),
    hold=st.one_of(st.just(0), st.integers(1, 6)),
    flutter_limit=st.one_of(st.just(0), st.integers(1, 8)),
    thr0=st.sampled_from([0.0, 0.7, 1.3862943611198906]),
    change=st.sampled_from([0.0, 0.005, 0.1, 2.0**-20]),
    data=st.data(),
)
def test_controller_matches_the_switch_log_reference(window, hold, flutter_limit, thr0, change,
                                                     data):
    got = msrl.SwitchController(thr0, change, window, hold, flutter_limit)
    want = ref.SwitchController(thr0, change, window, hold, flutter_limit)
    previous = thr0
    for _ in range(data.draw(st.integers(1, 60))):
        kind = data.draw(st.sampled_from(KINDS))
        thr = want.thr
        if kind == "nonfinite":
            entropy = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            for c in (got, want):
                with pytest.raises(ValueError, match="entropy must be finite"):
                    c.select(entropy)
            assert state(got) == state(want)
            continue
        entropy = {
            "thr": thr,
            "below": math.nextafter(thr, -math.inf),
            "above": math.nextafter(thr, math.inf),
            "near": thr + data.draw(st.floats(-0.05, 0.05)),
            "any": data.draw(st.floats(0.0, 3.0)),
            "repeat": previous,
        }[kind]
        previous = entropy
        assert got.select(entropy) == want.select(entropy)
        assert state(got) == state(want)
