"""Scaling of call times to the reference host speed."""

import signal
import time

import pytest

from hostspeed import REF_PROBE_S, Sampler, ref_speed_s


def test_ref_speed_on_hand_built_probes():
    # Call [0, 10]. A probe ending at 2 took REF_PROBE_S (reference speed);
    # one ending at 6 took twice as long (half speed), and the stretch after
    # it keeps that scale. Each stretch loses its probe's own time.
    ref = REF_PROBE_S
    got = ref_speed_s(0.0, 10.0, [(2.0, ref), (6.0, 2 * ref)])
    assert got == pytest.approx((2.0 - ref) + (4.0 - 2 * ref) / 2 + 4.0 / 2)


def test_ref_speed_scales_up_on_a_faster_host():
    assert ref_speed_s(0.0, 4.0, [(2.0, REF_PROBE_S / 2)]) == pytest.approx(2 * (4.0 - REF_PROBE_S / 2))


def test_ref_speed_without_probes_is_the_measured_time():
    assert ref_speed_s(1.0, 4.0, []) == 3.0


def test_sampler_probes_while_running_and_stops():
    sampler = Sampler()
    sampler.start()
    end = time.perf_counter() + 0.1
    while time.perf_counter() < end:
        pass
    samples = sampler.stop()
    assert len(samples) >= 5
    assert all(d > 0 for _, d in samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
