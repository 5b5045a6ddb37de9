"""The probe bus: ``None`` / direct call / in-order fan-out."""

import pytest

from repro.kernel import Probes
from repro.kernel.probes import ARGUMENTS, POINTS


def test_unsubscribed_points_are_none():
    probes = Probes()
    assert all(getattr(probes, point) is None for point in POINTS)


def test_one_subscriber_is_called_directly():
    probes = Probes()

    def subscriber(mask):
        pass

    probes.subscribe(irq_raise=subscriber)
    assert probes.irq_raise is subscriber
    assert all(getattr(probes, point) is None
               for point in POINTS if point != "irq_raise")


def test_several_subscribers_fire_in_subscription_order():
    probes = Probes()
    calls = []
    probes.subscribe(port_issue=lambda port, request: calls.append(
        ("first", port, request)))
    probes.subscribe(port_issue=lambda port, request: calls.append(
        ("second", port, request)))
    probes.subscribe(port_issue=lambda port, request: calls.append(
        ("third", port, request)))
    probes.port_issue("p", "r")
    assert calls == [("first", "p", "r"), ("second", "p", "r"),
                     ("third", "p", "r")]


def test_unknown_point_raises_and_subscribes_nothing():
    probes = Probes()
    with pytest.raises(ValueError, match="cache_fill"):
        probes.subscribe(sync=print, cache_fill=print)
    assert probes.sync is None
    with pytest.raises(AttributeError):
        probes.cache_fill = print  # the point set is fixed


@pytest.mark.parametrize("point", POINTS)
def test_two_subscribers_get_the_points_arguments_in_order(point):
    probes = Probes()
    calls = []
    probes.subscribe(**{point: lambda *args: calls.append(("first", args))})
    probes.subscribe(**{point: lambda *args: calls.append(("second", args))})
    args = tuple(range(ARGUMENTS[point]))
    getattr(probes, point)(*args)
    assert calls == [("first", args), ("second", args)]
