"""Shared fixture builders for the test suite."""

import pytest

from lpacket.chars import BaseFieldData
from lpacket.params import (
    SKEW,
    GroupTag,
    Summand,
    mk_parameter,
)
from lpacket.recipe import GGPContext
from lpacket.theta import theta_up1_param


def required_sign(n):
    return +1 if n % 2 == 1 else -1


def make_gctx(n, omega=-1, identify_chi=False):
    return GGPContext.standard(n, BaseFieldData(omega), identify_chi=identify_chi)


def make_phi1(n, labels=("A", "B", "C", "D", "E")):
    """Supercuspidal-packet parameter: dims 1,...,1,rest over the labels."""
    req = required_sign(n)
    k = min(len(labels), n)
    dims = [1] * (k - 1) + [n - k + 1]
    blocks = [Summand(lbl, d, req) for lbl, d in zip(labels, dims)]
    return mk_parameter(
        blocks, GroupTag.standard(n, SKEW), supercuspidal_packet=True
    )


def make_phi2_opaque(n, label="C"):
    req = required_sign(n)
    return mk_parameter(
        [Summand(label, n, req)], GroupTag.standard(n, SKEW)
    )


def make_phi_from(phi2, gctx):
    return theta_up1_param(phi2, gctx.up1_recovery())


class LoggingBackend:
    """Reference wrapper that logs every (key, sign) consultation in order:
    the audit of ggp-report/1, before ``RecordingBackend`` counted repeats."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def sign(self, key):
        value = self.inner.sign(key)
        self.calls.append((key, value))
        return value


@pytest.fixture
def gctx3():
    return make_gctx(3)


@pytest.fixture
def fixture3(gctx3):
    phi1 = make_phi1(3, labels=("A", "B"))
    phi2 = make_phi2_opaque(3)
    phi = make_phi_from(phi2, gctx3)
    return gctx3, phi1, phi2, phi
