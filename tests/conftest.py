"""Suite-wide check of the condition certificate.

Every condition report the suite makes with a finite certified bound s_bar
must read an estimate s_hat no higher than s_bar, up to the estimate's own
rounding.  In exact arithmetic s_hat <= s <= s_bar.  Over an exact Gram
shift s_bar is s itself and the estimate converges to s; the rounding of
its products, about eps times the condition number of M2, then decides
which of the two reads higher.  Over the suite s_hat reads at most 6.2e-11
relative above s_bar, on the row/column-sum Gram shifts of the Birkhoff
speed-up criterion, so the comparison allows 1e-9 relative.
"""

from dataclasses import dataclass

import pytest

from prepdhg import metrics

#: room for the estimate's own rounding, relative to s_bar
ESTIMATE_ROUNDING = 1e-9


@dataclass
class _CheckedReport(metrics.ConditionReport):
    def __post_init__(self):
        assert not self.s_hat > self.s_bar * (1 + ESTIMATE_ROUNDING), (
            f"estimate {self.s_hat!r} above its certificate {self.s_bar!r}")


@pytest.fixture(autouse=True, scope="session")
def _estimates_stay_below_their_certificates():
    real = metrics.ConditionReport
    metrics.ConditionReport = _CheckedReport
    yield
    metrics.ConditionReport = real
