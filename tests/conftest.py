import numpy as np
import pytest

import pkt.gradcheck


@pytest.fixture
def sign_flipped_gradient(monkeypatch):
    """A broken loss gradient for the gradient checker: the sign of its largest entry is flipped."""
    real = pkt.gradcheck.pkt_loss_and_grad

    def broken(*args, **kwargs):
        report = real(*args, **kwargs)
        idx = np.unravel_index(np.argmax(np.abs(report.grad_y)), report.grad_y.shape)
        report.grad_y[idx] = -report.grad_y[idx]
        return report

    monkeypatch.setattr(pkt.gradcheck, "pkt_loss_and_grad", broken)
