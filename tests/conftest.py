import numpy as np
import pytest


@pytest.fixture
def matrix_norm2_calls(monkeypatch):
    """Every 2-D array whose np.linalg.norm(X, 2), one full SVD, is taken in the test.

    Clear the list after set-up to count only the calls under test.
    """
    calls = []
    real = np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            calls.append(x)
        return real(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls
