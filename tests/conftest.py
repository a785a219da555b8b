import pytest

import conic_nf.cli
import conic_nf.descent
import conic_nf.solvability


@pytest.fixture
def check_calls(monkeypatch):
    """The list of check_solvable calls made while the test runs."""
    calls = []
    real = conic_nf.solvability.check_solvable

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (conic_nf.solvability, conic_nf.descent, conic_nf.cli):
        monkeypatch.setattr(module, "check_solvable", counted)
    return calls
