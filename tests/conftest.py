import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) replaces module.name by a wrapper counting
    its calls for the test's duration; returns [count]."""

    def install(module, name):
        count = [0]
        real = getattr(module, name)

        def counting(*args, **kwargs):
            count[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return count

    return install
