import os
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def _check_golden(name, text):
    """Compare ``text`` byte for byte with ``tests/golden/<name>``.

    Regenerate with SUPERCOMIN_WRITE_GOLDEN=1 after a reviewed change.
    """
    path = GOLDEN / name
    if os.environ.get("SUPERCOMIN_WRITE_GOLDEN"):
        GOLDEN.mkdir(exist_ok=True)
        path.write_bytes(text.encode())
    assert path.exists(), f"golden file {name} missing; set SUPERCOMIN_WRITE_GOLDEN=1"
    assert path.read_bytes() == text.encode()


@pytest.fixture
def check_golden():
    """The byte-for-byte golden comparison, for tests in any module."""
    return _check_golden


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, *names)`` wraps the named functions (or methods)
    of a module or class so that each call is counted, and returns the dict
    of counts by name, live; ``monkeypatch`` restores the originals."""

    def install(owner, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def wrapper(*args, __name=name, __original=getattr(owner, name),
                        **kwargs):
                calls[__name] += 1
                return __original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)
        return calls
    return install
