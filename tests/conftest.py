"""Suite-wide fixtures.

The artifact cache defaults to a real per-user directory
(``~/.cache/repro``); tests must never read or pollute it, so the whole
session runs against a throwaway store.  Individual tests that need their
own store construct an :class:`repro.cache.ArtifactCache` on a
``tmp_path`` explicitly.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    from repro.cache import configure

    root = tmp_path_factory.mktemp("artifact-cache")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    configure(dir=root)
    yield
    configure()  # re-resolve from the environment for any late users


@pytest.fixture(autouse=True)
def _fresh_plans():
    """Each test builds its own prepared plans: a test that patches a
    plan-time name (``generate_chunk_c``, ``THUNK_SUFFIX``,
    ``have_compiler``, ...) must reach its failure path, not a plan an
    earlier test built."""
    from repro.parallel.plan import drop_plans

    drop_plans()


@pytest.fixture
def compilerless(monkeypatch):
    """A host without a C compiler, as the runtime sees it: plans run the
    whole-slice numpy chunk where npgen accepts the body, else the
    scalar Python chunk."""
    from tests.parallel import pin_chunk_lang

    pin_chunk_lang(monkeypatch, "numpy")
