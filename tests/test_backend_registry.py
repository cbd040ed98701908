"""The backend registry: name-based dispatch behind ``repro.init``."""

import pytest

import repro
from repro.core.backend import (
    Backend,
    create_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.errors import BackendError


@pytest.fixture(autouse=True)
def _clean_runtime():
    yield
    if repro.is_initialized():
        repro.shutdown()
    unregister_backend("fake")


def test_builtin_backends_registered():
    names = registered_backends()
    assert "sim" in names and "local" in names and "proc" in names


def test_unknown_backend_lists_registered_names():
    with pytest.raises(BackendError) as excinfo:
        repro.init(backend="does-not-exist")
    message = str(excinfo.value)
    assert "does-not-exist" in message
    assert "sim" in message and "local" in message


def test_init_resolves_through_registry():
    from repro.core.runtime import SimRuntime
    from repro.local.runtime import LocalRuntime

    runtime = repro.init(backend="sim", num_cpus=1)
    assert isinstance(runtime, SimRuntime)
    repro.shutdown()
    runtime = repro.init(backend="local", num_cpus=1)
    assert isinstance(runtime, LocalRuntime)


def test_both_runtimes_satisfy_backend_protocol():
    from repro.core.runtime import SimRuntime
    from repro.local.runtime import LocalRuntime

    for cls in (SimRuntime, LocalRuntime):
        runtime = cls()
        try:
            assert isinstance(runtime, Backend)
        finally:
            runtime.shutdown()


def test_custom_backend_registration():
    created = {}

    class FakeRuntime:
        def __init__(self, **kwargs):
            created.update(kwargs)
            self.closed = False

        def shutdown(self):
            self.closed = True

    register_backend("fake", lambda: FakeRuntime)
    assert "fake" in registered_backends()
    runtime = repro.init(backend="fake", num_cpus=2)
    assert isinstance(runtime, FakeRuntime)
    assert "cluster" in created            # init's cluster shortcut applied
    repro.shutdown()
    assert runtime.closed


def test_create_backend_direct():
    from repro.core.runtime import SimRuntime

    runtime = create_backend("sim")
    try:
        assert isinstance(runtime, SimRuntime)
    finally:
        runtime.shutdown()


def test_register_backend_rejects_bad_name():
    with pytest.raises(ValueError):
        register_backend("", lambda: object)


@pytest.mark.parametrize("backend", ["local", "sim", "proc", "dist"])
def test_unknown_init_kwarg_rejected_with_name_and_options(backend):
    """Misspelled init options must fail loudly (they used to be silently
    swallowed by the local backend's ``**_ignored``), naming the offending
    kwarg and listing the backend's valid options.  ``dispatch_mode`` is
    no option anywhere: every backend has exactly one dispatch plane.
    Nor are ``control_shards`` (the live control store has one lock) and
    ``steal_policy``; ``placement_policy`` and ``spillover_policy`` are
    sim-only ablation options."""
    options = ["definitely_not_an_option", "dispatch_mode", "control_shards",
               "steal_policy"]
    if backend != "sim":
        options += ["placement_policy", "spillover_policy"]
    for option in options:
        with pytest.raises(BackendError) as excinfo:
            repro.init(backend=backend, **{option: "driver"})
        message = str(excinfo.value)
        assert option in message
        assert backend in message
        assert "valid options" in message
        assert "seed" in message             # every builtin accepts seed
        assert not repro.is_initialized()


def test_custom_backend_with_var_kwargs_skips_validation():
    class Sponge:
        def __init__(self, **kwargs):
            self.closed = False

        def shutdown(self):
            self.closed = True

    register_backend("fake", lambda: Sponge)
    runtime = repro.init(backend="fake", anything_goes=True)
    assert isinstance(runtime, Sponge)
    repro.shutdown()
