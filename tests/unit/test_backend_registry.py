"""Unit tests for the execution-backend registry."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.pro.backends import (
    BackendCapabilities,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    ThreadBackend,
    available_backends,
    backend_capabilities,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.pro.backends.registry import unregister_backend
from repro.pro.backends.sharedmem import SharedMemoryTransport
from repro.pro.machine import PROMachine
from repro.util.errors import ValidationError
from repro.util.timeouts import scale_timeout

BUILTINS = ("inline", "process", "sim", "thread")


def run_python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=scale_timeout(60))


@pytest.mark.parametrize("name", available_backends())
def test_builtins_subclass_their_base_class_with_its_defaults(name):
    backend = get_backend(name)
    assert isinstance(backend, ExecutionBackend)
    assert (backend.transport is None
            or isinstance(backend.transport, SharedMemoryTransport))
    assert backend.heal() is True  # nothing standing to heal
    backend.close()
    backend.close()  # idempotent


class TestRegistryLookups:
    def test_builtins_are_registered(self):
        names = available_backends()
        assert {"inline", "thread", "process"} <= set(names)

    def test_get_backend_builds_instances(self):
        assert isinstance(get_backend("inline"), InlineBackend)
        assert isinstance(get_backend("thread"), ThreadBackend)
        assert isinstance(get_backend("process"), ProcessBackend)

    def test_get_backend_forwards_options(self):
        backend = get_backend("process", shutdown_grace=1.5)
        assert backend.shutdown_grace == 1.5

    def test_unknown_name_rejected_with_choices(self):
        with pytest.raises(ValidationError, match="thread"):
            get_backend("gpu")

    def test_unknown_name_error_lists_every_builtin(self):
        # Built-ins not loaded yet are listed too: they are known by name.
        with pytest.raises(ValidationError) as excinfo:
            get_backend("gpu")
        listed = str(excinfo.value).split("registered backends: ")[1].split(", ")
        assert set(BUILTINS) <= set(listed)

    def test_capabilities_by_name(self):
        assert backend_capabilities("inline").multirank is False
        assert backend_capabilities("thread").multirank is True
        assert backend_capabilities("thread").shared_address_space is True
        process = backend_capabilities("process")
        assert process.multirank is True
        assert process.shared_address_space is False

    def test_capabilities_unknown_name(self):
        with pytest.raises(ValidationError):
            backend_capabilities("gpu")


class TestRegistration:
    def test_register_and_use_custom_backend(self):
        class EchoBackend(ExecutionBackend):
            name = "echo-test"
            capabilities = BackendCapabilities(multirank=False)

            def run(self, contexts, program, args, kwargs):
                return [program(ctx, *args, **kwargs) for ctx in contexts]

        register_backend("echo-test", EchoBackend, description="test backend")
        try:
            machine = PROMachine(1, backend="echo-test", seed=0)
            assert machine.run(lambda ctx: ctx.rank + 40).results == [40]
        finally:
            unregister_backend("echo-test")

    def test_duplicate_name_rejected_without_overwrite(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_backend("thread", ThreadBackend)

    def test_overwrite_allowed_explicitly(self):
        spec = register_backend(
            "thread-dup-test", ThreadBackend, description="first"
        )
        try:
            assert spec.description == "first"
            spec = register_backend(
                "thread-dup-test", ThreadBackend, description="second", overwrite=True
            )
            assert spec.description == "second"
        finally:
            unregister_backend("thread-dup-test")

    def test_factory_without_capabilities_rejected(self):
        with pytest.raises(ValidationError, match="BackendCapabilities"):
            register_backend("broken-test", lambda: object())

    def test_bad_names_rejected(self):
        with pytest.raises(ValidationError):
            register_backend("", ThreadBackend)
        with pytest.raises(ValidationError):
            register_backend(None, ThreadBackend)


class TestResolveBackend:
    def test_string_goes_through_registry(self):
        assert isinstance(resolve_backend("thread"), ThreadBackend)

    def test_instances_pass_through(self):
        backend = ThreadBackend()
        assert resolve_backend(backend) is backend

    def test_object_without_run_rejected(self):
        with pytest.raises(ValidationError):
            resolve_backend(object())

    def test_duck_typed_backend_rejected(self):
        class DuckBackend:
            name = "duck"
            capabilities = BackendCapabilities()

            def run(self, contexts, program, args, kwargs):
                return [program(ctx, *args, **kwargs) for ctx in contexts]

        with pytest.raises(ValidationError, match="ExecutionBackend"):
            resolve_backend(DuckBackend())
        with pytest.raises(ValidationError, match="ExecutionBackend"):
            PROMachine(1, backend=DuckBackend())

    def test_factory_building_a_duck_rejected(self):
        class DuckBackend:
            def run(self, contexts, program, args, kwargs):
                return []

        register_backend("duck-test", DuckBackend, capabilities=BackendCapabilities())
        try:
            with pytest.raises(ValidationError, match="ExecutionBackend"):
                resolve_backend("duck-test")
        finally:
            unregister_backend("duck-test")

    def test_options_forwarded_to_named_factories(self):
        backend = resolve_backend("process", shutdown_grace=1.5)
        assert backend.shutdown_grace == 1.5

    def test_unsupported_options_rejected_with_message(self):
        with pytest.raises(ValidationError, match="does not accept"):
            resolve_backend("thread", transport="sharedmem")

    def test_options_rejected_for_instances(self):
        with pytest.raises(ValidationError, match="by name"):
            resolve_backend(ThreadBackend(), transport="sharedmem")


class TestMachineIntegration:
    def test_machine_rejects_multirank_on_inline(self):
        with pytest.raises(ValidationError, match="n_procs == 1"):
            PROMachine(2, backend="inline")

    def test_machine_accepts_every_builtin_at_p1(self):
        for name in ("inline", "thread", "process"):
            machine = PROMachine(1, backend=name, seed=0)
            assert machine.run(lambda ctx: ctx.n_procs).results == [1]

    def test_repr_names_backend(self):
        assert "process" in repr(PROMachine(2, backend="process"))


class TestLazyLoading:
    """The registry imports a built-in's module at the first lookup of its name."""

    @pytest.mark.subprocess
    def test_stub_registered_before_first_use_stays(self):
        script = """if True:
            import sys
            from repro.pro.backends.registry import (
                BackendCapabilities, ExecutionBackend, backend_capabilities,
                get_backend, register_backend)

            class Stub(ExecutionBackend):
                capabilities = BackendCapabilities(multirank=False)

            register_backend("process", Stub, overwrite=True)
            assert "repro.pro.backends.process" not in sys.modules
            assert isinstance(get_backend("process"), Stub)
            import repro.pro.backends.process  # the built-in loads, and neither
            assert isinstance(get_backend("process"), Stub)  # clobbers nor raises
            assert backend_capabilities("process").multirank is False
        """
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr

    def test_unregistering_a_stubbed_builtin_restores_it(self):
        from repro.pro.backends.sim import SimBackend

        class Stub(ExecutionBackend):
            capabilities = BackendCapabilities(multirank=False)

        register_backend("sim", Stub, overwrite=True)
        try:
            assert isinstance(get_backend("sim"), Stub)
        finally:
            unregister_backend("sim")
        assert isinstance(get_backend("sim"), SimBackend)

    @pytest.mark.subprocess
    def test_builtin_name_is_taken_before_first_use(self):
        script = """if True:
            from repro.pro.backends.registry import register_backend
            from repro.pro.backends.thread import ThreadBackend
            from repro.util.errors import ValidationError
            try:
                register_backend("sim", ThreadBackend)
            except ValidationError as exc:
                assert "already registered" in str(exc)
            else:
                raise AssertionError("registered over a built-in name")
        """
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr

    def test_pool_export_stays_the_context_manager(self):
        import repro.pro.backends
        import repro.pro.backends.pool  # binds the package attribute to the module

        from repro.pro.backends import pool
        from repro.pro.backends.pool import pool as context_manager

        assert pool is context_manager
        assert repro.pro.backends.pool is context_manager

    def test_every_exported_name_resolves(self):
        import repro.pro
        import repro.pro.backends

        for package in (repro.pro, repro.pro.backends):
            for name in package.__all__:
                assert getattr(package, name) is not None, name
        with pytest.raises(AttributeError):
            repro.pro.backends.NoSuchBackend

    @pytest.mark.subprocess
    def test_thread_caller_never_loads_the_process_stack(self):
        script = """if True:
            import importlib.util, sys
            import numpy as np
            from repro.core.permutation import random_permutation

            process_path = {"repro.pro.backends." + name for name in
                            ("process", "pool", "sharedmem", "transport", "sim", "faults")}
            process_path |= {"multiprocessing", "multiprocessing.shared_memory", "cloudpickle"}
            out = random_permutation(np.arange(1000), n_procs=2, seed=1)
            assert sorted(out.tolist()) == list(range(1000))
            loaded = sorted(process_path & set(sys.modules))
            assert not loaded, loaded

            from repro.pro.machine import PROMachine
            machine = PROMachine(2, backend="process", seed=1)
            wanted = process_path - {"repro.pro.backends.sim", "repro.pro.backends.faults"}
            if importlib.util.find_spec("cloudpickle") is None:
                wanted.discard("cloudpickle")
            missing = sorted(wanted - set(sys.modules))
            assert not missing, missing  # loaded before any worker forks
            import multiprocessing
            assert multiprocessing.active_children() == []
            out = random_permutation(np.arange(1000), machine=machine)
            assert sorted(out.tolist()) == list(range(1000))
            machine.close()
        """
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.subprocess
    def test_spawned_ranks_import_the_process_path_by_name(self):
        # A spawned child inherits no modules: it imports the pool first,
        # which imports the process backend, which imports the pool back.
        backend = get_backend("process", start_method="spawn")
        assert backend.start_method == "spawn"
        machine = PROMachine(2, backend=backend, seed=3)
        try:
            from repro.core.permutation import random_permutation

            out = random_permutation(np.arange(200), machine=machine)
        finally:
            machine.close()
        assert np.array_equal(out, random_permutation(np.arange(200), n_procs=2, seed=3))
