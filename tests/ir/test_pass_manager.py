"""Pass manager: registration, pipelines, verification."""

import pytest

from repro.ir.diagnostics import IRError, VerificationError
from repro.ir.operation import ModuleOp, Operation
from repro.ir.pass_manager import (
    FunctionPass,
    Pass,
    PassManager,
    create_pass,
    register_pass,
    registered_pass_names,
)


class AppendPass(Pass):
    PASS_NAME = "test-append"

    def run(self, root):
        root.body.append(Operation(name="test.appended"))


def test_pipeline_runs_in_order():
    module = ModuleOp()
    order = []
    manager = PassManager()
    manager.add(FunctionPass("first", lambda root: order.append(1)))
    manager.add(FunctionPass("second", lambda root: order.append(2)))
    manager.run(module)
    assert order == [1, 2]


def test_add_pass_object():
    module = ModuleOp()
    PassManager().add(AppendPass()).run(module)
    assert module.body.operations[0].name == "test.appended"


def test_add_rejects_non_pass():
    with pytest.raises(IRError):
        PassManager().add(42)


def test_registry_roundtrip():
    # The compiler registers its passes on import.
    import repro.compiler  # noqa: F401

    names = registered_pass_names()
    assert "regex-factorize-alternations" in names
    assert "cicero-jump-simplification" in names
    instance = create_pass("cicero-dce")
    assert instance.PASS_NAME == "cicero-dce"


def test_create_unknown_pass():
    with pytest.raises(IRError):
        create_pass("no-such-pass")


def test_duplicate_registration_rejected():
    class Dup(Pass):
        PASS_NAME = "test-dup-pass"

        def run(self, root):
            pass

    register_pass(Dup)
    with pytest.raises(IRError):
        register_pass(Dup)


def test_verify_each_catches_broken_pass():
    class Breaker(Pass):
        PASS_NAME = "test-breaker"

        def run(self, root):
            # Create a structurally invalid regex.root (no branches).
            from repro.dialects.regex.ops import RootOp

            root.body.append(RootOp())

    manager = PassManager(verify_each=True)
    manager.add(Breaker())
    with pytest.raises(VerificationError):
        manager.run(ModuleOp())


def test_verification_can_be_disabled():
    class Breaker(Pass):
        PASS_NAME = "test-breaker-2"

        def run(self, root):
            from repro.dialects.regex.ops import RootOp

            root.body.append(RootOp())

    manager = PassManager(verify_each=False)
    manager.add(Breaker())
    manager.run(ModuleOp())  # does not raise
