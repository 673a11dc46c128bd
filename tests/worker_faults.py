"""Misbehaving supervised workers, for tests that need real processes.

The package has no fault hook: a test monkeypatches
``supervisor._run_shard`` in the parent and scans with
``Engine(mp_context="fork")``, so the forked workers inherit the patch.
"""

import os
import time

from repro.engine import supervisor


def misbehave(monkeypatch, shards, fault, once=None):
    """Forked workers run ``fault(data)`` in place of the matcher on
    every shard in ``shards``: on each attempt, or — given a file path
    ``once`` — only on the attempt that creates that file."""
    run_shard = supervisor._run_shard

    def patched(match_fn, index, data):
        if index in shards and (once is None or _create(once)):
            match_fn = fault
        return run_shard(match_fn, index, data)

    monkeypatch.setattr(supervisor, "_run_shard", patched)


def _create(path) -> bool:
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def fail(data):
    raise RuntimeError("injected worker fault")


def hang(data):
    time.sleep(3600)


def die(data):
    os._exit(86)
