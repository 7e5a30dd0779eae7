"""Every loaded test module binds helpers from its own directory.

pytest imports each directory's ``conftest.py`` as the one module
``conftest``, so ``from conftest import build_exam`` binds whichever
directory's was imported last: with ``pytest tests/store tests/readmodel``
on one command line the store tests got the read model's exam (four
choice items, a true/false and an essay, not three choice items).  The
shared builders live in uniquely named modules (``store_helpers``,
``readmodel_helpers``); this probe fails if any collected test module
holds a function defined in another test directory.
"""

import inspect
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent


def test_loaded_test_modules_bind_their_own_directorys_helpers():
    here = Path(__file__).resolve()
    scanned = []
    foreign = []
    for module in list(sys.modules.values()):
        source = getattr(module, "__file__", None)
        if not source:
            continue
        path = Path(source).resolve()
        if TESTS not in path.parents:
            continue
        scanned.append(path)
        for name, value in vars(module).items():
            if not inspect.isfunction(value):
                continue
            defined = Path(value.__code__.co_filename).resolve()
            if TESTS in defined.parents and defined.parent != path.parent:
                foreign.append(f"{path.name}.{name} from {defined}")
    assert here in scanned  # the scan sees the collected modules
    assert not foreign, foreign
