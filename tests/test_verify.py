"""The verification battery's registry of checks."""

import inspect

from pseudoquant import verify


def test_every_check_is_registered_once_in_definition_order():
    defined = [
        fn
        for name, fn in vars(verify).items()
        if name.startswith(("check_", "flag_")) and inspect.isfunction(fn)
    ]
    assert defined, "no check functions found"
    assert verify.ALL_CHECKS == defined
    assert len({id(fn) for fn in verify.ALL_CHECKS}) == len(verify.ALL_CHECKS)
