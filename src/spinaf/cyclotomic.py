"""A name kept for spinbench's tracer, which looks up
``spinaf.cyclotomic.lift_power_sign``; the function lives in :mod:`spinaf.fp`."""


def __getattr__(name: str):
    if name == "lift_power_sign":
        from . import fp

        return fp.lift_power_sign
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
