"""Open-system simulation of a driven condensate coupled to a lossy cavity."""

__version__ = "0.1.0"

#: public names and their modules, imported on first access (PEP 562), so
#: that importing the package alone loads no NumPy
_EXPORTS = {"DickeParams": "params", "PhysicalParams": "params",
            "map_to_dicke": "params", "MeanFieldState": "meanfield",
            "critical_coupling": "meanfield"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
