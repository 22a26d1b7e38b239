"""Exact-arithmetic laboratory for loop-weighted walks."""

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every lru_cache in the loaded modules of the package (README
    lists them). A module never imported has none filled, so only loaded
    ones are walked."""
    import sys

    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
