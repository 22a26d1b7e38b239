"""Exact-arithmetic laboratory for loop-weighted walks."""

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every lru_cache in the loaded modules of the package.

    The caches hold engine output, not results derived from it, and live
    as long as the process. Each sits behind one budget guard at its
    reader, or needs none (core._step_code, laces._lace_terms), so a job
    is refused cached or not. Most are unbounded; the importance sample set
    (sampling._importance_samples, the last one drawn), the transfer
    engine's loop-count rows (enumeration._packed_rows, 16 (n, d) entries)
    and laces._lace_terms (32 entries) are bounded. A module never imported
    has none filled, so only loaded ones are walked.
    """
    import sys

    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
