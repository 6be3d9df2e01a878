"""Size caps for exhaustive constructions, overridable via CATEND_SIZE_CAPS."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import InputError

ENV_VAR = "CATEND_SIZE_CAPS"


@dataclass(frozen=True)
class SizeCaps:
    """Bounds that keep every exhaustive check tractable.

    quantale_max: maximum number of elements in a quantale instance.
    finset_exp_max: maximum element count of a constructed set
        (exponentials, products, enumerated hom-sets).
    fincat_arrows_max: maximum number of arrows in a fincat document.
    """

    quantale_max: int = 32
    finset_exp_max: int = 32768
    fincat_arrows_max: int = 512


def caps_from_env() -> SizeCaps:
    """Apply CATEND_SIZE_CAPS overrides, e.g. "quantale=64,finset_exp=8192,fincat_arrows=1024"."""
    caps = SizeCaps()
    keys = [f.name.removesuffix("_max") for f in fields(SizeCaps)]
    for chunk in os.environ.get(ENV_VAR, "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, val = chunk.partition("=")
        key = key.strip()
        if not sep or key not in keys:
            raise InputError(f"bad {ENV_VAR} entry {chunk!r}; expected "
                             + ", ".join(f"{k}=N" for k in keys[:-1]) + f" or {keys[-1]}=N")
        try:
            n = int(val)
        except ValueError as exc:
            raise InputError(f"bad {ENV_VAR} value {val!r} for {key}") from exc
        if n < 1:
            raise InputError(f"{ENV_VAR} {key} must be positive")
        caps = replace(caps, **{f"{key}_max": n})
    return caps
