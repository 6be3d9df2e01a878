"""Size caps for exhaustive constructions, overridable via CATEND_SIZE_CAPS."""

from __future__ import annotations

import os
from dataclasses import dataclass

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
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return caps
    values = {"quantale": caps.quantale_max, "finset_exp": caps.finset_exp_max,
              "fincat_arrows": caps.fincat_arrows_max}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, val = chunk.partition("=")
        key = key.strip()
        if not sep or key not in values:
            raise InputError(f"bad {ENV_VAR} entry {chunk!r}; "
                             "expected quantale=N, finset_exp=N or fincat_arrows=N")
        try:
            values[key] = int(val)
        except ValueError as exc:
            raise InputError(f"bad {ENV_VAR} value {val!r} for {key}") from exc
        if values[key] < 1:
            raise InputError(f"{ENV_VAR} {key} must be positive")
    return SizeCaps(quantale_max=values["quantale"], finset_exp_max=values["finset_exp"],
                    fincat_arrows_max=values["fincat_arrows"])
