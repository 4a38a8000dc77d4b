"""The variant catalog: every way this repo can build one chunk kernel.

ComPar-style (PAPERS.md #4): instead of hard-coding one flag set, the farm
enumerates candidate builds of the *same* chunk shape — gcc ``-O2`` and
``-O3``, the whole-slice numpy chunk, and the interpreted chunk — and the
calibrator (:mod:`repro.tuning.calibrate`) measures which one wins on this
host.  The catalog holds only what a supported host can build and what
has ever won a calibration: measure candidates, don't keep losers.
Every build is single-threaded: the calibrator times kernels in the
parent, and a libgomp thread team started there deadlocks the next
forked worker, so there is no in-chunk OpenMP build.

Availability is probed, never assumed: the compiled variants vanish on
compiler-less hosts, and the numpy variant requires the shape to pass
:mod:`repro.codegen.npgen`'s safety rules.  A host with no compiler at
all still has a farm: numpy + py.  A pinned decision naming a variant
that has since left the catalog resolves to the host default.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.cload import have_compiler

__all__ = [
    "Variant",
    "VARIANTS",
    "available_variants",
    "default_variant",
    "variant_by_name",
]


@dataclass(frozen=True)
class Variant:
    """One candidate build of a chunk kernel."""

    name: str
    lang: str  # "c" | "numpy" | "py"
    cc: str | None = None
    optimize: str = "-O2"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lang": self.lang,
            "cc": self.cc,
            "optimize": self.optimize,
        }


#: The full catalog, best-guess-first within each language.
VARIANTS: tuple[Variant, ...] = (
    Variant("gcc-O2", "c", cc="gcc", optimize="-O2"),
    Variant("gcc-O3", "c", cc="gcc", optimize="-O3"),
    Variant("numpy", "numpy"),
    Variant("py", "py"),
)

_BY_NAME = {v.name: v for v in VARIANTS}


def variant_by_name(name: str) -> Variant:
    """Catalog lookup; raises ``ValueError`` for unknown names."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown variant {name!r} (known: {', '.join(_BY_NAME)})"
        ) from None


def _normalize_names(names) -> list[str] | None:
    """Accept a comma string, an iterable of names, ``"all"``, or None."""
    if names is None:
        return None
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    names = list(names)
    if names in ([], ["all"]):
        return None
    for n in names:
        variant_by_name(n)
    return names


def available_variants(lang: str = "auto", names=None) -> list[Variant]:
    """The candidate set on *this* host for a requested chunk language.

    ``lang`` restricts by language the way ``chunk_lang`` does: ``"c"`` →
    compiled variants only, ``"numpy"`` → numpy (plus the py floor),
    ``"py"`` → py only, ``"auto"`` → everything.  ``names`` (list or comma
    string) instead selects an explicit subset — explicit names override
    the language restriction (``variants="numpy"`` forces the numpy build
    even where the resolved language is ``"c"``); unknown names raise,
    requested-but-unavailable names are silently dropped (a pinned gcc
    decision must not crash a compiler-less host).
    """
    wanted = _normalize_names(names)
    out: list[Variant] = []
    for v in VARIANTS:
        if wanted is not None:
            if v.name not in wanted:
                continue
        elif (
            (lang == "py" and v.lang != "py")
            or (lang == "numpy" and v.lang == "c")
            or (lang == "c" and v.lang != "c")
        ):
            continue
        if v.lang == "c" and not have_compiler(v.cc):
            continue
        out.append(v)
    return out


def default_variant(lang: str) -> Variant:
    """The no-calibration default build for a resolved chunk language.

    This is exactly what the runtime built before the farm existed: the
    first available ``-O2`` compile for ``"c"``, the numpy chunk for
    ``"numpy"``, the interpreted chunk otherwise.
    """
    if lang == "c":
        for v in VARIANTS:
            if v.lang == "c" and v.optimize == "-O2":
                if have_compiler(v.cc):
                    return v
    if lang == "numpy":
        return _BY_NAME["numpy"]
    return _BY_NAME["py"]
