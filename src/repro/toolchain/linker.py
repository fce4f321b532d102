"""Linker size model: dynamic, static and Wasm binary sizes per application.

Regenerates Table 2 of the paper.  Every benchmark application is described by
an :class:`ApplicationProfile` (its own object-code size, whether it is C++,
how much of the C library it references); the three linking strategies then
assemble the totals:

* ``dynamic``  = application code + ELF/PLT overhead,
* ``static``   = dynamic + every statically linked archive's contribution,
* ``wasm``     = application code x Wasm code density + included wasi-libc
  (and C++ runtime) + module overhead.  MPI contributes nothing -- it is
  imported from the embedder.

The profiles are calibrated against the applications the paper measures
(Intel MPI Benchmarks, HPCG, IOR, NPB IS and DT); the point the model
preserves is the *structure* of the comparison: Wasm binaries land within a
factor of a few of the dynamically linked binaries (sometimes larger, because
they must include libc), while statically linked binaries are two orders of
magnitude larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.toolchain import libraries as libs
from repro.toolchain.libraries import KIB, MIB

#: Ratio of Wasm code bytes to native x86_64 code bytes for the same source
#: (Wasm's compact encoding roughly offsets its stack-machine redundancy).
WASM_CODE_DENSITY = 0.92


@dataclass(frozen=True)
class ApplicationProfile:
    """Link-relevant description of one benchmark application."""

    name: str
    object_code_size: int               # the application's own compiled code (native)
    is_cpp: bool = False
    uses_stdio_heavily: bool = False    # pulls the full stdio/printf machinery into wasi-libc
    extra_static_libraries: Tuple[str, ...] = ()
    wasm_data_segments: int = 8 * KIB   # embedded tables/strings in the Wasm binary
    #: Wasm object-code size when it differs from ``object_code_size * density``
    #: (C++ templates inflate it, dead-code elimination of unused backends
    #: shrinks it); ``None`` means "use the density model".
    wasm_object_code_size: Optional[int] = None
    #: Additional statically included Wasm runtime pieces (e.g. libm objects).
    wasm_extra_runtime: int = 0

    def static_library_names(self) -> Tuple[str, ...]:
        """Archives a static native link of this application pulls in."""
        names = list(libs.BASE_MPI_STACK)
        if self.is_cpp:
            names.extend(libs.CPP_EXTRA)
        names.extend(self.extra_static_libraries)
        return tuple(names)


@dataclass(frozen=True)
class LinkSizes:
    """The three artefact sizes for one application (bytes)."""

    application: str
    dynamic: int
    static: int
    wasm: int

    @property
    def static_to_wasm_ratio(self) -> float:
        """How many times smaller the Wasm binary is than the static binary."""
        return self.static / self.wasm if self.wasm else float("inf")

    @property
    def wasm_larger_than_dynamic(self) -> bool:
        """Whether the Wasm binary is larger than the dynamic native binary."""
        return self.wasm > self.dynamic

    def row(self) -> Dict[str, float]:
        """Table-2 style row (KiB / MiB / KiB)."""
        return {
            "application": self.application,
            "native_dynamic_kib": self.dynamic / KIB,
            "native_static_mib": self.static / MIB,
            "wasm_kib": self.wasm / KIB,
            "static_to_wasm_ratio": self.static_to_wasm_ratio,
        }


class LinkerModel:
    """Computes the three link strategies for application profiles."""

    def __init__(self, libraries: Optional[Dict[str, libs.StaticLibrary]] = None):
        self.libraries = dict(libraries or libs.NATIVE_LIBRARIES)

    # ------------------------------------------------------------------ pieces

    def dynamic_size(self, app: ApplicationProfile) -> int:
        """Dynamically linked native executable size."""
        return app.object_code_size + libs.dynamic_link_overhead()

    def static_size(self, app: ApplicationProfile) -> int:
        """Statically linked native executable size."""
        total = self.dynamic_size(app) + libs.static_link_overhead()
        for name in app.static_library_names():
            lib = self.libraries.get(name)
            if lib is None:
                raise KeyError(f"unknown static library {name!r}")
            total += lib.contribution()
        return total

    def wasm_size(self, app: ApplicationProfile) -> int:
        """Wasm module size produced by the customised WASI-SDK toolchain."""
        if app.wasm_object_code_size is not None:
            total = app.wasm_object_code_size
        else:
            total = int(app.object_code_size * WASM_CODE_DENSITY)
        total += libs.wasm_module_overhead()
        total += app.wasm_data_segments
        total += (libs.WASI_LIBC_FULL_STDIO if app.uses_stdio_heavily else libs.WASI_LIBC).included_size
        total += app.wasm_extra_runtime
        if app.is_cpp:
            total += libs.WASM_CXX_RUNTIME.included_size
        return total

    def link(self, app: ApplicationProfile) -> LinkSizes:
        """All three sizes for one application."""
        return LinkSizes(
            application=app.name,
            dynamic=self.dynamic_size(app),
            static=self.static_size(app),
            wasm=self.wasm_size(app),
        )

    def link_all(self, apps: Iterable[ApplicationProfile]) -> List[LinkSizes]:
        """Sizes for a set of applications (one Table-2 row each)."""
        return [self.link(app) for app in apps]

    @staticmethod
    def average_static_to_wasm_ratio(rows: Iterable[LinkSizes]) -> float:
        """The headline "139.5x smaller on average" statistic of §4.4."""
        rows = list(rows)
        if not rows:
            return 0.0
        return sum(r.static_to_wasm_ratio for r in rows) / len(rows)


# ------------------------------------------------------------------- profiles

#: The five applications of Table 2, calibrated to the sizes the paper reports.
PAPER_APPLICATIONS: Dict[str, ApplicationProfile] = {
    app.name: app
    for app in (
        ApplicationProfile(
            name="IMB",
            object_code_size=1060 * KIB,
            is_cpp=True,
            uses_stdio_heavily=True,
            wasm_data_segments=24 * KIB,
            # Dead-code elimination drops the unused IMB-IO/RMA parts; the
            # remaining benchmark drivers compile to ~345 KiB of Wasm code.
            wasm_object_code_size=345 * KIB,
        ),
        ApplicationProfile(
            name="HPCG",
            object_code_size=146 * KIB,
            is_cpp=True,
            uses_stdio_heavily=True,
            wasm_data_segments=12 * KIB,
            # Template-heavy C++ inflates the Wasm code relative to native.
            wasm_object_code_size=190 * KIB,
        ),
        ApplicationProfile(
            name="IOR",
            object_code_size=340 * KIB,
            is_cpp=False,
            uses_stdio_heavily=True,
            wasm_data_segments=10 * KIB,
            # Only the POSIX backend is compiled for Wasm (no HDF5/MPIIO code).
            wasm_object_code_size=210 * KIB,
        ),
        ApplicationProfile(
            name="IS",
            object_code_size=18 * KIB,
            is_cpp=False,
            uses_stdio_heavily=False,
            wasm_data_segments=4 * KIB,
            wasm_extra_runtime=10 * KIB,
        ),
        ApplicationProfile(
            name="DT",
            object_code_size=22 * KIB,
            is_cpp=False,
            uses_stdio_heavily=False,
            wasm_data_segments=2 * KIB,
        ),
    )
}


def table2_rows() -> List[LinkSizes]:
    """The five rows of Table 2 from the calibrated application profiles."""
    model = LinkerModel()
    return model.link_all(PAPER_APPLICATIONS.values())
