"""Guest benchmark suites used by the paper's evaluation.

Intel MPI Benchmarks, NPB IS and DT, IOR, HPCG and the custom
datatype-translation PingPong, all written against the one GuestAPI, which
serves both the Wasm and the native series.
"""

from repro.benchmarks_suite import registry
from repro.benchmarks_suite.custom_pingpong import (
    FIGURE6_DATATYPES,
    FIGURE6_MESSAGE_SIZES,
    make_translation_pingpong_program,
)
from repro.benchmarks_suite.hpcg import build_hpcg_kernels, make_hpcg_program
from repro.benchmarks_suite.imb import (
    DEFAULT_MESSAGE_SIZES,
    ROUTINES,
    SMALL_MESSAGE_SIZES,
    make_imb_program,
    make_imb_suite_program,
)
from repro.benchmarks_suite.ior import make_ior_program
from repro.benchmarks_suite.npb import DT_TOPOLOGIES, make_dt_program, make_is_program

__all__ = [
    "registry",
    "ROUTINES",
    "DEFAULT_MESSAGE_SIZES",
    "SMALL_MESSAGE_SIZES",
    "make_imb_program",
    "make_imb_suite_program",
    "make_hpcg_program",
    "build_hpcg_kernels",
    "make_ior_program",
    "make_is_program",
    "make_dt_program",
    "DT_TOPOLOGIES",
    "make_translation_pingpong_program",
    "FIGURE6_DATATYPES",
    "FIGURE6_MESSAGE_SIZES",
]
