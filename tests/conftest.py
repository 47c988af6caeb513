"""Shared fixtures: reference values for the bundled example corpus, and the
benchmark's corpus generator and checker loaded from perfbench/."""

import importlib.util
import sys
from pathlib import Path

import pytest

from citedea import parse_aggregates, parse_h_values

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# reference efficiency scores for the example corpus, 3 decimals
EXPECTED_EFFICIENCY = {
    "R1": 0.848, "R2": 0.283, "R3": 0.377, "R4": 0.231, "R5": 0.374,
    "R6": 1.000, "R7": 1.000, "R8": 0.370, "R9": 0.570, "R10": 0.727,
    "R11": 0.329, "R12": 0.137, "R13": 0.162, "R14": 0.079, "R15": 0.126,
}

# reference competition ranks for the example corpus
EXPECTED_DEA_RANKS = {
    "R1": 3, "R2": 10, "R3": 6, "R4": 11, "R5": 7, "R6": 1, "R7": 1,
    "R8": 8, "R9": 5, "R10": 4, "R11": 9, "R12": 13, "R13": 12,
    "R14": 15, "R15": 14,
}
EXPECTED_H_RANKS = {
    "R1": 3, "R2": 15, "R3": 4, "R4": 6, "R5": 8, "R6": 2, "R7": 1,
    "R8": 5, "R9": 8, "R10": 6, "R11": 12, "R12": 13, "R13": 10,
    "R14": 13, "R15": 11,
}
EXPECTED_T_RANKS = {
    "R1": 2, "R2": 12, "R3": 5, "R4": 11, "R5": 9, "R6": 3, "R7": 1,
    "R8": 7, "R9": 6, "R10": 4, "R11": 10, "R12": 8, "R13": 13,
    "R14": 15, "R15": 14,
}

# reference t-index values for the example corpus (computed from per-paper
# records that are not part of the bundled aggregates)
REFERENCE_T_SCORES = {
    "R1": 79.826, "R2": 12.702, "R3": 33.077, "R4": 13.874, "R5": 16.893,
    "R6": 66.345, "R7": 180.028, "R8": 19.630, "R9": 30.825, "R10": 61.618,
    "R11": 16.766, "R12": 17.486, "R13": 12.259, "R14": 4.738, "R15": 6.886,
}


@pytest.fixture(scope="session")
def aggregates15():
    return parse_aggregates((DATA / "researchers.csv").read_text())


@pytest.fixture(scope="session")
def h_values15():
    return parse_h_values((DATA / "h_values.csv").read_text())


@pytest.fixture(scope="module")
def bench():
    """The corpora and check modules, registered under their own names while in use."""
    saved = {name: sys.modules.get(name) for name in ("corpora", "check")}
    modules = []
    try:
        for name in saved:  # check.py imports corpora by that name
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module  # dataclasses look their module up there
            spec.loader.exec_module(module)
            modules.append(module)
        yield modules
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
