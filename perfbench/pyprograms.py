"""Python-function programs that the compile_cold workload sends through
``repro.loop_lang.python_frontend``.

Each entry pairs a restricted Python function with the way to call it
natively: the plain Python call is the independent reference the compiled
program is checked against, so these programs need no baseline of their own.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


def below_threshold_sum(V):
    total: float = 0.0
    for v in V:
        if v < 100.0:
            total += v
    return total


def word_frequencies(words, C):
    for w in words:
        C[w] += 1


def dot_product(X, Y, n):
    s: float = 0.0
    for i in range(n):
        s += X[i] * Y[i]
    return s


def row_sums(M, R, n):
    for i in range(n):
        for j in range(n):
            R[i] += M[i, j]


@dataclass(frozen=True)
class PythonProgram:
    """A frontend program, its generated inputs and its native reference.

    ``reference(inputs)`` calls the function as plain Python and returns the
    outputs under the same names the compiled program's result uses.
    """

    name: str
    function: Callable[..., Any]
    scalar_outputs: tuple[str, ...]
    array_outputs: tuple[str, ...]
    make_inputs: Callable[[int, int], dict[str, Any]]
    reference: Callable[[dict[str, Any]], dict[str, Any]]


def _doubles(size: int, seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    return {"V": [rng.uniform(0.0, 200.0) for _ in range(size)]}


def _words(size: int, seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    vocabulary = [f"w{index}" for index in range(max(2, size // 10))]
    return {"words": [rng.choice(vocabulary) for _ in range(size)], "C": {}}


def _vectors(size: int, seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    return {
        "X": {i: rng.uniform(-1.0, 1.0) for i in range(size)},
        "Y": {i: rng.uniform(-1.0, 1.0) for i in range(size)},
        "n": size,
    }


def _matrix(size: int, seed: int) -> dict[str, Any]:
    rng = random.Random(seed)
    matrix = {(i, j): rng.uniform(0.0, 10.0) for i in range(size) for j in range(size)}
    return {"M": matrix, "R": {}, "n": size}


def _ref_below(inputs: dict[str, Any]) -> dict[str, Any]:
    return {"total": below_threshold_sum(inputs["V"])}


def _ref_words(inputs: dict[str, Any]) -> dict[str, Any]:
    counts: defaultdict[str, int] = defaultdict(int)
    word_frequencies(inputs["words"], counts)
    return {"C": dict(counts)}


def _ref_dot(inputs: dict[str, Any]) -> dict[str, Any]:
    return {"s": dot_product(inputs["X"], inputs["Y"], inputs["n"])}


def _ref_rows(inputs: dict[str, Any]) -> dict[str, Any]:
    sums: defaultdict[int, float] = defaultdict(float)
    row_sums(inputs["M"], sums, inputs["n"])
    return {"R": dict(sums)}


PYTHON_PROGRAMS: tuple[PythonProgram, ...] = (
    PythonProgram("py_below_threshold_sum", below_threshold_sum, ("total",), (), _doubles, _ref_below),
    PythonProgram("py_word_frequencies", word_frequencies, (), ("C",), _words, _ref_words),
    PythonProgram("py_dot_product", dot_product, ("s",), (), _vectors, _ref_dot),
    PythonProgram("py_row_sums", row_sums, (), ("R",), _matrix, _ref_rows),
)
