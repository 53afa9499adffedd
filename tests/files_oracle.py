"""Reference block-model file I/O: the one-``json.dumps``/``json.loads``-per-
record ``write_sbm`` and ``read_sbm`` that ``planted.files`` used before it
formatted and parsed canonical edge lines in bulk, as numpy byte buffers.
Tests compare the production I/O against them; they have the signatures of
``planted.files.write_sbm`` and ``planted.files.read_sbm``. ``canonical_edge``
is the per-line rule for which lines the bulk parser takes."""
from __future__ import annotations

import json
import re

import numpy as np

from planted.files import SbmFile
from planted.instances import BipartiteGraph, HiddenPartition


_CANONICAL = re.compile(rb'\{"i":(0|[1-9][0-9]{0,17}),"j":(0|[1-9][0-9]{0,17})\}')


def canonical_edge(line: bytes) -> tuple[int, int] | None:
    """The ids of a canonical edge line, given without its line break, or
    None for any other line."""
    match = _CANONICAL.fullmatch(line)
    return None if match is None else (int(match[1]), int(match[2]))


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _read_lines(path):
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def _sbm_records(graph, header, truth_u=None, truth_v=None, reduced_meta=None):
    yield header
    if reduced_meta is not None:
        yield {"meta": "reduced", **reduced_meta}
    if truth_u is not None:
        rec = {"truth_u": [int(x) for x in truth_u]}
        if truth_v is not None:
            rec["truth_v"] = [int(x) for x in truth_v]
        yield rec
    for i, j in graph.edges:
        yield {"i": int(i), "j": int(j)}


def write_sbm(
    path,
    graph: BipartiteGraph,
    delta: float,
    p: float,
    seed: int,
    truth: HiddenPartition | None = None,
    include_truth_v: bool = True,
    reduced_meta: dict | None = None,
):
    header = {
        "type": "sbm",
        "n1": graph.n1,
        "n2": graph.n2,
        "delta": delta,
        "p": p,
        "seed": seed,
    }
    tu = truth.u if truth is not None else None
    tv = truth.v if truth is not None and include_truth_v else None
    with open(path, "w") as fh:
        for rec in _sbm_records(graph, header, tu, tv, reduced_meta):
            fh.write(_dumps(rec))
            fh.write("\n")


def read_sbm(path) -> SbmFile:
    records = _read_lines(path)
    header = next(records, None)
    if header is None or header.get("type") != "sbm":
        raise ValueError(f"{path}: not an SBM instance file")
    truth_u = truth_v = None
    reduced_meta = None
    edges = []
    for rec in records:
        if "i" in rec:
            edges.append((rec["i"], rec["j"]))
        elif "truth_u" in rec:
            truth_u = rec["truth_u"]
            truth_v = rec.get("truth_v")
        elif rec.get("meta") == "reduced":
            reduced_meta = {k: v for k, v in rec.items() if k != "meta"}
    graph = BipartiteGraph(
        header["n1"],
        header["n2"],
        np.array(edges, dtype=np.int64).reshape(-1, 2),
    )
    truth = None
    if truth_u is not None:
        tv = truth_v if truth_v is not None else []
        truth = HiddenPartition(np.array(truth_u, dtype=np.int64), np.array(tv, dtype=np.int64))
    return SbmFile(graph, header, truth, reduced_meta)
