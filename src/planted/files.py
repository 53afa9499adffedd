"""JSON-lines instance files and result serialization.

One JSON object per line: a typed header record first, then optional truth
records, then one record per edge / clause / constraint. Dict key order is
fixed so identical inputs serialize byte-identically.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .instances import (
    BipartiteGraph,
    GoldreichInstance,
    HiddenPartition,
    PlantedCspInstance,
    PlantingDistribution,
)
from .reduction import ReducedInstance

__all__ = [
    "SbmFile",
    "CspFile",
    "GoldreichFile",
    "read_header",
    "write_sbm",
    "read_sbm",
    "write_csp",
    "read_csp",
    "write_goldreich",
    "read_goldreich",
    "write_reduced",
]


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _write_lines(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(_dumps(rec))
            fh.write("\n")


def _read_lines(path):
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_header(path) -> dict:
    """The header record of an instance file; empty for an empty file."""
    return next(_read_lines(path), None) or {}


@dataclass
class SbmFile:
    graph: BipartiteGraph
    header: dict
    truth: HiddenPartition | None
    reduced_meta: dict | None  # sidecar record for CSP-reduced graphs


@dataclass
class CspFile:
    instance: PlantedCspInstance
    weights: PlantingDistribution
    header: dict


@dataclass
class GoldreichFile:
    instance: GoldreichInstance
    header: dict


# ---------------------------------------------------------------------------
# SBM files
# ---------------------------------------------------------------------------


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
    _write_lines(path, _sbm_records(graph, header, tu, tv, reduced_meta))


def write_reduced(path, reduced: ReducedInstance, seed: int):
    """Reduced instances serialize as ordinary SBM files plus a sidecar
    record, so the solve command consumes either kind identically. The header
    density is the realized edges/(n1*n2) (the solver's centering constant);
    the sidecar keeps the constraint-count density for reference."""
    g = reduced.graph
    p_realized = g.num_edges / (g.n1 * g.n2)
    meta = {
        "delta": reduced.delta,
        "p_equiv": reduced.p_equiv,
        "n2_nominal": reduced.n2_nominal,
        "indexer_size": len(reduced.indexer),
    }
    write_sbm(
        path,
        g,
        delta=reduced.delta,
        p=p_realized,
        seed=seed,
        truth=reduced.truth,
        include_truth_v=False,  # truth v covers materialized tuples only
        reduced_meta=meta,
    )


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
        # empty v marks "left labels only" (reduced files); the solver skips
        # the right-side trace whenever len(v) != n2
        tv = truth_v if truth_v is not None else []
        truth = HiddenPartition(np.array(truth_u, dtype=np.int64), np.array(tv, dtype=np.int64))
    return SbmFile(graph, header, truth, reduced_meta)


# ---------------------------------------------------------------------------
# CSP files
# ---------------------------------------------------------------------------


def write_csp(path, instance: PlantedCspInstance, weights: PlantingDistribution, seed: int):
    header = {
        "type": "csp",
        "n": instance.n,
        "k": instance.k,
        "m": instance.m,
        "seed": seed,
        "weights": [float(w) for w in weights.weights],
    }

    def records():
        yield header
        if instance.sigma is not None:
            yield {"sigma": [int(s) for s in instance.sigma]}
        for vs, ss in zip(instance.clause_vars, instance.clause_signs):
            yield {"vars": [int(v) for v in vs], "signs": [int(s) for s in ss]}

    _write_lines(path, records())


def read_csp(path) -> CspFile:
    records = _read_lines(path)
    header = next(records, None)
    if header is None or header.get("type") != "csp":
        raise ValueError(f"{path}: not a CSP instance file")
    sigma = None
    cvars, csigns = [], []
    for rec in records:
        if "vars" in rec:
            cvars.append(rec["vars"])
            csigns.append(rec["signs"])
        elif "sigma" in rec:
            sigma = np.array(rec["sigma"], dtype=np.int64)
    k = header["k"]
    instance = PlantedCspInstance(
        header["n"],
        sigma,
        np.array(cvars, dtype=np.int64).reshape(-1, k),
        np.array(csigns, dtype=np.int64).reshape(-1, k),
    )
    weights = PlantingDistribution(k, np.array(header["weights"], dtype=np.float64))
    return CspFile(instance, weights, header)


# ---------------------------------------------------------------------------
# Predicate-constraint files
# ---------------------------------------------------------------------------


def write_goldreich(path, instance: GoldreichInstance, seed: int):
    header = {
        "type": "goldreich",
        "n": instance.n,
        "k": instance.k,
        "m": instance.m,
        "seed": seed,
        "predicate": [int(v) for v in instance.predicate],
    }

    def records():
        yield header
        if instance.sigma is not None:
            yield {"sigma": [int(s) for s in instance.sigma]}
        for vs, val in zip(instance.tuple_vars, instance.values):
            yield {"vars": [int(v) for v in vs], "value": int(val)}

    _write_lines(path, records())


def read_goldreich(path) -> GoldreichFile:
    records = _read_lines(path)
    header = next(records, None)
    if header is None or header.get("type") != "goldreich":
        raise ValueError(f"{path}: not a predicate-constraint instance file")
    sigma = None
    tvars, values = [], []
    for rec in records:
        if "vars" in rec:
            tvars.append(rec["vars"])
            values.append(rec["value"])
        elif "sigma" in rec:
            sigma = np.array(rec["sigma"], dtype=np.int64)
    k = header["k"]
    instance = GoldreichInstance(
        header["n"],
        np.array(header["predicate"], dtype=np.int64),
        sigma,
        np.array(tvars, dtype=np.int64).reshape(-1, k),
        np.array(values, dtype=np.int64),
    )
    return GoldreichFile(instance, header)
