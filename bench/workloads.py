"""The three benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. Work comes in passes. ``make_pass(k)``
builds the inputs of pass k from the workload seed (outside any timing)
and ``run_pass`` runs them through numrad's public entry points, timing
each operation and checking its result. numrad is always called through a
module attribute, so the traced run sees every call.

verify-sweep   ``numrad verify`` in-process over six ensembles x dims
               2/3/5/8 with every bound and chain: the users' main job, and
               the only load on the bound, chain, suite and report layers.
               Many tiny engine calls, so per-call overhead dominates; its
               jordan configs repeat one matrix, the term cache's hit side.
radius-query   ``numrad radius --oracle-samples`` on fresh n = 16-32
               matrices: LAPACK-bound engine work that bypasses the bounds
               and caches, with Hermitian, general and disc-shaped W(M).
lemma-fuzz     criteria 2 and 3 in miniature: the seven scalar evaluators
               and the four operator-lemma predicates. It bypasses the
               engine and is the only load on linalg's |M|^p helpers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import numrad.cli
import numrad.linalg
import numrad.operator_lemmas
import numrad.scalar_ineq
from numrad.ensembles import ENSEMBLES
from numrad.operator_lemmas import CONVEX_FUNCTIONS

REL_TOL = 1e-8  # radius results: within 1e-8 * max(1, ||M||) of the reference


@dataclass
class PassResult:
    """Per-operation latencies and work units, plus correctness counts."""

    latencies: list[float] = field(default_factory=list)
    units: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    report_bytes: int = 0
    report_sha256: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def add(self, other: PassResult) -> None:
        """Fold the results of another pass into this one."""
        self.latencies += other.latencies
        self.units += other.units
        self.attempted += other.attempted
        self.failed += other.failed
        self.report_bytes += other.report_bytes
        self.report_sha256.update(other.report_sha256)
        self.errors += other.errors[:10 - len(self.errors)]

    def check(self, ok: bool, describe) -> None:
        """Count one checked operation; ``describe()`` names a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(describe())


def _seed(*parts) -> int:
    """A 63-bit seed derived from the workload seed and a position."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _cvec(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# verify-sweep

class VerifySweep:
    """One pass verifies every (ensemble, dim) config once."""

    name = "verify-sweep"
    lambda_grid = "0.01,0.5,1,2,100"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.dims = (2,) if tiny else (2, 3, 5, 8)
        self.trials = 2 if tiny else 10

    def _argv(self, ensemble: str, dim: int, seed: int, out: str) -> list[str]:
        return ["verify", "--ensemble", ensemble, "--dim", str(dim),
                "--trials", str(self.trials), "--seed", str(seed),
                "--lambda-grid", self.lambda_grid, "--out", out, "--format", "json"]

    def parameters(self) -> dict:
        return {"ensembles": list(ENSEMBLES), "dims": list(self.dims),
                "trials_per_config": self.trials, "lambda_grid": self.lambda_grid,
                "bounds": "all", "chains": "all"}

    def warm_up(self) -> None:
        out = os.path.join(self.workdir, "warm-up.json")
        with contextlib.redirect_stdout(io.StringIO()):
            numrad.cli.main(self._argv("ginibre", 2, _seed(self.seed, "warm-up"), out))

    def make_pass(self, k: int) -> list[tuple[str, int, int]]:
        return [(ens, dim, _seed(self.seed, k, ens, dim))
                for ens in ENSEMBLES for dim in self.dims]

    def run_pass(self, configs) -> PassResult:
        res = PassResult()
        for ens, dim, seed in configs:
            out = os.path.join(self.workdir, f"{ens}-{dim}-{seed}.json")
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = numrad.cli.main(self._argv(ens, dim, seed, out))
            except Exception as exc:  # counted as a failed operation
                res.check(False, lambda: f"verify {ens} {dim} {seed} raised {exc!r}")
                continue
            res.latencies.append(time.perf_counter() - start)
            res.units.append(self.trials)
            self._check_report(res, out, ens, dim, seed, code)
        return res

    def _check_report(self, res: PassResult, out: str, ens: str, dim: int,
                      seed: int, code: int) -> None:
        tag = f"{ens}-{dim}-{seed}"
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
            report = json.loads(data)
        except (OSError, ValueError) as exc:
            res.check(False, lambda: f"verify {tag}: unreadable report {exc!r}")
            return
        res.report_bytes += len(data)
        res.report_sha256[tag] = hashlib.sha256(data).hexdigest()
        cfg = report["config"]
        rows = report["bound_rows"] + report["chain_rows"]
        same_config = ((cfg["ensemble"], cfg["dim"], cfg["trials"], cfg["seed"])
                       == (ens, dim, self.trials, seed))
        res.check(code == 0 and report["violations"] == 0 and bool(rows) and same_config,
                  lambda: f"verify {tag}: exit {code}, {report['violations']} violation(s)")
        for row in rows:
            res.check(row["holds"] is True, lambda: f"verify {tag}: row {row} does not hold")


# --------------------------------------------------------------------------
# radius-query

@dataclass
class Query:
    kind: str
    m: np.ndarray
    norm: float
    reference: float | None
    oracle_seed: int


class RadiusQuery:
    """One pass is a cycle of eight queries, each on a fresh matrix.

    The cycle keeps the median inside the n = 16 class (one cheaper 2x2
    query below it, one n = 32 and one jordan query above), and puts the
    slow jordan disc case at one query in eight, enough to hold the tail
    latency on that class for a run of 30 s.
    """

    name = "radius-query"
    oracle_samples = 4
    big_kinds = ("ginibre", "gue", "normal", "rank_one", "nilpotent")

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.small, self.big = (4, 6) if tiny else (16, 32)

    def parameters(self) -> dict:
        return {"sizes": [2, self.small, self.big], "oracle_samples": self.oracle_samples,
                "queries_per_pass": 8}

    def warm_up(self) -> None:
        q = self._query("ginibre", self.small, np.random.default_rng(_seed(self.seed, "warm-up")))
        numrad.linalg.numerical_radius(q.m)
        numrad.linalg.numerical_radius_oracle(q.m, self.oracle_samples, q.oracle_seed)

    def make_pass(self, k: int) -> list[Query]:
        rng = np.random.default_rng(_seed(self.seed, k))
        cycle = [("nil2", 2)]
        cycle += [(kind, self.small) for kind in self.big_kinds]
        cycle += [(self.big_kinds[k % len(self.big_kinds)], self.big), ("jordan", self.small)]
        return [self._query(kind, n, rng) for kind, n in cycle]

    def _query(self, kind: str, n: int, rng: np.random.Generator) -> Query:
        ref = None
        if kind == "ginibre":
            m = _ginibre(rng, n)
        elif kind == "gue":
            g = _ginibre(rng, n)
            m = (g + g.conj().T) / 2.0
            ref = float(np.max(np.abs(np.linalg.eigvalsh(m))))
        elif kind == "normal":
            q, r = np.linalg.qr(_ginibre(rng, n))
            d = np.diagonal(r)
            u = q * (d / np.abs(d))[None, :]
            eigs = _cvec(rng, n) / np.sqrt(2.0)
            m = (u * eigs) @ u.conj().T
            ref = float(np.max(np.abs(eigs)))
        elif kind == "rank_one":
            x, y = _cvec(rng, n) / np.sqrt(2.0), _cvec(rng, n) / np.sqrt(2.0)
            m = np.outer(x, y.conj())
            ref = 0.5 * (abs(np.vdot(y, x)) + np.linalg.norm(x) * np.linalg.norm(y))
        elif kind == "nilpotent":
            m = np.triu(_ginibre(rng, n), k=1)
        elif kind == "jordan":
            # a fresh multiple c J_n of the shift: W is the disc of radius
            # |c| cos(pi/(n+1))
            c = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
            m = c * np.eye(n, k=1, dtype=np.complex128)
            ref = abs(c) * math.cos(math.pi / (n + 1))
        elif kind == "nil2":
            a = complex(*rng.standard_normal(2))
            m = np.array([[0.0, a], [0.0, 0.0]], dtype=np.complex128)
            ref = abs(a) / 2.0
        else:
            raise ValueError(kind)
        return Query(kind=kind, m=m, norm=float(np.linalg.norm(m, 2)),
                     reference=ref, oracle_seed=int(rng.integers(2**32)))

    def run_pass(self, queries: list[Query]) -> PassResult:
        res = PassResult()
        for q in queries:
            start = time.perf_counter()
            try:
                w = numrad.linalg.numerical_radius(q.m)
                oracle = numrad.linalg.numerical_radius_oracle(q.m, self.oracle_samples,
                                                               q.oracle_seed)
            except Exception as exc:  # counted as a failed operation
                res.check(False, lambda: f"{q.kind} n={len(q.m)} raised {exc!r}")
                continue
            res.latencies.append(time.perf_counter() - start)
            res.units.append(1)
            eps = REL_TOL * max(1.0, q.norm)
            ok = (q.norm / 2.0 - eps <= w <= q.norm + eps and oracle <= w + eps
                  and (q.reference is None or abs(w - q.reference) <= eps))
            res.check(ok, lambda: f"{q.kind} n={len(q.m)}: w={w!r} oracle={oracle!r} "
                                  f"ref={q.reference!r} norm={q.norm!r}")
        return res


# --------------------------------------------------------------------------
# lemma-fuzz

H_IDS = sorted(CONVEX_FUNCTIONS)


class LemmaFuzz:
    """One pass is two operations of 200 tuples; each tuple is seven scalar
    records and four operator-lemma checks, with n = 2..6 in turn.

    Long operations keep the tail latency, at about the 90th percentile of
    a 30 s run, from picking up single sub-second hiccups of the host.
    """

    name = "lemma-fuzz"
    ops_per_pass = 2
    tuples_per_op = 200

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        if tiny:
            self.ops_per_pass, self.tuples_per_op = 2, 10

    def parameters(self) -> dict:
        return {"dims": [2, 3, 4, 5, 6], "ops_per_pass": self.ops_per_pass,
                "tuples_per_op": self.tuples_per_op, "checks_per_tuple": 11}

    def warm_up(self) -> None:
        rng = np.random.default_rng(_seed(self.seed, "warm-up"))
        self._run_op([self._tuple(rng, 0)])

    def make_pass(self, k: int) -> list[list[tuple]]:
        rng = np.random.default_rng(_seed(self.seed, k))
        return [[self._tuple(rng, j) for j in range(self.tuples_per_op)]
                for _ in range(self.ops_per_pass)]

    @staticmethod
    def _tuple(rng: np.random.Generator, k: int) -> tuple:
        """The calls of one tuple, as (module, function, args)."""
        n = 2 + k % 5
        x, y = _cvec(rng, n), _cvec(rng, n)
        e = _unit(_cvec(rng, n))
        lam = 10.0 ** rng.uniform(-3, 3)
        nn = 1 + k % 3
        t = lam / (1.0 + lam)
        s = numrad.scalar_ineq
        calls = [
            (s, "cs_refinement_gen", (x, y, lam)),
            (s, "cs_refinement_two", (x, y, lam)),
            (s, "buzano", (x, y, e)),
            (s, "buzano_refined", (x, y, e, lam)),
            (s, "buzano_refined_two", (x, y, e, lam)),
            (s, "buzano_power", (x, y, e, lam, nn)),
            (s, "young_amgm", (float(np.linalg.norm(x)) ** 2,
                               float(np.linalg.norm(y)) ** 2, t)),
        ]
        r = rng.uniform(1.0, 4.0)
        alpha = rng.uniform(0.05, 0.95)
        g, g2, gh = _ginibre(rng, n), _ginibre(rng, n), _ginibre(rng, n)
        t_psd = g.conj().T @ g
        o = numrad.operator_lemmas
        calls += [
            (o, "mccarthy_check", (t_psd, _unit(_cvec(rng, n)), r)),
            (o, "convex_norm_check", (t_psd, g2.conj().T @ g2, r)),
            (o, "mixed_schwarz_check", (_ginibre(rng, n), _unit(_cvec(rng, n)),
                                        _unit(_cvec(rng, n)), alpha)),
            (o, "jensen_operator_check", ((gh + gh.conj().T) / 2.0,
                                          _unit(_cvec(rng, n)), H_IDS[k % 4])),
        ]
        return tuple(calls)

    @staticmethod
    def _run_op(op) -> list:
        """Every record of one operation; a call that raised gives its
        exception instead."""
        out = []
        for calls in op:
            for module, fname, args in calls:
                try:
                    out.append(getattr(module, fname)(*args))
                except Exception as exc:  # counted as a failed operation
                    out.append(exc)
        return out

    def run_pass(self, ops) -> PassResult:
        res = PassResult()
        for op in ops:
            start = time.perf_counter()
            records = self._run_op(op)
            res.latencies.append(time.perf_counter() - start)
            res.units.append(sum(not isinstance(rec, Exception) for rec in records))
            for rec in records:
                res.check(not isinstance(rec, Exception) and bool(rec.holds),
                          lambda: repr(rec))
        return res


WORKLOADS = {cls.name: cls for cls in (VerifySweep, RadiusQuery, LemmaFuzz)}
