"""The four benchmark workloads.

Each workload is single-process, single-threaded and closed-loop: the
next request starts when the previous one has returned.  A workload has
three parts:

* ``setup(cf, seed)`` builds the complexes and models and draws the
  seeded inputs.  Cell pools come from the program's bounded enumeration
  (``model.cells(n, bound)``, a fixed mathematical set), drawn with the
  benchmark's own RNG; no input is drawn with ``sample_cells``.
* ``run_pass(state)`` runs the fixed request list once and returns a
  `PassResult`: one latency per request, the items delivered, the
  requests that failed an inline check, and a record of what the program
  answered.  The record must be identical on every pass of a run.
* ``verify(state, result)`` runs the checks too costly for the timed
  loop against one pass's result, outside the timing.

``cf`` is a namespace holding the eight ``cubeforge`` modules.  Every
call into the program goes through a module attribute or a model method
looked up at call time, so wrappers installed by the tracer see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


@dataclass
class PassResult:
    items: int = 0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    record: list = field(default_factory=list)
    # outputs kept for `verify`; not compared across passes
    outputs: list = field(default_factory=list)
    wall: float = 0.0

    def call(self, label: str, fn, *args, **kwargs):
        """Time one request; an exception fails the request, not the run."""
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self.latencies.append(time.perf_counter() - t0)
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            self.record.append((label, "raised", type(exc).__name__))
            return None
        self.latencies.append(time.perf_counter() - t0)
        return out


def cell_digest(cells) -> str:
    """An order-independent digest of a collection of cells."""
    h = hashlib.sha256()
    for text in sorted(repr((c.dim, c.payload)) for c in cells):
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


class Workload:
    name = item = rate_name = ""

    def verify(self, state, result: PassResult) -> list[str]:
        return []

    def teardown(self, state) -> None:
        pass


def _omega(adc, p: int):
    return adc.with_group_cones_above(adc.disk(2), p)


# ---------------------------------------------------------------------------
# axiom-suite: the paper's criterion-1 job on warm models

AXIOM_NERVES = (
    # label, complex, top dimension, enumeration bound
    ("disk(3)", lambda adc: adc.disk(3), 3, 1),
    ("cube(2)", lambda adc: adc.cube(2), 3, 1),
    ("tensor(disk(1),disk(2))", lambda adc: adc.tensor(adc.disk(1), adc.disk(2)), 3, 1),
    ("omega0", lambda adc: _omega(adc, 0), 2, 2),
)
AXIOM_SUBSET = 56
# Each subset is checked in chunks, so that a request stays short (under
# about 30 ms) and a pass short (under about 1.5 s): a request then gets
# many repeats, and its fastest can dodge the host's slow spells.  The
# 14 chunks of each top dimension make a pass of 104 requests, so that
# p90 has ten requests above it and falls inside the dense cluster of
# 3-cell chunks rather than between sparse outliers.
AXIOM_CHUNK = 4
MAX_PAIRS = 60


def _unary_counts(n: int, max_dim: int) -> Counter:
    """Equation instances per n-cell, by family, as `check_axioms` defines them."""
    out = Counter({"face-face": 4 * n * (n - 1), "unit": 2 * n})
    if n + 1 <= max_dim:
        out.update({"face-deg": 2 * (n + 1) ** 2, "face-conn": 4 * n * (n + 1),
                    "transport": 2 * n})
    if n + 2 <= max_dim:
        out.update({"deg-deg": (n + 1) ** 2, "conn-conn": 4 * n * (n - 1) + 2 * n,
                    "conn-deg": 2 * (n + 1) ** 2})
    return out


def _pair_counts(n: int, max_dim: int) -> Counter:
    """Equation instances per composable pair of n-cells, by family."""
    out = Counter({"face-comp": 2 * n})
    if n + 1 <= max_dim:
        out.update({"deg-comp": n + 1, "conn-comp": 2 * n})
    return out


def expected_axiom_counts(cf, model, n: int, sample, max_pairs: int) -> dict:
    """Per-family instance counts derived from the sample alone.

    Unary families are a closed form per cell and pair families a closed
    form per composable pair.  Composable pairs are counted by brute
    force, which must agree with the pairs `composable_pairs` selects;
    triples and quadruples are counted on the selected pairs.
    """
    expected = Counter()
    for family, c in _unary_counts(n, model.max_dim).items():
        expected[family] += c * len(sample)
    for i in range(1, n + 1):
        minus = Counter(model.face(B, i, "-").payload for B in sample)
        total = sum(minus[model.face(A, i, "+").payload] for A in sample)
        pairs = cf.core.composable_pairs(model, sample, i, max_pairs)
        if len(pairs) != min(max_pairs, total):
            expected["composable-pairs-disagree"] += 1
        for family, c in _pair_counts(n, model.max_dim).items():
            expected[family] += c * len(pairs)
        triples = sum(minus[model.face(B, i, "+").payload] for _, B in pairs)
        expected["assoc"] += min(max_pairs, triples)
        for j in range(1, n + 1):
            if j == i:
                continue
            tops = Counter(
                (model.face(C, j, "-").payload, model.face(D, j, "-").payload)
                for C, D in pairs
            )
            quads = sum(
                tops[(model.face(A, j, "+").payload, model.face(B, j, "+").payload)]
                for A, B in pairs
            )
            expected["interchange"] += min(max_pairs, quads)
    return {k: v for k, v in sorted(expected.items()) if v}


class AxiomSuite(Workload):
    name = "axiom-suite"
    item = "instances"
    rate_name = "instances_per_s"

    def setup(self, cf, seed: int) -> dict:
        rng = random.Random(seed)
        jobs = []
        for label, build, top, bound in AXIOM_NERVES:
            model = cf.nerve.NcModel(build(cf.adc))
            for n in range(top + 1):
                pool = model.cells(n, bound)
                subset = rng.sample(pool, min(AXIOM_SUBSET, len(pool)))
                for k in range(0, len(subset), AXIOM_CHUNK):
                    jobs.append((label, model, n, subset[k:k + AXIOM_CHUNK]))
        return {"cf": cf, "jobs": jobs}

    def run_pass(self, state) -> PassResult:
        cf, result = state["cf"], PassResult()
        for label, model, n, sample in state["jobs"]:
            report = result.call(f"{label} dim {n}", cf.core.check_axioms,
                                 model, n, {n: sample}, max_pairs=MAX_PAIRS)
            if report is None:
                continue
            result.items += sum(report.checked.values())
            if report.violations:
                result.failures.append(
                    f"{label} dim {n}: {len(report.violations)} violations")
            result.record.append((label, n, dict(sorted(report.checked.items()))))
        return result

    def verify(self, state, result: PassResult) -> list[str]:
        failures = []
        for (label, model, n, sample), (_, _, checked) in zip(state["jobs"], result.record):
            if not isinstance(checked, dict):
                continue
            expected = expected_axiom_counts(state["cf"], model, n, sample, MAX_PAIRS)
            if checked != expected:
                failures.append(f"{label} dim {n}: counts {checked} != derived {expected}")
        return failures


# ---------------------------------------------------------------------------
# enumerate: bounded enumeration and sampling on fresh models

ENUM_COMPLEXES = (
    # label, complex, dimensions, enumeration bound; a fresh model each
    ("tensor(disk(1),disk(2))", lambda adc: adc.tensor(adc.disk(1), adc.disk(2)),
     (0, 1, 2, 3), 1),
    # box scans: per distinct query the chain solver scans a box of
    # (bound + 1)^rank points on cone generators
    ("cube(2)", lambda adc: adc.cube(2), (0, 1, 2), 4),
    ("cube(2)", lambda adc: adc.cube(2), (0, 1, 2), 5),
    ("cube(2)", lambda adc: adc.cube(2), (0, 1, 2), 6),
    ("tensor(disk(1),disk(2))", lambda adc: adc.tensor(adc.disk(1), adc.disk(2)),
     (0, 1, 2), 3),
    ("omega0", lambda adc: _omega(adc, 0), (0, 1, 2), 2),
    ("disk(3)", lambda adc: adc.disk(3), (0, 1, 2, 3), 2),
)
# sample_cells draws on the omega0 nerve at bound 1: (dimension, draws)
SAMPLER_DRAWS = ((1, 300), (2, 400), (3, 300))
GAMMA_DIMS = (0, 1, 2)


class Enumerate(Workload):
    name = "enumerate"
    item = "cells"
    rate_name = "cells_per_s"

    def setup(self, cf, seed: int) -> dict:
        complexes = [(label, build(cf.adc), dims, bound)
                     for label, build, dims, bound in ENUM_COMPLEXES]
        return {"cf": cf, "seed": seed, "complexes": complexes,
                "omega0": _omega(cf.adc, 0), "disk2": cf.adc.disk(2)}

    def run_pass(self, state) -> PassResult:
        cf, result = state["cf"], PassResult()
        for label, K, dims, bound in state["complexes"]:
            model = cf.nerve.NcModel(K)
            for n in dims:
                cells = result.call(f"cells {label} dim {n} bound {bound}", model.cells, n, bound)
                if cells is None:
                    continue
                result.items += len(cells)
                result.record.append(("cells", label, n, bound, len(cells), cell_digest(cells)))
        model = cf.nerve.NcModel(state["omega0"])
        rng = random.Random(state["seed"])
        for n, draws in SAMPLER_DRAWS:
            drawn = result.call(f"sample_cells dim {n}", model.sample_cells, n, draws, 1, rng)
            if drawn is None:
                continue
            distinct = {c.payload: c for c in drawn}
            result.items += len(distinct)
            result.record.append(("sample", n, len(drawn), len(distinct), cell_digest(drawn)))
            result.outputs.append((model, n, draws, drawn))
        for n in GAMMA_DIMS:
            report = result.call(f"gamma_vs_ng dim {n}", cf.nerve.gamma_vs_ng,
                                 state["disk2"], n, 1)
            if report is None:
                continue
            result.items += report.cubical_cells + report.globular_cells
            if not report.ok:
                result.failures.append(f"gamma_vs_ng dim {n}: {report}")
            result.record.append(("gamma", n, str(report)))
        return result

    def verify(self, state, result: PassResult) -> list[str]:
        failures = []
        expected = EXPECTED["enumerate"]
        for entry in result.record:
            if entry[0] != "cells":
                continue
            _, label, n, bound, count, digest = entry
            key = f"{label} dim {n} bound {bound}"
            want = expected.get(key)
            if want != [count, digest]:
                failures.append(f"{key}: {count} cells, digest {digest[:12]} != recorded {want}")
        for model, n, draws, drawn in result.outputs:
            if len(drawn) != draws:
                failures.append(f"sample_cells dim {n}: {len(drawn)} of {draws} draws")
            for cell in drawn:
                if cell.dim != n or model.invalid_reasons(cell):
                    failures.append(f"sample_cells dim {n}: invalid cell {cell.payload!r}")
        return failures


# ---------------------------------------------------------------------------
# invert: inverse queries on warm models, each answered and verified

INV_THREES = 120  # 3-cells of the omega1 nerve
INV_TWOS = 120  # 2-cells of the omega0 nerve
INV_TABLES = 8  # transfors disk(1) -> omega0
CLASSIFY = ((0, (1, 2)), (1, (2, 3)))  # (omega p, dims) without random extras


def reduced_words(perms, n: int) -> dict:
    """Every reduced word of every permutation of S_n, by brute force."""
    words: dict = {}
    for k in range(n * (n - 1) // 2 + 1):
        for letters in itertools.product(range(1, n), repeat=k):
            w = perms.TWord(n, letters)
            p = perms.eval_word(w)
            if perms.length(p) == k:
                words.setdefault(p.images, []).append(w)
    return {perms.Perm(images): ws for images, ws in sorted(words.items())}


def r_invertible_oracle(model, A, i: int) -> bool:
    """A reversal inverse carries the negated slab chains, so in a nerve one
    exists exactly when every chain on the slab s_i = 0 has its negation
    in the cone."""
    return all(
        model.K.in_cone(k, tuple(-c for c in A.payload[pos]))
        for pos, (k, s) in enumerate(model.elements(A.dim))
        if s[i - 1] == "0"
    )


class Invert(Workload):
    name = "invert"
    item = "queries"
    rate_name = "inverses_per_s"

    def setup(self, cf, seed: int) -> dict:
        rng = random.Random(seed)
        omega = {p: cf.nerve.NcModel(_omega(cf.adc, p)) for p in (0, 1)}
        cells = (
            [(omega[1], A) for A in rng.sample(omega[1].cells(3, 1), INV_THREES)]
            + [(omega[0], A) for A in rng.sample(omega[0].cells(2, 1), INV_TWOS)]
        )
        src = cf.nerve.NcModel(cf.adc.disk(1))
        tables = []
        for _ in range(INV_TABLES):
            fm, fp, h = cf.transfor.random_homotopy_data(src, omega[0], rng)
            tables.append(cf.transfor.homotopy_lax_transfor(src, omega[0], fm, fp, h, [0, 1], 1))
        words = {n: reduced_words(cf.perms, n) for n in (2, 3)}
        return {"cf": cf, "cells": cells, "tables": tables, "words": words, "omega": omega}

    def run_pass(self, state) -> PassResult:
        cf, result = state["cf"], PassResult()

        def query(kind, fn, *args):
            verdict = result.call(kind, fn, *args)
            if verdict is None:
                return
            result.record.append((kind, verdict))
            if isinstance(verdict, str) and verdict.startswith("mismatch"):
                result.failures.append(f"{kind}: {verdict}")
            else:
                result.items += 1

        for model, A in state["cells"]:
            n = A.dim
            for i in range(1, n + 1):
                query("R", self._r_query, cf, model, A, i)
            for i in range(1, n):
                query("T", self._t_query, cf, model, A, i)
            for sigma, words in state["words"][n].items():
                query("sigma", self._sigma_query, cf, model, A, sigma, words)
            query("plain", self._plain_query, cf, model, A)
        for p, dims in CLASSIFY:
            query("classify", self._classify_query, cf, state["omega"][p], p, dims)
        for F in state["tables"]:
            query("transfor", self._transfor_query, cf, F)
        return result

    @staticmethod
    def _r_query(cf, model, A, i):
        """Closed-form reversal inverse, verified by the defining equations."""
        try:
            B = model.r_inverse(A, i)
        except cf.core.NotInvertible:
            return ("none" if not r_invertible_oracle(model, A, i)
                    else "mismatch: refused an invertible cell")
        if not cf.invert.verify_r_inverse(model, A, B, i):
            return "mismatch: bad reversal inverse"
        return B.payload

    @staticmethod
    def _t_query(cf, model, A, i):
        """Closed-form transposition inverse against the fold route."""
        try:
            closed = model.t_inverse(A, i)
        except cf.core.NotInvertible:
            closed = None
        try:
            folded = cf.invert.t_inverse(model, A, i)
        except cf.core.NotInvertible:
            folded = None
        if closed is None or folded is None:
            return "none" if closed is folded else "mismatch: routes disagree on existence"
        if not (model.equal(closed, folded) and cf.invert.verify_t_inverse(model, A, closed, i)):
            return "mismatch: closed form and fold route differ"
        return closed.payload

    @staticmethod
    def _sigma_query(cf, model, A, sigma, words):
        """The sigma-action through every reduced word gives one answer."""
        answers = set()
        for w in words:
            try:
                answers.add(cf.invert.sigma_act(model, A, sigma, word=w).payload)
            except cf.core.NotInvertible:
                answers.add(None)
        if len(answers) != 1:
            return "mismatch: reduced words disagree"
        return answers.pop() or "none"

    @staticmethod
    def _plain_query(cf, model, A):
        """Plain invertibility, checked on the full fold."""
        plain = cf.invert.is_plain_invertible(model, A)
        if plain:
            cf.invert.plain_witness(model, A)  # re-verifies, raises if wrong
        elif r_invertible_oracle(model, cf.core.fold_tail(model, A), 1):
            return "mismatch: plain invertibility refused"
        return plain

    @staticmethod
    def _classify_query(cf, model, p, dims):
        report = cf.invert.classify_omega_p(model, list(dims), bound=1)
        want = EXPECTED["classify"][f"omega{p} dims {dims[0]}..{dims[-1]}"]
        if not report.consistent or report.p_estimate != want:
            return f"mismatch: p-estimate {report.p_estimate}, consistent {report.consistent}"
        return report.p_estimate

    @staticmethod
    def _transfor_query(cf, F):
        """A pseudo lax table survives the lax -> oplax -> lax round trip."""
        if not cf.transfor.is_pseudo(F):
            return "mismatch: homotopy table is not pseudo"
        G = cf.transfor.to_oplax(F)
        if not cf.transfor.validate_transfor(G).ok:
            return "mismatch: converted table is not a valid oplax table"
        if not cf.transfor.to_lax(G).same_table(F):
            return "mismatch: round trip changed the table"
        return len(list(G.pairs()))


# ---------------------------------------------------------------------------
# cli: the README's six example commands, in-process, each call cold

# 101 calls a pass, so that p90 has ten calls above it: the 3 heavy
# check/classify calls and the 4 transfor calls lie above it, and it
# falls among the 64 invert and fold calls.
CLI_CELLS = 32  # cell files for invert and fold
CLI_WORDS = 30  # words for perm boundary
CLI_TABLES = 4  # transfor tables
WORKDIR = HERE / ".work"  # generated cell, table and complex files


class Cli(Workload):
    name = "cli"
    item = "calls"
    rate_name = "calls_per_s"

    def setup(self, cf, seed: int) -> dict:
        rng = random.Random(seed)
        WORKDIR.mkdir(exist_ok=True)
        # its own directory, so that set-ups made while it lives leave it be
        workdir = Path(tempfile.mkdtemp(prefix="state-", dir=WORKDIR))

        def write(name: str, data) -> str:
            path = workdir / name
            path.write_text(json.dumps(data, sort_keys=True, indent=2))
            return str(path)

        omega0 = cf.nerve.NcModel(_omega(cf.adc, 0))
        calls = []
        disk2 = workdir / "disk2.adc"
        cf.adc.save_adc(cf.adc.disk(2), str(disk2))
        omega0_adc = workdir / "omega0.adc"
        cf.adc.save_adc(omega0.K, str(omega0_adc))
        calls.append(["check", "--adc", str(disk2), "--dim", "2", "--bound", "1"])
        calls.append(["classify", "--adc", "disk:2", "--dims", "1..2"])
        calls.append(["classify", "--adc", str(omega0_adc), "--dims", "1..2"])
        cells = rng.sample(omega0.cells(2, 1), CLI_CELLS)
        for k, A in enumerate(cells):
            path = write(f"cell{k}.json", cf.nerve.cell_to_json(omega0, A))
            calls.append(["invert", "--cell", path, "--kind", "T", "--i", "1",
                          "--format", "json"])
            calls.append(["fold", "--cell", path, "--phi", "2", "--format", "json"])
        words = []
        for _ in range(CLI_WORDS):
            letters = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            word = " ".join(f"T{i}" for i in letters)
            words.append((word, rng.randint(1, max(letters) + 1)))
            calls.append(["perm", "boundary", "--word", word, "--i", str(words[-1][1])])
        src = cf.nerve.NcModel(cf.adc.disk(1))
        tables = []
        for k in range(CLI_TABLES):
            fm, fp, h = cf.transfor.random_homotopy_data(src, omega0, rng)
            F = cf.transfor.homotopy_lax_transfor(src, omega0, fm, fp, h, [0, 1], 1)
            tables.append(F)
            path = write(f"table{k}.json", _table_json(cf, F))
            calls.append(["transfor", "--table", path, "--to", "oplax", "--format", "json"])
        return {"cf": cf, "calls": calls, "cells": cells, "model": omega0,
                "words": words, "tables": tables, "workdir": workdir}

    def run_pass(self, state) -> PassResult:
        cf, result = state["cf"], PassResult()
        for argv in state["calls"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = result.call(argv[0], cf.cli.main, argv)
            text = out.getvalue()
            result.outputs.append(text)
            if code is None:
                continue
            result.record.append((argv[0], code, hashlib.sha256(text.encode()).hexdigest()))
            if code != 0:
                result.failures.append(f"{' '.join(argv)}: exit {code}: {err.getvalue()}")
            else:
                result.items += 1
        return result

    def verify(self, state, result: PassResult) -> list[str]:
        """Compare each call's stdout with the library's own answer."""
        cf, model = state["cf"], state["model"]
        out = result.outputs
        failures = []
        if not out[0].rstrip().endswith("result: ok"):
            failures.append("check: no 'result: ok'")
        for k, want in ((1, "p-estimate: >= 2"), (2, "p-estimate: >= 0")):
            if want not in out[k]:
                failures.append(f"classify: expected {want!r}")
        pos = 3
        for A in state["cells"]:
            inv = cf.nerve.cell_from_json(model, json.loads(out[pos]))
            if inv != cf.invert.t_inverse(model, A, 1):
                failures.append("invert: output differs from t_inverse")
            folded = cf.nerve.cell_from_json(model, json.loads(out[pos + 1]))
            if folded != cf.core.phi(model, A, 2):
                failures.append("fold: output differs from phi")
            pos += 2
        for word, i in state["words"]:
            res = cf.perms.boundary_word(cf.perms.parse_word(word), i)
            want = str(res) if res.letters else "1"
            if out[pos].strip() != want:
                failures.append(f"perm boundary {word!r} --i {i}: {out[pos]!r} != {want!r}")
            pos += 1
        for F in state["tables"]:
            data = json.loads(out[pos])
            G = cf.transfor.to_oplax(F)
            images = [{k: list(FA.payload[p]) for p, (_, k) in enumerate(model.elements(FA.dim))}
                      for _, FA in G.pairs()]
            if data["variance"] != "oplax" or [e["image"] for e in data["entries"]] != images:
                failures.append("transfor: output differs from to_oplax")
            pos += 1
        return failures

    def teardown(self, state) -> None:
        shutil.rmtree(state["workdir"], ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()  # once no other state's directory is left


def _table_json(cf, F) -> dict:
    """A lax transfor table in the file format `cubeforge transfor` reads."""
    def assignment(model, A):
        return {k: list(A.payload[p]) for p, (_, k) in enumerate(model.elements(A.dim))}

    return {
        "adc_source": cf.adc.to_json_dict(F.source.K),
        "adc_target": cf.adc.to_json_dict(F.target.K),
        "variance": F.variance,
        "p": F.p,
        "entries": [
            {"dim": A.dim, "cell": assignment(F.source, A), "image": assignment(F.target, FA)}
            for A, FA in F.pairs()
        ],
    }


WORKLOADS = {w.name: w for w in (AxiomSuite(), Enumerate(), Invert(), Cli())}
