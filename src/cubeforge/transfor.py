"""Lax, oplax and pseudo transfor tables between cubical models.

A degree-p transfor from C to D sends every n-cell of C to an (n+p)-cell
of D.  The lax variant stores the p transfor directions first (faces
p+1..p+n of an image correspond to faces 1..n of the source cell); the
oplax variant stores them last.  Tables are finite by construction: a
table is total on an explicitly declared sample of source cells, and
validity is always relative to that sample.

The conversion between the two variants acts cellwise by the block-swap
permutation: a pseudo lax table (every image plainly invertible, with
pseudo boundary tables) converts to oplax by acting with the swap moving
the p transfor directions past the n source directions, and back with
the inverse swap.  The variance is a runtime tag, not a type split,
because conversion crosses it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .adc import mat_vec
from .core import Cell, CompositionError, CubModel, NotInvertible, Report
from .invert import is_plain_invertible, sigma_act
from .perms import rho

LAX = "lax"
OPLAX = "oplax"


@dataclass
class TransforTable:
    variance: str
    p: int
    source: CubModel
    target: CubModel
    entries: dict[int, list[tuple[Cell, Cell]]]
    _lookup: dict[tuple[int, object], Cell] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.variance not in (LAX, OPLAX):
            raise ValueError(f"unknown variance {self.variance!r}")
        for n, pairs in self.entries.items():
            for src, img in pairs:
                if img.dim != src.dim + self.p:
                    raise ValueError(
                        f"dimension law violated: {src.dim}-cell mapped to "
                        f"{img.dim}-cell under a degree-{self.p} table"
                    )
                self._lookup[(n, src.payload)] = img

    def image(self, A: Cell) -> Cell | None:
        return self._lookup.get((A.dim, A.payload))

    def dims(self) -> list[int]:
        return sorted(self.entries)

    def pairs(self) -> Iterable[tuple[Cell, Cell]]:
        for n in self.dims():
            yield from self.entries[n]

    def same_table(self, other: "TransforTable") -> bool:
        if (self.variance, self.p) != (other.variance, other.p):
            return False
        if set(self._lookup) != set(other._lookup):
            return False
        return all(
            self._lookup[k].payload == other._lookup[k].payload for k in self._lookup
        )


def make_table(
    variance: str,
    p: int,
    source: CubModel,
    target: CubModel,
    pairs: Iterable[tuple[Cell, Cell]],
) -> TransforTable:
    entries: dict[int, list[tuple[Cell, Cell]]] = {}
    for src, img in pairs:
        entries.setdefault(src.dim, []).append((src, img))
    return TransforTable(variance, p, source, target, entries)


# ---------------------------------------------------------------------------
# validation


def validate_transfor(F: TransforTable) -> Report:
    """Check the four equation families of the declared variance.

    Instances are checked wherever the needed source cells are present
    in the sample; the report counts what was applicable.
    """
    report, checked = Report(), Counter()
    src_model, tgt, p = F.source, F.target, F.p
    for n in F.dims():
        for A, FA in F.entries[n]:
            # boundaries
            for i in range(1, n + 1):
                for a in "-+":
                    lower_img = F.image(src_model.face(A, i, a))
                    if lower_img is None:
                        continue
                    checked["boundary"] += 1
                    tgt_dir = p + i if F.variance == LAX else i
                    if not tgt.equal(tgt.face(FA, tgt_dir, a), lower_img):
                        report.violations.append(
                            f"boundary law fails at dim {n}, i={i}, alpha={a}"
                        )
            # degeneracies and connections of source cells
            for i in range(1, n + 1):
                E = src_model.deg(A, i)
                img = F.image(E)
                if img is not None:
                    checked["degeneracy"] += 1
                    tgt_dir = p + i if F.variance == LAX else i
                    if not tgt.equal(img, tgt.deg(FA, tgt_dir)):
                        report.violations.append(
                            f"degeneracy law fails at dim {n}, i={i}"
                        )
                if n >= 1 and i <= n:
                    for a in "-+":
                        G = src_model.conn(A, i, a)
                        imgG = F.image(G)
                        if imgG is not None:
                            checked["connection"] += 1
                            tgt_dir = p + i if F.variance == LAX else i
                            if not tgt.equal(imgG, tgt.conn(FA, tgt_dir, a)):
                                report.violations.append(
                                    f"connection law fails at dim {n}, i={i}, alpha={a}"
                                )
        # compositions
        sample = F.entries[n]
        for i in range(1, n + 1):
            by_minus: dict[object, list[tuple[Cell, Cell]]] = {}
            for B, FB in sample:
                by_minus.setdefault(src_model.face(B, i, "-").payload, []).append((B, FB))
            for A, FA in sample:
                for B, FB in by_minus.get(src_model.face(A, i, "+").payload, ()):
                    AB = src_model.comp(A, B, i)
                    FAB = F.image(AB)
                    if FAB is None:
                        continue
                    checked["composition"] += 1
                    tgt_dir = p + i if F.variance == LAX else i
                    try:
                        composed = tgt.comp(FA, FB, tgt_dir)
                    except CompositionError:
                        report.violations.append(
                            f"images not composable at dim {n}, i={i}"
                        )
                        continue
                    if not tgt.equal(FAB, composed):
                        report.violations.append(
                            f"composition law fails at dim {n}, i={i}"
                        )
    report.checked = dict(checked)
    return report


# ---------------------------------------------------------------------------
# the cubical operations on tables


def transfor_face(F: TransforTable, i: int, alpha: str) -> TransforTable:
    if not 1 <= i <= F.p:
        raise ValueError(f"no transfor face {i} at degree {F.p}")
    out = []
    for A, FA in F.pairs():
        tgt_dir = i if F.variance == LAX else A.dim + i
        out.append((A, F.target.face(FA, tgt_dir, alpha)))
    return make_table(F.variance, F.p - 1, F.source, F.target, out)


def transfor_deg(F: TransforTable, i: int) -> TransforTable:
    if not 1 <= i <= F.p + 1:
        raise ValueError(f"no transfor degeneracy {i} at degree {F.p}")
    out = []
    for A, FA in F.pairs():
        tgt_dir = i if F.variance == LAX else A.dim + i
        out.append((A, F.target.deg(FA, tgt_dir)))
    return make_table(F.variance, F.p + 1, F.source, F.target, out)


def transfor_conn(F: TransforTable, i: int, alpha: str) -> TransforTable:
    if not 1 <= i <= F.p:
        raise ValueError(f"no transfor connection {i} at degree {F.p}")
    out = []
    for A, FA in F.pairs():
        tgt_dir = i if F.variance == LAX else A.dim + i
        out.append((A, F.target.conn(FA, tgt_dir, alpha)))
    return make_table(F.variance, F.p + 1, F.source, F.target, out)


def transfor_comp(F: TransforTable, G: TransforTable, i: int) -> TransforTable:
    if (F.variance, F.p) != (G.variance, G.p):
        raise ValueError("mismatched tables")
    if not 1 <= i <= F.p:
        raise ValueError(f"no transfor composition {i} at degree {F.p}")
    out = []
    for A, FA in F.pairs():
        GA = G.image(A)
        if GA is None:
            raise ValueError("tables must share their sample domain")
        tgt_dir = i if F.variance == LAX else A.dim + i
        out.append((A, F.target.comp(FA, GA, tgt_dir)))
    return make_table(F.variance, F.p, F.source, F.target, out)


# ---------------------------------------------------------------------------
# pseudo transfors and the conversion isomorphism


def is_pseudo(F: TransforTable, direct_samples: int = 0, rng=None) -> bool:
    """The recursive characterisation, with an optional direct cross-check.

    Degree 0 tables are always pseudo; otherwise every image of a
    positive-dimensional cell must be plainly invertible and every
    transfor face must be pseudo.  With `direct_samples` > 0, that many
    entries are additionally checked against the definition (the image
    is invertible for the block-swap permutation action).
    """
    if F.p == 0:
        return True
    for A, FA in F.pairs():
        if A.dim >= 1 and not is_plain_invertible(F.target, FA):
            return False
    for i in range(1, F.p + 1):
        for alpha in "-+":
            if not is_pseudo(transfor_face(F, i, alpha)):
                return False
    if direct_samples:
        pairs = list(F.pairs())
        if rng is not None:
            rng.shuffle(pairs)
        for A, FA in pairs[:direct_samples]:
            swap = rho(A.dim, F.p) if F.variance == LAX else rho(F.p, A.dim)
            try:
                sigma_act(F.target, FA, swap)
            except NotInvertible:
                return False
    return True


def _convert(F: TransforTable, to_variance: str) -> TransforTable:
    out = []
    for A, FA in F.pairs():
        swap = rho(A.dim, F.p) if F.variance == LAX else rho(F.p, A.dim)
        out.append((A, sigma_act(F.target, FA, swap)))
    return make_table(to_variance, F.p, F.source, F.target, out)


def to_oplax(F: TransforTable) -> TransforTable:
    """Convert a pseudo lax table to the oplax variant, cellwise."""
    if F.variance != LAX:
        raise ValueError("to_oplax expects a lax table")
    return _convert(F, OPLAX)


def to_lax(F: TransforTable) -> TransforTable:
    """Convert a pseudo oplax table back to the lax variant."""
    if F.variance != OPLAX:
        raise ValueError("to_lax expects an oplax table")
    return _convert(F, LAX)


# ---------------------------------------------------------------------------
# constructors over nerve models


def chain_map_transfor(source, target, matrices: Sequence, dims: Sequence[int],
                       bound: int) -> TransforTable:
    """The degree-0 table induced by a chain map between the coefficient
    complexes: postcompose every enumerated cell's assignment.

    `matrices[k]` maps degree-k chains of the source complex to the
    target complex (rows indexed by the target basis).
    """
    def push(chain: tuple, k: int) -> tuple:
        if k >= len(matrices) or target.K.rank(k) == 0:
            return target.zero_chain(k)
        return mat_vec(matrices[k], chain)

    out = []
    for n in dims:
        for A in source.cells(n, bound):
            values = {
                name: push(source.value(A, name), k)
                for k, name in source.elements(n)
            }
            out.append((A, target.make(n, values)))
    return make_table(LAX, 0, source, target, out)


def homotopy_lax_transfor(source, target, f_minus: Sequence, f_plus: Sequence,
                          h: Sequence, dims: Sequence[int], bound: int) -> TransforTable:
    """The lax 1-transfor induced by a chain homotopy between chain maps.

    `f_minus`/`f_plus` are per-degree matrices of chain maps K -> L;
    `h[k]` maps degree-k chains of K to degree-(k+1) chains of L with

        d o h + h o d = eta (f_plus - f_minus),

    where eta is +1 under the target-minus-source convention and -1
    otherwise.  The image of an n-cell A is the (n+1)-cell whose slot-1
    symbol selects f_minus, f_plus, or h applied to A's assignment.
    """
    K, L = source.K, target.K
    if K.d_convention != L.d_convention:
        raise ValueError("source and target must share a d_convention")
    eta = 1 if K.d_convention == "target-minus-source" else -1

    def apply(mats, k: int, chain: tuple, out_degree: int) -> tuple:
        if target.K.rank(out_degree) == 0:
            return target.zero_chain(out_degree)
        if k >= len(mats) or not chain:
            return target.zero_chain(out_degree)
        return mat_vec(mats[k], chain)

    def boundary_L(degree: int, v: tuple) -> tuple:
        if degree > L.top:
            return target.zero_chain(degree - 1)
        return L.d(degree, v)

    # check the homotopy law on generators before building anything
    for k in range(K.top + 1):
        for j in range(K.rank(k)):
            e = tuple(1 if m == j else 0 for m in range(K.rank(k)))
            lhs = list(boundary_L(k + 1, apply(h, k, e, k + 1)))
            if k >= 1:
                for t, c in enumerate(apply(h, k - 1, K.d(k, e), k)):
                    lhs[t] += c
            rhs = tuple(
                eta * (p - m)
                for p, m in zip(apply(f_plus, k, e, k), apply(f_minus, k, e, k))
            )
            if tuple(lhs) != rhs:
                raise ValueError(f"homotopy law fails on a degree-{k} generator")

    out = []
    for n in dims:
        for A in source.cells(n, bound):
            values = {}
            for k, u in target.elements(n + 1):
                head, tail = u[0], u[1:]
                chain = source.value(A, tail)
                if head == "-":
                    values[u] = apply(f_minus, k, chain, k)
                elif head == "+":
                    values[u] = apply(f_plus, k, chain, k)
                else:
                    values[u] = apply(h, k - 1, chain, k)
            out.append((A, target.make(n + 1, values)))
    return make_table(LAX, 1, source, target, out)


class _Retry(Exception):
    pass


def random_homotopy_data(source, target, rng, coeff_bound: int = 1,
                         tries: int = 400, start=None):
    """Seeded random (f_minus, f_plus, h) triples satisfying the laws.

    Chain maps are built column by column through the target's bounded
    chain solver (so cone preservation is automatic); the homotopy is
    then solved degree by degree, retrying on dead ends.  Deterministic
    for a fixed rng state.  Passing `start` (per-degree matrices) pins
    f_minus, which makes chains of composable transfors constructible.
    """
    K, L = source.K, target.K
    eta = 1 if K.d_convention == "target-minus-source" else -1
    solver = target.solver

    def unit(k: int, j: int) -> tuple:
        return tuple(1 if m == j else 0 for m in range(K.rank(k)))

    def cols_to_matrix(cols, out_rank: int):
        return [[col[r] for col in cols] for r in range(out_rank)]

    def apply_cols(cols, chain: tuple, out_rank: int) -> tuple:
        out = [0] * out_rank
        for j, c in enumerate(chain):
            if c:
                for r in range(out_rank):
                    out[r] += c * cols[j][r]
        return tuple(out)

    def random_chain_map():
        mats_cols = []
        for k in range(K.top + 1):
            cols = []
            for j in range(K.rank(k)):
                if k == 0:
                    cands = solver.vertex_chains(coeff_bound)
                else:
                    rhs = apply_cols(mats_cols[k - 1], K.d(k, unit(k, j)),
                                     L.rank(k - 1))
                    cands = solver.chains_with_boundary(k, rhs, coeff_bound)
                if not cands:
                    raise _Retry
                cols.append(rng.choice(cands))
            mats_cols.append(cols)
        return mats_cols

    def matrix_to_cols(mats):
        return [
            [tuple(mats[k][r][j] for r in range(L.rank(k)))
             for j in range(K.rank(k))]
            for k in range(K.top + 1)
        ]

    for _ in range(tries):
        try:
            fm_cols = matrix_to_cols(start) if start is not None else random_chain_map()
            fp_cols = random_chain_map()
            h_cols = []
            for k in range(K.top + 1):
                cols = []
                for j in range(K.rank(k)):
                    e = unit(k, j)
                    rhs = [
                        eta * (p - m)
                        for p, m in zip(
                            apply_cols(fp_cols[k], e, L.rank(k)),
                            apply_cols(fm_cols[k], e, L.rank(k)),
                        )
                    ]
                    if k >= 1:
                        back = apply_cols(h_cols[k - 1], K.d(k, e), L.rank(k))
                        rhs = [a - b for a, b in zip(rhs, back)]
                    cands = solver.chains_with_boundary(k + 1, tuple(rhs), coeff_bound)
                    if not cands:
                        raise _Retry
                    cols.append(rng.choice(cands))
                h_cols.append(cols)
            f_minus = [cols_to_matrix(fm_cols[k], L.rank(k)) for k in range(K.top + 1)]
            f_plus = [cols_to_matrix(fp_cols[k], L.rank(k)) for k in range(K.top + 1)]
            h = [cols_to_matrix(h_cols[k], L.rank(k + 1)) for k in range(K.top + 1)]
            return f_minus, f_plus, h
        except _Retry:
            continue
    raise RuntimeError("no homotopy data found within the retry budget")
