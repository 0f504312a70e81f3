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
because conversion crosses it; only `TransforTable.source_dir`,
`transfor_dir` and `swap` read it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .adc import mat_vec, orientation_sign
from .core import Cell, CompositionError, CubModel, NotInvertible, Report
from .invert import is_plain_invertible, sigma_act
from .perms import Perm, rho

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

    def source_dir(self, i: int) -> int:
        """The image direction of source direction i."""
        return self.p + i if self.variance == LAX else i

    def transfor_dir(self, n: int, i: int) -> int:
        """The image direction of transfor direction i on an n-cell."""
        return i if self.variance == LAX else n + i

    def swap(self, n: int) -> Perm:
        """The block swap taking an n-cell's image to the other variance."""
        return rho(n, self.p) if self.variance == LAX else rho(self.p, n)


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


def _lift(F: TransforTable, variance: str, p: int,
          image: Callable[[Cell, Cell], Cell]) -> TransforTable:
    """The table on F's sample that sends A to image(A, F(A))."""
    return make_table(variance, p, F.source, F.target,
                      [(A, image(A, FA)) for A, FA in F.pairs()])


# ---------------------------------------------------------------------------
# validation

# (family, operation, directions beyond n, sign arguments): each family
# checks F(op_i A) == op_{source_dir(i)} F(A) for i in 1..n+extra.
_LAWS = (
    ("boundary", "face", 0, (("-",), ("+",))),
    ("degeneracy", "deg", 1, ((),)),
    ("connection", "conn", 0, (("-",), ("+",))),
)


def validate_transfor(F: TransforTable) -> Report:
    """Check the four equation families of the declared variance.

    Instances are checked wherever the needed source cells are present
    in the sample; the report counts what was applicable.
    """
    report, checked = Report(), Counter()
    src_model, tgt = F.source, F.target
    laws = [(family, getattr(src_model, op), getattr(tgt, op), extra, signs)
            for family, op, extra, signs in _LAWS]
    for n in F.dims():
        for A, FA in F.entries[n]:
            for family, src_op, tgt_op, extra, signs in laws:
                for i in range(1, n + 1 + extra):
                    for sign in signs:
                        img = F.image(src_op(A, i, *sign))
                        if img is None:
                            continue
                        checked[family] += 1
                        if not tgt.equal(img, tgt_op(FA, F.source_dir(i), *sign)):
                            at = "".join(f", alpha={a}" for a in sign)
                            report.violations.append(f"{family} law fails at dim {n}, i={i}{at}")
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
                    try:
                        composed = tgt.comp(FA, FB, F.source_dir(i))
                    except CompositionError:
                        report.violations.append(f"images not composable at dim {n}, i={i}")
                        continue
                    if not tgt.equal(FAB, composed):
                        report.violations.append(f"composition law fails at dim {n}, i={i}")
    report.checked = dict(checked)
    return report


# ---------------------------------------------------------------------------
# the cubical operations on tables


def transfor_face(F: TransforTable, i: int, alpha: str) -> TransforTable:
    if not 1 <= i <= F.p:
        raise ValueError(f"no transfor face {i} at degree {F.p}")
    return _lift(F, F.variance, F.p - 1,
                 lambda A, FA: F.target.face(FA, F.transfor_dir(A.dim, i), alpha))


def transfor_deg(F: TransforTable, i: int) -> TransforTable:
    if not 1 <= i <= F.p + 1:
        raise ValueError(f"no transfor degeneracy {i} at degree {F.p}")
    return _lift(F, F.variance, F.p + 1,
                 lambda A, FA: F.target.deg(FA, F.transfor_dir(A.dim, i)))


def transfor_conn(F: TransforTable, i: int, alpha: str) -> TransforTable:
    if not 1 <= i <= F.p:
        raise ValueError(f"no transfor connection {i} at degree {F.p}")
    return _lift(F, F.variance, F.p + 1,
                 lambda A, FA: F.target.conn(FA, F.transfor_dir(A.dim, i), alpha))


def transfor_comp(F: TransforTable, G: TransforTable, i: int) -> TransforTable:
    if (F.variance, F.p) != (G.variance, G.p):
        raise ValueError("mismatched tables")
    if not 1 <= i <= F.p:
        raise ValueError(f"no transfor composition {i} at degree {F.p}")

    def image(A: Cell, FA: Cell) -> Cell:
        GA = G.image(A)
        if GA is None:
            raise ValueError("tables must share their sample domain")
        return F.target.comp(FA, GA, F.transfor_dir(A.dim, i))

    return _lift(F, F.variance, F.p, image)


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
            try:
                sigma_act(F.target, FA, F.swap(A.dim))
            except NotInvertible:
                return False
    return True


def _convert(F: TransforTable, to_variance: str) -> TransforTable:
    return _lift(F, to_variance, F.p,
                 lambda A, FA: sigma_act(F.target, FA, F.swap(A.dim)))


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


def _push(target, mats: Sequence, k: int, chain: tuple, out_degree: int) -> tuple:
    """The degree-`out_degree` target chain that `mats[k]` sends a source
    chain to (zero where either side has no generators)."""
    if target.K.rank(out_degree) == 0 or k >= len(mats) or not chain:
        return target.zero_chain(out_degree)
    return mat_vec(mats[k], chain)


def _unit(K, k: int, j: int) -> tuple:
    return tuple(1 if m == j else 0 for m in range(K.rank(k)))


def _homotopy_rhs(target, K, eta: int, f_minus, f_plus, h, k: int, e: tuple) -> tuple:
    """eta (f_plus - f_minus)(e) - h(d e): what d h(e) must equal."""
    rhs = [eta * (p - m) for p, m in zip(_push(target, f_plus, k, e, k),
                                         _push(target, f_minus, k, e, k))]
    if k >= 1:
        rhs = [a - b for a, b in zip(rhs, _push(target, h, k - 1, K.d(k, e), k))]
    return tuple(rhs)


def chain_map_transfor(source, target, matrices: Sequence, dims: Sequence[int],
                       bound: int) -> TransforTable:
    """The degree-0 table induced by a chain map between the coefficient
    complexes: postcompose every enumerated cell's assignment.

    `matrices[k]` maps degree-k chains of the source complex to the
    target complex (rows indexed by the target basis).
    """
    out = []
    for n in dims:
        for A in source.cells(n, bound):
            values = {
                name: _push(target, matrices, k, source.value(A, name), k)
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
    eta = orientation_sign(K.d_convention)

    # check the homotopy law on generators before building anything
    for k in range(K.top + 1):
        for j in range(K.rank(k)):
            e = _unit(K, k, j)
            he = _push(target, h, k, e, k + 1)
            dh = L.d(k + 1, he) if k + 1 <= L.top else target.zero_chain(k)
            if tuple(dh) != _homotopy_rhs(target, K, eta, f_minus, f_plus, h, k, e):
                raise ValueError(f"homotopy law fails on a degree-{k} generator")

    out = []
    for n in dims:
        for A in source.cells(n, bound):
            values = {}
            for k, u in target.elements(n + 1):
                head, tail = u[0], u[1:]
                chain = source.value(A, tail)
                if head == "-":
                    values[u] = _push(target, f_minus, k, chain, k)
                elif head == "+":
                    values[u] = _push(target, f_plus, k, chain, k)
                else:
                    values[u] = _push(target, h, k - 1, chain, k)
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
    eta = orientation_sign(K.d_convention)
    solver = target.solver

    def cols_to_matrix(cols, out_rank: int):
        return [[col[r] for col in cols] for r in range(out_rank)]

    def random_chain_map():
        mats = []
        for k in range(K.top + 1):
            cols = []
            for j in range(K.rank(k)):
                if k == 0:
                    cands = solver.vertex_chains(coeff_bound)
                else:
                    rhs = _push(target, mats, k - 1, K.d(k, _unit(K, k, j)), k - 1)
                    cands = solver.chains_with_boundary(k, rhs, coeff_bound)
                if not cands:
                    raise _Retry
                cols.append(rng.choice(cands))
            mats.append(cols_to_matrix(cols, L.rank(k)))
        return mats

    for _ in range(tries):
        try:
            f_minus = start if start is not None else random_chain_map()
            f_plus = random_chain_map()
            h = []
            for k in range(K.top + 1):
                cols = []
                for j in range(K.rank(k)):
                    rhs = _homotopy_rhs(target, K, eta, f_minus, f_plus, h, k, _unit(K, k, j))
                    cands = solver.chains_with_boundary(k + 1, rhs, coeff_bound)
                    if not cands:
                        raise _Retry
                    cols.append(rng.choice(cands))
                h.append(cols_to_matrix(cols, L.rank(k + 1)))
            return f_minus, f_plus, h
        except _Retry:
            continue
    raise RuntimeError("no homotopy data found within the retry budget")
