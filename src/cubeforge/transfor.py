"""Lax, oplax and pseudo transfor tables between cubical models.

A degree-p transfor from C to D sends every n-cell of C to an (n+p)-cell
of D.  The lax variant stores the p transfor directions first (faces
p+1..p+n of an image correspond to faces 1..n of the source cell); the
oplax variant stores them last.  Tables are finite by construction: a
table is total on an explicitly declared sample of source cells, and
validity is always relative to that sample.

Between nerves every lax table comes from one construction: a chain map
Phi: cube(p) ⊗ K -> L sends the n-cell A to the (n+p)-cell s t |->
Phi(s ⊗ A(t)) (`tensor_transfor`, after Brown and Higgins); chain maps
(p = 0) and chain homotopies (p = 1) are its named cases.

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
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .adc import ChainMap, _apply, _columns, cube, tensor
from .core import Cell, CompositionError, CubModel, NotInvertible, Report, _face_keys, _match
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
        # compositions: every composable pair of the sample
        sample = F.entries[n]
        key = _face_keys(src_model, [A for A, _ in sample], n)
        for i in range(1, n + 1):
            for x, y in _match(key[(i, "+")], key[(i, "-")], len(sample) ** 2):
                (A, FA), (B, FB) = sample[x], sample[y]
                FAB = F.image(src_model.comp(A, B, i))
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
# constructors over nerve models: chain maps out of cube(p) ⊗ K


def _push(target, cols: Sequence, k: int, chain: tuple, out_degree: int) -> tuple:
    """The degree-`out_degree` target chain that the columns `cols[k]` send
    a source chain to (zero where `cols` has no degree k)."""
    if k >= len(cols):
        return target.zero_chain(out_degree)
    return _apply(cols[k], chain, target.K.rank(out_degree))


@lru_cache(maxsize=None)
def _cube_tensor(p: int, K) -> tuple:
    """cube(p) ⊗ K, with each degree-m generator s ⊗ e as (s, k, j): e is
    K's j-th degree-k generator, and k = m - zeros(s)."""
    T = tensor(cube(p, K.d_convention), K)
    return T, tuple(tuple((s, m - s.count("0"), K.basis_index(m - s.count("0"), e))
                          for s, e in (name.split("⊗", 1) for name in names))
                    for m, names in enumerate(T.degrees))


def tensor_transfor(source, target, Phi: Mapping[str, Sequence], p: int,
                    dims: Sequence[int], bound: int) -> TransforTable:
    """The lax p-transfor of a chain map Phi: cube(p) ⊗ K -> L (see above).

    `Phi[s][k]` maps degree-k chains of K to degree-(k + zeros(s)) chains
    of L, rows indexed by L's basis, for each sign sequence s of cube(p).
    Phi's chain-map law, augmentation included, is checked first.
    """
    K, L = source.K, target.K
    if K.d_convention != L.d_convention:
        raise ValueError("source and target must share a d_convention")
    T, gens = _cube_tensor(p, K)
    cols = {s: [_columns(m, K.rank(k)) for k, m in enumerate(mats)] for s, mats in Phi.items()}
    terms = tuple(tuple(cols[s][k][j] if k < len(cols[s]) else () for s, k, j in row)
                  for row in gens)
    if not ChainMap(T, L, terms).is_chain_map():
        raise ValueError(f"Phi is not a chain map out of cube({p}) ⊗ K")
    out = []
    for n in dims:
        slots = [(u, cols[u[:p]], k - u[:p].count("0"), u[p:], k)
                 for k, u in target.elements(n + p)]
        for A in source.cells(n, bound):
            values = {u: _push(target, s_cols, k_src, source.value(A, t), k)
                      for u, s_cols, k_src, t, k in slots}
            out.append((A, target.make(n + p, values)))
    return make_table(LAX, p, source, target, out)


def chain_map_transfor(source, target, matrices: Sequence, dims: Sequence[int],
                       bound: int) -> TransforTable:
    """The degree-0 table of a chain map K -> L (`matrices[k]` on degree
    k): `tensor_transfor` at p = 0."""
    return tensor_transfor(source, target, {"": matrices}, 0, dims, bound)


def homotopy_lax_transfor(source, target, f_minus: Sequence, f_plus: Sequence,
                          h: Sequence, dims: Sequence[int], bound: int) -> TransforTable:
    """The lax 1-transfor of a chain homotopy: `tensor_transfor` at p = 1.

    `f_minus`/`f_plus` are per-degree matrices of chain maps K -> L and
    `h[k]` maps degree k to degree k+1, with d h + h d = eta (f_plus -
    f_minus) for eta = `adc.orientation_sign`: Phi's chain-map law.
    """
    return tensor_transfor(source, target, {"-": f_minus, "+": f_plus, "0": h}, 1,
                           dims, bound)


def random_tensor_map(source, target, p: int, rng, coeff_bound: int = 1,
                      tries: int = 400, fixed: Mapping[str, Sequence] | None = None) -> dict:
    """A seeded random chain map Phi: cube(p) ⊗ K -> L, as `tensor_transfor` takes it.

    The column of each generator s ⊗ e is drawn from the target's bounded
    chain solver (so cones are preserved), ordered by s's number of 0s,
    then by s with - < + < 0, then by e's degree and index, so that the
    boundary is mapped first; a dead end retries from scratch.  `fixed`
    pins the blocks of some s, which draw nothing.
    """
    fixed = fixed or {}
    K, L = source.K, target.K
    T, gens = _cube_tensor(p, K)
    order = sorted((s.count("0"), ["-+0".index(c) for c in s], k, j, m, b)
                   for m, row in enumerate(gens) for b, (s, k, j) in enumerate(row))
    for _ in range(tries):
        cols = {}
        for *_, m, b in order:
            s, k, j = gens[m][b]
            if s in fixed:
                cols[s, k, j] = tuple(row[j] for row in fixed[s][k])
                continue
            rhs = (1,)  # a vertex's boundary: its augmentation
            if m:
                rhs = tuple(sum(c * cols[gens[m - 1][r]][i] for c, r in T.columns[m][b])
                            for i in range(L.rank(m - 1)))
            cands = target.solver.chains_with_boundary(m, rhs, coeff_bound)
            if not cands:
                break
            cols[s, k, j] = rng.choice(cands)
        else:  # every column drawn: Phi[s][k] has L.rank(k + zeros(s)) rows
            by_zeros = cube(p, K.d_convention).degrees
            return {s: fixed[s] if s in fixed else
                    [[[cols[s, k, j][r] for j in range(K.rank(k))]
                      for r in range(L.rank(k + zeros))] for k in range(K.top + 1)]
                    for zeros, signs in enumerate(by_zeros) for s in signs}
    raise RuntimeError("no homotopy data found within the retry budget")


def random_homotopy_data(source, target, rng, coeff_bound: int = 1,
                         tries: int = 400, start=None):
    """Seeded random (f_minus, f_plus, h): `random_tensor_map` at p = 1.
    A `start` (per-degree matrices) pins f_minus, so that composable
    transfors can be drawn one after another."""
    Phi = random_tensor_map(source, target, 1, rng, coeff_bound, tries,
                            None if start is None else {"-": start})
    return Phi["-"], Phi["+"], Phi["0"]
