"""Command-line front end.

Subcommands: ``check`` (complex validation plus the cubical axiom suite
on bounded samples of its nerve), ``classify`` (sample-based least-p
estimation), ``invert`` / ``fold`` (single-cell computations), ``perm``
(word and permutation calculations) and ``transfor`` (conversion between
the lax and oplax variants).

Inputs are file paths; wherever a complex is expected, the shorthand
specs ``disk:N`` and ``cube:N`` also work and honour ``--orientation``
(files carry their own stored convention).  All randomness flows through
``--seed``; output is byte-identical for fixed inputs, seed and flags.
Exit codes: 0 success, 1 violations, a non-invertible input or a stdout
closed by its reader, 2 parse or usage errors (an empty sample, an `--i`
naming no direction of the cell, two flags of which only one is read, a
`perm` ambient above `MAX_AMBIENT`, a `disk:N` / `cube:N` above
`MAX_SPEC`), and exhausted search budgets.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import __version__
from .adc import (
    SOURCE_MINUS_TARGET,
    TARGET_MINUS_SOURCE,
    Adc,
    cube,
    disk,
    from_json_dict,
    load_adc,
    to_json_dict,
    validate,
)
from .core import BudgetExceeded, CompositionError, NotInvertible, check_axioms, phi, psi
from .invert import classify_omega_p, r_inverse, sigma_act, t_inverse
from .nerve import (
    NcModel,
    assignment_from_json,
    assignment_to_json,
    cell_from_json,
    cell_to_json,
)
from .perms import (
    BCWord,
    TWord,
    boundary_word,
    eval_bc_word,
    eval_word,
    length,
    min_rep,
    parse_word,
    rho,
)
from .transfor import (
    LAX,
    OPLAX,
    make_table,
    to_lax,
    to_oplax,
    validate_transfor,
)


class CliError(Exception):
    """A usage or parse failure (exit code 2)."""


ORIENTATIONS = {"printed": TARGET_MINUS_SOURCE, "flipped": SOURCE_MINUS_TARGET}
# what `load_adc` and `from_json_dict` raise on JSON of the wrong shape (a
# JSONDecodeError is a ValueError)
MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


# the largest N of a `disk:N` / `cube:N` spec: no search on cube(N >= 5) at
# bound >= 1 fits `nerve.SEARCH_BUDGET`, so a larger cube only costs its build
MAX_SPEC = {"disk": 1000, "cube": 8}


def resolve_adc(ref: str, orientation: str) -> Adc:
    kind, colon, n = ref.partition(":")
    if colon and kind in MAX_SPEC:
        if not (n.isascii() and n.removeprefix("-").isdigit()):
            raise CliError(f"{kind}:N needs an integer N, got {ref!r}")
        if int(n) < 0:
            raise CliError(f"{kind}:N needs N >= 0, got {ref!r}")
        if int(n) > MAX_SPEC[kind]:
            raise CliError(f"{kind}:N needs N <= {MAX_SPEC[kind]}, got {ref!r}")
        return (disk if kind == "disk" else cube)(int(n), ORIENTATIONS[orientation])
    try:
        return load_adc(ref)
    except FileNotFoundError:
        raise CliError(f"no such file: {ref}")
    except OSError as exc:
        raise CliError(f"cannot read {ref}: {exc.strerror}")
    except MALFORMED as exc:
        raise CliError(f"cannot parse complex from {ref}: {exc}")


def adc_from_ref_obj(data: dict, key: str, orientation: str, what: str) -> Adc:
    """The complex that `data[key]` names: an inline dict or a spec/path."""
    ref = data.get(key)
    if isinstance(ref, dict):
        try:
            return from_json_dict(ref)
        except MALFORMED as exc:
            why = f"no field {exc}" if isinstance(exc, KeyError) else exc
            raise CliError(f"bad {what}: cannot read the complex {key!r}: {why}")
    if isinstance(ref, str):
        return resolve_adc(ref, orientation)
    raise CliError("complex reference must be a dict, a path, or disk:N / cube:N")


def load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot parse {path}: {exc}")
    if not isinstance(data, dict):
        raise CliError(f"bad {what}: expected a JSON object, not {type(data).__name__}")
    return data


def emit(payload: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def header(K: Adc | None = None) -> list[str]:
    lines = [f"cubeforge {__version__}"]
    if K is not None:
        lines.append(f"complex: {K.name or '(unnamed)'}  d_convention: {K.d_convention}")
    return lines


def parse_dims(text: str) -> list[int]:
    a, dots, b = text.partition("..")
    ends = (a, b) if dots else (a,)
    if not all(s.isascii() and s.removeprefix("-").isdigit() for s in ends):
        raise CliError(f"--dims must be N or START..END in integers, got {text!r}")
    lo, hi = int(a), int(ends[-1])
    if lo < 0:
        raise CliError(f"--dims must be >= 0, got {text!r}")
    if hi < lo:
        raise CliError(f"empty dimension range {text!r}")
    return list(range(lo, hi + 1))


def require_nonneg(args, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag) < 0:
            raise CliError(f"--{flag.replace('_', '-')} must be >= 0, got {getattr(args, flag)}")


def require_at_most(value: int, max_dim: int, flag: str) -> None:
    """Reject a dimension above the nerve's bound, where no cell can be built."""
    if value > max_dim:
        raise CliError(f"{flag} must be <= {max_dim}, the nerve's dimension bound, got {value}")


def require_sample(n: int, size: int, args) -> None:
    """Reject an empty sample of n-cells, on which every verdict is vacuous."""
    if not size:
        drawn = f" or, at random, at bound {args.bound + 1}" if args.random else ""
        raise CliError(f"no {n}-cells at bound {args.bound}{drawn}, so nothing to check")


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    require_nonneg(args, "dim", "bound", "random", "max_pairs")
    K = resolve_adc(args.adc, args.orientation)
    model = NcModel(K)
    require_at_most(args.dim, model.max_dim, "--dim")
    adc_report = validate(K)
    cells = {}
    rng = random.Random(args.seed)
    for n in range(args.dim + 1):
        cells[n] = list(model.cells(n, args.bound))
        if args.random:
            cells[n] = cells[n] + model.sample_cells(n, args.random, args.bound + 1, rng)
        require_sample(n, len(cells[n]), args)
    report = check_axioms(model, args.dim, cells, max_pairs=args.max_pairs)
    ok = adc_report.ok and report.ok
    payload = {
        "version": __version__,
        "d_convention": K.d_convention,
        "complex": K.name,
        "dim": args.dim,
        "bound": args.bound,
        "seed": args.seed,
        "cells": {str(n): len(v) for n, v in cells.items()},
        "complex_violations": sorted(adc_report.violations),
        "checked": dict(sorted(report.checked.items())),
        "violations": sorted(str(v) for v in report.violations),
        "ok": ok,
    }
    lines = header(K)
    lines.append(f"dim {args.dim}, bound {args.bound}, seed {args.seed}")
    lines.append(
        "sample: " + ", ".join(f"{n}-cells: {len(cells[n])}" for n in sorted(cells))
    )
    for v in payload["complex_violations"]:
        lines.append(f"complex violation: {v}")
    lines.append(report.summary())
    lines.append("result: " + ("ok" if ok else "violations found"))
    emit(payload, args.format, lines)
    return 0 if ok else 1


def cmd_classify(args) -> int:
    require_nonneg(args, "bound", "random")
    dims = parse_dims(args.dims)
    K = resolve_adc(args.adc, args.orientation)
    model = NcModel(K)
    require_at_most(dims[-1], model.max_dim, "--dims end")
    if dims[0] < 1:
        raise CliError(f"--dims start must be >= 1, as plain invertibility needs, got {dims[0]}")
    rng = random.Random(args.seed)
    report = classify_omega_p(
        model, dims, bound=args.bound, extra_random=args.random, rng=rng
    )
    for e in report.evidence:
        require_sample(e.dim, e.checked, args)
    payload = {
        "version": __version__,
        "d_convention": K.d_convention,
        "complex": K.name,
        "dims": dims,
        "bound": args.bound,
        "seed": args.seed,
        "p_estimate": report.p_estimate,
        "consistent": report.consistent,
        "evidence": [
            {
                "dim": e.dim,
                "checked": e.checked,
                "all_invertible": e.all_invertible,
                "witness": repr(e.witness) if e.witness is not None else None,
            }
            for e in report.evidence
        ],
    }
    lines = header(K)
    lines.append(f"dims {dims}, bound {args.bound}, seed {args.seed}")
    lines.append(report.summary())
    emit(payload, args.format, lines)
    return 0


def _load_cell(path: str, orientation: str):
    data = load_json(path, f"cell file {path}")
    K = adc_from_ref_obj(data, "adc", orientation, f"cell file {path}")
    model = NcModel(K)
    try:
        cell = cell_from_json(model, data)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad cell file {path}: {exc}")
    return model, cell


def _emit_cell(model, cell, fmt: str) -> None:
    payload = cell_to_json(model, cell)
    payload["version"] = __version__
    lines = header(model.K)
    lines.append(f"{payload['kind']} {cell.dim}-cell:")
    for name in sorted(payload["assignment"]):
        lines.append(f"  {name or chr(0x2205)}: {payload['assignment'][name]}")
    emit(payload, fmt, lines)


def cmd_invert(args) -> int:
    model, cell = _load_cell(args.cell, args.orientation)
    if args.kind in ("R", "T"):
        if args.i is None:
            raise CliError(f"--i is required for kind {args.kind}")
        what, top = {"R": ("direction", cell.dim), "T": ("transposition", cell.dim - 1)}[args.kind]
        if not 1 <= args.i <= top:
            raise CliError(f"no {what} {args.i} on a {cell.dim}-cell")
    try:
        if args.kind == "R":
            out = r_inverse(model, cell, args.i)
        elif args.kind == "T":
            out = t_inverse(model, cell, args.i)
        else:
            if not args.sigma:
                raise CliError("--sigma is required for kind sigma")
            word = parse_word(args.sigma, ambient=cell.dim)
            if isinstance(word, BCWord):
                raise CliError("sigma words use T generators only")
            out = sigma_act(model, cell, eval_word(word))
    except NotInvertible as exc:
        print(f"not invertible: {exc}", file=sys.stderr)
        return 1
    _emit_cell(model, out, args.format)
    return 0


def cmd_fold(args) -> int:
    model, cell = _load_cell(args.cell, args.orientation)
    try:
        if args.psi is not None:
            out = psi(model, cell, args.psi)
        else:
            depth = cell.dim if args.phi is None else args.phi
            out = phi(model, cell, depth)
    except (ValueError, CompositionError) as exc:
        raise CliError(str(exc))
    _emit_cell(model, out, args.format)
    return 0


def _format_word(w: TWord | BCWord) -> str:
    return str(w) if (w.letters if isinstance(w, TWord) else w.letters) else "1"


# the largest ambient S_n `perm` computes in (`length` is quadratic in n)
MAX_AMBIENT = 1000
# the message refusing an R generator, per action that reads T words only
T_ONLY = {"eval": "use bc-eval for words containing R generators",
          "boundary": "boundaries act on T words", "length": "length acts on T words",
          "minrep": "minrep acts on T words"}


def cmd_perm(args) -> int:
    out: dict = {"version": __version__}
    if args.action == "rho":
        require_nonneg(args, "n", "m")
        ambient = args.n + args.m
    else:
        if args.action == "boundary" and args.i is None:
            raise CliError("--i is required for boundary")
        w = parse_word(args.word)
        if isinstance(w, BCWord) and args.action in T_ONLY:
            raise CliError(T_ONLY[args.action])
        ambient = w.ambient
    if ambient > MAX_AMBIENT:
        raise CliError(f"ambient {ambient} is above {MAX_AMBIENT}, the largest perm computes in")
    if args.action == "eval":
        out["images"] = list(eval_word(w).images)
        text = "(" + " ".join(map(str, out["images"])) + ")"
    elif args.action == "boundary":
        res = boundary_word(w, args.i)
        out["word"] = str(res)
        text = _format_word(res)
    elif args.action == "length":
        out["length"] = length(eval_word(w))
        text = str(out["length"])
    elif args.action == "minrep":
        res = min_rep(eval_word(w))
        out["word"] = str(res)
        text = _format_word(res)
    elif args.action == "rho":
        p = rho(args.n, args.m)
        out["images"] = list(p.images)
        text = "(" + " ".join(map(str, p.images)) + ")"
    elif args.action == "bc-eval":
        if isinstance(w, TWord):
            w = BCWord(w.ambient, tuple(("T", i) for i in w.letters))
        s = eval_bc_word(w)
        out["images"] = list(s.images)
        text = "(" + " ".join(map(str, s.images)) + ")"
    else:  # pragma: no cover
        raise CliError(f"unknown action {args.action!r}")
    if args.format == "json":
        print(json.dumps(out, sort_keys=True))
    else:
        print(text)
    return 0


def cmd_transfor(args) -> int:
    data = load_json(args.table, "table file")
    src = NcModel(adc_from_ref_obj(data, "adc_source", args.orientation, "table file"))
    tgt = NcModel(adc_from_ref_obj(data, "adc_target", args.orientation, "table file"))
    variance = data.get("variance", LAX)
    try:
        p, entries = data.get("p", 0), data["entries"]
        if type(p) is not int or p < 0:
            raise ValueError(f"p must be an int >= 0, not {p!r}")
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValueError("entries must be a list of JSON objects")
        if not entries:
            raise ValueError("no entries, so nothing to validate")
        pairs = [(assignment_from_json(src, e["dim"], e["cell"]),
                  assignment_from_json(tgt, e["dim"] + p, e["image"])) for e in entries]
        table = make_table(variance, p, src, tgt, pairs)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad table file: {exc}")
    report = validate_transfor(table)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        return 1
    if args.to:
        try:
            table = to_oplax(table) if args.to == OPLAX else to_lax(table)
        except NotInvertible as exc:
            print(f"not invertible: {exc}", file=sys.stderr)
            return 1
        check = validate_transfor(table)
        if not check.ok:
            print(check.summary(), file=sys.stderr)
            return 1
    payload = {
        "version": __version__,
        "d_convention": tgt.K.d_convention,
        "variance": table.variance,
        "p": table.p,
        "adc_source": to_json_dict(src.K),
        "adc_target": to_json_dict(tgt.K),
        "entries": [
            {
                "dim": A.dim,
                "cell": assignment_to_json(src, A),
                "image": assignment_to_json(tgt, FA),
            }
            for A, FA in table.pairs()
        ],
    }
    lines = header(tgt.K)
    lines.append(f"{table.variance} {table.p}-transfor, {len(payload['entries'])} entries")
    lines.append("valid: yes")
    emit(payload, args.format, lines)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cubeforge",
        description="cubical omega-categories with connections, at desk scale",
    )
    parser.add_argument("--version", action="version", version=f"cubeforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--orientation", choices=sorted(ORIENTATIONS), default="printed")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("check", help="validate a complex and its nerve axioms")
    p.add_argument("--adc", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=int, default=0, help="extra random cells per dim")
    p.add_argument("--max-pairs", type=int, default=60)
    common(p)

    p = sub.add_parser("classify", help="sample-based (omega, p) classification")
    p.add_argument("--adc", required=True)
    p.add_argument("--dims", required=True, help="a range like 1..2")
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=int, default=0)
    common(p)

    p = sub.add_parser("invert", help="invert a serialized nerve cell")
    p.add_argument("--cell", required=True)
    p.add_argument("--kind", choices=["R", "T", "sigma"], required=True)
    word = p.add_mutually_exclusive_group()  # R and T read --i, sigma --sigma
    word.add_argument("--i", type=int)
    word.add_argument("--sigma", help='a word like "T1 T2"')
    common(p)

    p = sub.add_parser("fold", help="fold a serialized nerve cell")
    p.add_argument("--cell", required=True)
    fold = p.add_mutually_exclusive_group()
    fold.add_argument("--phi", type=int, help="fold depth (default: full)")
    fold.add_argument("--psi", type=int, help="single elementary fold index")
    common(p)

    p = sub.add_parser("perm", help="word and permutation computations")
    p.add_argument("action", choices=["eval", "boundary", "length", "minrep", "rho", "bc-eval"])
    p.add_argument("--word", default="")
    p.add_argument("--i", type=int)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    common(p)

    p = sub.add_parser("transfor", help="validate or convert a transfor table")
    p.add_argument("--table", required=True)
    p.add_argument("--to", choices=[LAX, OPLAX])
    common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        # found by name when called, so the parser, built once, holds no command
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a reader that left early breaks the pipe here at the latest
        return code
    except BrokenPipeError:  # so that the flush at exit writes nowhere, not a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before all was written", file=sys.stderr)
        return 1
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}; lower the dimension or the bound", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
