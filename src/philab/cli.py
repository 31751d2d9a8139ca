"""Command-line interface.

Commands: id, types, isolate, config, define, embed, gen, verify.  JSON is
the machine format (`--format json`, keys sorted, byte-identical for
identical inputs and flags); text renders the same data, never more.

Exit codes: 0 success, 1 invariant violation (a failed verify suite or
certificate check), 2 structure parse error, 3 resource guard, 4 bad command
spec (a usage error, malformed literals, numbers, generator spec or suite
name, an empty seed list, or an unwritable output path).

`main` builds the argparse tree on its first call in a process and reuses it
for every later call there, dispatching through `COMMANDS` by command name;
a fresh `philab` process still builds it once.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .delta import ALL
from .errors import (
    InvariantError,
    LiteralClashError,
    PhilabError,
    ResourceLimitError,
    StructureParseError,
)
from .generators import (
    INTERVALS,
    UNIONS,
    EqRelSpec,
    gen_eqrel,
    gen_linear_order,
    gen_random_bounded,
    gen_shattered,
)
from .goodconfig import build_maximal, config_certificate
from .isolation import (
    embed_trace,
    find_isolating_subtype,
    isolated_extension,
    phi_defining_formula,
)
from .structure import BipartiteStructure, PhiType, parse_structure, serialize_structure
from .suites import SUITES
from .vc import independence_dimension

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_BAD_SPEC = 4

DEFAULT_ID_CAP = 6


class CliSpecError(PhilabError):
    """Malformed command arguments (exit 4)."""


# -- input sources -----------------------------------------------------------


def parse_generator_spec(spec: str) -> BipartiteStructure:
    """Inline generator grammar:

      shattered:K
      linear:POINTS[:b=I,J,...][:fill|:nofill]
      eqrel:P1,P2,...          (picks per class; class sizes are picks+1)
      random:FAMILY:SEED:X:Y   (FAMILY in {intervals, unions2})
    """
    head, _, rest = spec.partition(":")
    try:
        if head == "shattered":
            return gen_shattered(int(rest))
        if head == "linear":
            parts = rest.split(":") if rest else []
            if not parts or not parts[0]:
                raise CliSpecError("linear needs a point count")
            points = int(parts[0])
            b_indices: Optional[list[int]] = None
            fill = True
            for part in parts[1:]:
                if part.startswith("b="):
                    body = part[2:]
                    b_indices = [int(t) for t in body.split(",")] if body else []
                elif part == "fill":
                    fill = True
                elif part == "nofill":
                    fill = False
                else:
                    raise CliSpecError(f"unknown linear option {part!r}")
            if b_indices is None:
                b_indices = list(range(points))
            return gen_linear_order(points, b_indices, fill)
        if head == "eqrel":
            picks = [int(t) for t in rest.split(",") if t]
            if not picks:
                raise CliSpecError("eqrel needs at least one pick count")
            return gen_eqrel(EqRelSpec([p + 1 for p in picks], picks))
        if head == "random":
            family, seed, x_size, y_size = rest.split(":")
            family = {"intervals": INTERVALS, "unions2": UNIONS}.get(family)
            if family is None:
                raise CliSpecError("random family must be intervals or unions2")
            return gen_random_bounded(int(seed), int(x_size), int(y_size), family)
    except (ValueError, CliSpecError) as exc:
        raise CliSpecError(f"bad generator spec {spec!r}: {exc}") from None
    raise CliSpecError(f"unknown generator family {head!r}")


def load_structure(args) -> BipartiteStructure:
    if getattr(args, "input", None) and getattr(args, "gen", None):
        raise CliSpecError("give exactly one of -i/--input and --gen")
    if getattr(args, "input", None):
        try:
            text = Path(args.input).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise StructureParseError(str(exc), 0) from None
        return parse_structure(text)
    if getattr(args, "gen", None):
        return parse_generator_spec(args.gen)
    raise CliSpecError("an input source is required (-i or --gen)")


def parse_over(struct: BipartiteStructure, over: str) -> tuple[int, ...]:
    if over == "B":
        return struct.base_members()
    if over == "ALL":
        return tuple(range(struct.n))
    try:
        domain = tuple(int(t) for t in over.split(",") if t)
    except ValueError:
        raise CliSpecError(f"bad --over spec {over!r}") from None
    if len(set(domain)) != len(domain):
        raise CliSpecError(f"--over {over!r} repeats an index")
    return domain


def parse_lits(spec: str) -> PhiType:
    pairs = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, sign = token.partition("=")
        if sign not in ("0", "1"):
            raise CliSpecError(f"bad literal {token!r}, expected <param>=0|1")
        if name[:1] in ("b", "y"):
            name = name[1:]
        try:
            pairs.append((int(name), int(sign)))
        except ValueError:
            raise CliSpecError(f"bad literal parameter {token!r}") from None
    try:
        return PhiType(pairs)
    except LiteralClashError as exc:
        raise CliSpecError(str(exc)) from None


def resolve_type(struct: BipartiteStructure, args) -> PhiType:
    if getattr(args, "lits", None) and getattr(args, "of", None) is not None:
        raise CliSpecError("give exactly one of --of and --lits")
    if getattr(args, "lits", None):
        p = parse_lits(args.lits)
        for b in p.domain:
            struct.check_parameter(b)
        return p
    if getattr(args, "of", None) is not None:
        return struct.trace(args.of, parse_over(struct, args.over))
    raise CliSpecError("a type spec is required (--of or --lits)")


def parse_k_sat(value: str):
    if value == "all":
        return ALL
    try:
        k = int(value)
    except ValueError:
        raise CliSpecError("--k-sat must be `all` or a positive integer") from None
    if k < 1:
        raise CliSpecError("--k-sat must be >= 1")
    return k


# -- rendering ---------------------------------------------------------------


def emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def literals_json(p: PhiType) -> list[list[int]]:
    return [list(item) for item in p.items]


# -- commands ----------------------------------------------------------------


def cmd_id(args) -> int:
    struct = load_structure(args)
    if args.cap != "full" and not args.cap.isdecimal():
        raise CliSpecError(f"--cap must be `full` or an integer >= 0, not {args.cap!r}")
    cap = struct.n if args.cap == "full" else int(args.cap)
    report = independence_dimension(struct, cap)
    payload = {
        "id": report.id_value,
        "witness": list(report.witness),
        "capped": report.capped,
    }
    text = f"ID = {report.id_value}, witness = {list(report.witness)}"
    if report.capped:
        text += " (capped)"
    emit(args, payload, text)
    return EXIT_OK


def cmd_types(args) -> int:
    struct = load_structure(args)
    domain = parse_over(struct, args.over)
    space = struct.type_space(domain)
    full = len(space) == 2 ** len(domain)
    payload = {
        "domain": list(domain),
        "count": len(space),
        "independent": full,
        "types": [literals_json(t) for t in space],
    }
    lines = [f"{len(space)} types over {list(domain)}"
             f" ({'independent' if full else 'not independent'})"]
    for t in space:
        lines.append("  " + "".join(str(s) for _, s in t.items))
    emit(args, payload, "\n".join(lines))
    return EXIT_OK


def isolation_payload(struct, result) -> dict:
    formula = phi_defining_formula(struct, result.certificate)
    return {
        "type": literals_json(result.extension),
        "subtype": literals_json(result.certificate.subtype),
        "minimal": result.certificate.minimal,
        "config_pairs": [list(pair) for pair in result.configuration.pairs],
        "budget": {
            "2K": result.two_k,
            "2ID": result.two_id,
            "added": result.added_params,
            "ok": result.budget_ok,
        },
        "defining_formula": {
            "gamma": literals_json(formula.gamma),
            "on_base": [[b, int(formula.holds(b))] for b in struct.base_members()],
        },
        "diagnostic": result.diagnostic,
    }


def cmd_isolate(args) -> int:
    struct = load_structure(args)
    p = resolve_type(struct, args)
    result = isolated_extension(struct, p, parse_k_sat(args.k_sat))
    payload = isolation_payload(struct, result)
    text = (
        f"extension over {len(result.extension)} literals; "
        f"subtype size {result.certificate.size} "
        f"({'minimal' if result.certificate.minimal else 'greedy'}); "
        f"budget 2K={result.two_k} <= 2ID={result.two_id}; "
        f"diagnostic: {result.diagnostic or 'none'}"
    )
    emit(args, payload, text)
    return EXIT_OK


def cmd_config(args) -> int:
    struct = load_structure(args)
    p = resolve_type(struct, args)
    config = build_maximal(struct, p, args.strategy, parse_k_sat(args.k_sat))
    payload = config_certificate(struct, config)
    text = (
        f"size {payload['size']} configuration, pairs {payload['pairs']}, "
        f"ID = {payload['id']}, bound {'ok' if payload['bound_ok'] else 'VIOLATED'}"
    )
    emit(args, payload, text)
    return EXIT_OK if payload["bound_ok"] else EXIT_VIOLATION


def cmd_define(args) -> int:
    struct = load_structure(args)
    p = resolve_type(struct, args)
    cert = find_isolating_subtype(struct, p)
    formula = phi_defining_formula(struct, cert)
    values = [[b, int(formula.holds(b))] for b in struct.base_members()]
    payload = {
        "type": literals_json(p),
        "gamma": literals_json(cert.subtype),
        "minimal": cert.minimal,
        "on_base": values,
    }
    text = (
        f"gamma = {payload['gamma']} (size {cert.size}); "
        f"psi on base = {values}"
    )
    emit(args, payload, text)
    return EXIT_OK


def cmd_embed(args) -> int:
    struct = load_structure(args)
    formula, result = embed_trace(struct, args.element, parse_k_sat(args.k_sat))
    values = [[b, int(formula.holds(b))] for b in struct.base_members()]
    agree = all(
        bool(struct.truth[args.element][b]) == formula.holds(b)
        for b in struct.base_members()
    )
    payload = {
        "element": args.element,
        "gamma": literals_json(formula.gamma),
        "on_base": values,
        "agrees": agree,
        "diagnostic": result.diagnostic,
    }
    emit(
        args,
        payload,
        f"element {args.element}: psi matches its row on B: {agree}",
    )
    return EXIT_OK if agree else EXIT_VIOLATION


def cmd_gen(args) -> int:
    struct = parse_generator_spec(args.gen)
    text = serialize_structure(struct)
    if args.out:
        meta = dict(struct.meta or {})
        sidecar = {
            "family": meta.pop("family", None),
            "x": struct.m,
            "y": struct.n,
            "detail": {k: _meta_jsonable(v) for k, v in meta.items()},
        }
        try:
            Path(args.out).write_text(text)
            Path(args.out).with_suffix(".meta.json").write_text(
                json.dumps(sidecar, sort_keys=True) + "\n"
            )
        except OSError as exc:
            raise CliSpecError(f"cannot write {args.out!r}: {exc}") from None
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _meta_jsonable(value):
    if isinstance(value, tuple):
        return [_meta_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _meta_jsonable(v) for k, v in value.items()}
    return value


def _expand_seeds(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(s) for s in spec.split(",") if s]
    except (ValueError, OverflowError):
        raise CliSpecError(f"bad --seeds spec {spec!r}, expected LO..HI or A,B") from None
    if not seeds:
        raise CliSpecError(f"--seeds {spec!r} names no seed")
    return seeds


def verify_structures(args) -> list[tuple[str, BipartiteStructure]]:
    if args.input:
        if args.seeds:
            raise CliSpecError("--seeds only applies to random generators")
        return [(args.input, load_structure(args))]
    if not args.gen:
        raise CliSpecError("verify needs -i or --gen")
    if args.seeds:
        seeds = _expand_seeds(args.seeds)
        if args.gen == "random":
            specs = [
                f"random:{fam}:{seed}:20:6"
                for fam in ("intervals", "unions2")
                for seed in seeds
            ]
        elif args.gen.startswith("random:"):
            # a malformed spec fails in parse_generator_spec with exit 4
            parts = args.gen.split(":")
            specs = [":".join(parts[:2] + [str(seed)] + parts[3:]) for seed in seeds]
        else:
            raise CliSpecError("--seeds only applies to random generators")
        return [(spec, parse_generator_spec(spec)) for spec in specs]
    return [(args.gen, parse_generator_spec(args.gen))]


def cmd_verify(args) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        raise CliSpecError(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}"
        )
    report = suite(verify_structures(args))
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        status = "pass" if report["ok"] else "FAIL"
        print(f"suite {report['suite']}: {status}")
        shown = report["counterexamples"][:3]
        for ce in shown:
            print(json.dumps(ce, sort_keys=True))
        rest = len(report["counterexamples"]) - len(shown)
        if rest:
            print(f"... and {rest} more (use --format json for all)")
    return EXIT_OK if report["ok"] else EXIT_VIOLATION


# -- wiring ------------------------------------------------------------------

#: Command name -> handler, looked up when `main` runs, so a rebinding of an
#: entry (a test's monkeypatch, the benchmark tracer) takes effect even after
#: the shared parser exists; the parser itself holds no handler.
COMMANDS = {
    "id": cmd_id,
    "types": cmd_types,
    "isolate": cmd_isolate,
    "config": cmd_config,
    "define": cmd_define,
    "embed": cmd_embed,
    "gen": cmd_gen,
    "verify": cmd_verify,
}


def _add_source_args(sub) -> None:
    sub.add_argument("-i", "--input", help="structure file path")
    sub.add_argument("--gen", help="inline generator spec")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_type_args(sub) -> None:
    sub.add_argument("--of", type=int, help="element whose trace is the type")
    sub.add_argument(
        "--over", default="B", help="trace domain: B, ALL, or comma indices"
    )
    sub.add_argument("--lits", help="explicit literals, e.g. 3=1,7=0")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Usage errors exit 4: argparse's 2 is the parse error code here."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_SPEC, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the `philab` command line; `main` keeps one."""
    parser = _Parser(
        prog="philab",
        description="finite laboratory for partitioned-formula types",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("id", help="independence dimension")
    _add_source_args(sub)
    sub.add_argument("--cap", default=str(DEFAULT_ID_CAP), help="search cap or `full`")

    sub = subs.add_parser("types", help="type space over a domain")
    _add_source_args(sub)
    sub.add_argument("--over", default="ALL", help="domain: B, ALL, or comma indices")

    sub = subs.add_parser("isolate", help="isolated extension certificate")
    _add_source_args(sub)
    _add_type_args(sub)
    sub.add_argument("--k-sat", default="all", help="`all` or a positive integer")

    sub = subs.add_parser("config", help="maximal good configuration")
    _add_source_args(sub)
    _add_type_args(sub)
    sub.add_argument("--k-sat", default="all")
    sub.add_argument("--strategy", choices=("greedy", "exhaustive"), default="greedy")

    sub = subs.add_parser("define", help="defining formula of a type")
    _add_source_args(sub)
    _add_type_args(sub)

    sub = subs.add_parser("embed", help="defining formula for an element's trace")
    _add_source_args(sub)
    sub.add_argument("--element", type=int, required=True)
    sub.add_argument("--k-sat", default="all")

    sub = subs.add_parser("gen", help="emit a generated structure file")
    sub.add_argument("--gen", required=True, help="inline generator spec")
    sub.add_argument("-o", "--out", help="output path (sidecar written next to it)")

    sub = subs.add_parser("verify", help="run an invariant suite")
    _add_source_args(sub)
    sub.add_argument("--suite", required=True, help="|".join(sorted(SUITES)))
    sub.add_argument("--seeds", help="seed range for random generators, e.g. 0..99")

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        # built on the first call, not at import; later calls in the same
        # process reuse it (parsing leaves no state on the parser)
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except StructureParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except PhilabError as exc:
        # bad literals, unknown elements/parameters, violated preconditions
        print(f"bad spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC


if __name__ == "__main__":
    sys.exit(main())
