"""Command-line interface.

Subcommands: enumerate, derive, classify, verify-closure, construct.
Exit codes: 0 success, 1 usage or input error, 2 internal invariant
violation (a semigroup-derived model failing a property that is
structurally guaranteed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import re
import sys
from pathlib import Path

from . import catalog as cat
from .cayley import CayleyFormatError, parse_tables, format_tables, enumerate_semigroups
from .closure import verify_multiplicative_closure
from .constructors import equivariant_model, fixture, group_based_model, group_spec
from .modelgen import ModelSubspace, model_orbit
from .symmetry import parse_perm

USAGE_ERROR = 1
INVARIANT_ERROR = 2

DEFAULTS = {"tolerance": 1e-6, "trials": 100, "seed": 0, "output_dir": "."}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for
    # internal invariant violations, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _load_config(path: str | None) -> dict:
    cfg = dict(DEFAULTS)
    if path:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(user) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in user.items():
            # a value takes its default's type; a float also takes an int, a bool is no number
            default = DEFAULTS[key]
            want = (int, float) if isinstance(default, float) else type(default)
            if isinstance(value, bool) or not isinstance(value, want):
                raise ValueError(
                    f"config key {key!r} must be {type(default).__name__}, got {value!r}"
                )
        cfg.update(user)
    return cfg


def _read_tables(path: str):
    try:
        return parse_tables(Path(path).read_text())
    except FileNotFoundError:
        raise ValueError(f"tables file not found: {path}") from None


def _write_out(text: str, out: str | None, output_dir: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        target = Path(out)
        if not target.is_absolute():
            target = Path(output_dir) / target
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


def _single_model_doc(sub: ModelSubspace, label: str | None) -> str:
    registry = cat.build_registry()
    key = model_orbit(sub).key
    entry_like = {
        "model_id": cat.model_id(sub.order, key),
        "dimension": sub.dim,
        "known_label": registry.get((sub.order, key), label),
        "generators": cat.generator_strings(sub),
    }
    return json.dumps({"order": sub.order, "entries": [entry_like]}, indent=2) + "\n"


def cmd_enumerate(args, cfg) -> int:
    tables = enumerate_semigroups(args.order)
    header = f"semigroups of order {args.order} up to isomorphism: {len(tables)}"
    _write_out(format_tables(tables, header=header), args.out, cfg["output_dir"])
    return 0


def cmd_derive(args, cfg) -> int:
    tables = _read_tables(args.tables) if args.tables else None
    entries = cat.run_pipeline(order=args.order, tables=tables)
    order = tables[0].order if tables else args.order
    _write_out(cat.render(entries, args.format, order=order), args.out, cfg["output_dir"])
    return 0


def cmd_classify(args, cfg) -> int:
    orders = [args.order] if args.order is not None else list(cat.PIPELINE_ORDERS)
    for k in orders:
        entries = cat.run_pipeline(order=k)
        try:
            entry = cat.find_entry(entries, args.model_id)
        except KeyError:
            continue
        sys.stdout.write(json.dumps(cat.entry_to_dict(entry), indent=2) + "\n")
        return 0
    raise ValueError(f"model id {args.model_id!r} not found in orders {orders}")


def cmd_verify_closure(args, cfg) -> int:
    entries = cat.run_pipeline(order=args.order)
    entry = cat.find_entry(entries, args.model_id)
    report = verify_multiplicative_closure(
        entry.report.subspace,
        trials=args.trials if args.trials is not None else cfg["trials"],
        tol=args.tol if args.tol is not None else cfg["tolerance"],
        seed=args.seed if args.seed is not None else cfg["seed"],
    )
    verdict = report.status.upper()
    print(
        f"{verdict} model {args.model_id} (order {args.order}): "
        f"max residual {report.max_residual:.3e} vs tol {report.tolerance:.1e} "
        f"over {report.numeric_trials} trials, {report.check} check"
    )
    detail = dataclasses.asdict(report)
    detail["lie_witness"] = None if report.lie_witness is None else "present"
    detail["algebra_witness"] = None if report.algebra_witness is None else "present"
    print(json.dumps(detail, indent=2))
    return 0


def cmd_construct(args, cfg) -> int:
    if args.kind == "group-based":
        tables = _read_tables(args.table)
        if len(tables) != 1:
            raise ValueError("group-based construction expects exactly one table block")
        sub = group_based_model(group_spec(tables[0].table))
        doc = _single_model_doc(sub, None)
    elif args.kind == "equivariant":
        # a comma ends a permutation only outside parentheses: "(1,2)(3,4),e"
        texts = re.split(r",(?![^()]*\))", args.perms)
        perms = [parse_perm(s, args.order) for s in texts]
        sub = equivariant_model(perms, args.order)
        doc = _single_model_doc(sub, None)
    elif args.kind == "fixture":
        fix = fixture(args.name)
        doc = _single_model_doc(fix.subspace, fix.name)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown construct kind {args.kind}")
    _write_out(doc, args.out, cfg["output_dir"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="liemarkov", description=__doc__)
    p.add_argument("--config", help="JSON config with tolerance/trials/seed/output_dir")
    p.add_argument("-v", "--verbose", action="store_true", help="log pipeline counts")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="enumerate semigroups up to isomorphism")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("derive", help="derive and classify models")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--order", type=int)
    source.add_argument("--tables", help="Cayley-table file instead of enumeration")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["json", "csv", "md"], default="json")
    sp.set_defaults(func=cmd_derive)

    sp = sub.add_parser("classify", help="print one catalog entry by model id")
    sp.add_argument("--model-id", required=True)
    sp.add_argument("--order", type=int)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify-closure", help="numeric multiplicative-closure check")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--model-id", required=True)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_verify_closure)

    sp = sub.add_parser("construct", help="build a model without enumeration")
    kinds = sp.add_subparsers(dest="kind", required=True)
    g = kinds.add_parser("group-based")
    g.add_argument("--table", required=True, help="file with one group Cayley table")
    g.add_argument("--out")
    g.set_defaults(func=cmd_construct)
    g = kinds.add_parser("equivariant")
    g.add_argument("--perms", required=True, help='e.g. "(1 2)(3 4),(1 3)(2 4)"')
    g.add_argument("--order", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_construct)
    g = kinds.add_parser("fixture")
    g.add_argument("--name", required=True, help="SYM, GM2, or JJ3")
    g.add_argument("--out")
    g.set_defaults(func=cmd_construct)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s",
    )
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except cat.PipelineInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except (ValueError, CayleyFormatError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message
        msg = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {msg}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
