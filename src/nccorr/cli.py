"""Command-line front end: sweeps, single-state measurement, state generation
and the closed-form verification suite.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from .core import NccorrError, NoConvergence, NonHermitian, ParamOutOfRange, ProductBasis
from . import measures, search, states, verify
from .measures import Partition
from .search import SearchConfig
from .sweep import FAMILIES, MEASURE_ORDER, SweepSpec, run_sweep

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERIC = 3


def _parse_measures(text: str) -> tuple:
    """Requested measure names, upper-cased, each once at its first position."""
    items = tuple(dict.fromkeys(m.strip().upper() for m in text.split(",") if m.strip()))
    bad = [m for m in items if m not in MEASURE_ORDER]
    if bad:
        raise ParamOutOfRange(f"unknown measures {bad}; choose from {','.join(MEASURE_ORDER)}")
    if not items:
        raise ParamOutOfRange("empty measure list")
    return items


def _at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            pass
        else:
            if value >= low:
                return value
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


_nonneg_int = _at_least(0)
_pos_int = _at_least(1)


def _dims(text: str) -> tuple:
    """Comma-separated integers; `random_density_matrix` checks them as dims."""
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers such as 2,2, got {text!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    """Usage errors end in one line on stderr and exit code 2."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        n_samples=args.samples,
        seed=args.seed,
        refine_steps=args.refine_steps,
        chunk_size=args.chunk_size,
    )


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=_nonneg_int, default=SearchConfig.n_samples,
                   help=f"random bases per D evaluation; the best {search._N_STARTS} start the descent")
    p.add_argument("--seed", type=int, default=SearchConfig.seed, help="search seed")
    p.add_argument("--refine-steps", type=_nonneg_int, default=SearchConfig.refine_steps,
                   help="most Newton rounds of the D descent per start, each "
                        f"scoring {len(search._TRIALS)} steps (0 = no descent)")


def _add_measure_flags(p: argparse.ArgumentParser) -> None:
    names = ",".join(MEASURE_ORDER)
    p.add_argument("--measures", default=names, help=f"comma-separated subset of {names}")
    _add_search_flags(p)
    p.add_argument("--partition-cap", type=_pos_int, default=measures.DEFAULT_PARTITION_CAP,
                   help="G refuses subsystem k when dims[k]^d_tot exceeds this; only the "
                        "balanced assignments are enumerated")
    p.add_argument("--chunk-size", type=_pos_int, default=SearchConfig.chunk_size,
                   help="samples the D search makes and scores at a time, on one thread; "
                        "bounds a call's memory (never changes results); a search of one "
                        "chunk keeps its samples for the run, one set per dims")


def _serialize_witness(witness) -> object:
    if isinstance(witness, ProductBasis):
        return {"type": "product_basis", "factors": [states._complex_pairs(f) for f in witness.factors]}
    if isinstance(witness, list) and witness and isinstance(witness[0], Partition):
        return {
            "type": "partitions",
            "per_subsystem": [
                {"k": p.k, "assignment": list(p.assignment)} for p in witness
            ],
        }
    if isinstance(witness, tuple) and len(witness) == 2:
        return {"type": "splitting", "side_a": list(witness[0]), "side_b": list(witness[1])}
    return witness


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        family=args.family,
        param_start=args.param_from,
        param_end=args.param_to,
        steps=args.steps,
        measures=_parse_measures(args.measures),
        search=_search_config(args),
        partition_cap=args.partition_cap,
    )
    text = run_sweep(spec)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_measure(args) -> int:
    rho = states.load_state(args.state)
    cfg = _search_config(args)
    requested = _parse_measures(args.measures)
    out = {}
    for m in requested:
        rep = measures.MEASURES[m](rho, cfg, args.partition_cap)
        out[m] = {
            "value": rep.value,
            "witness": _serialize_witness(rep.witness),
            "diagnostics": rep.diagnostics,
        }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def _reject_flags(source: str, **flags) -> None:
    """Refuse gen-state flags that do not apply to the chosen state source."""
    stray = [f"--{name}" for name, value in flags.items() if value is not None]
    if stray:
        raise ParamOutOfRange(f"{' and '.join(stray)} cannot be used with {source}")


def cmd_gen_state(args) -> int:
    if args.family is not None:
        _reject_flags("--family", rank=args.rank, seed=args.seed)
        if args.param is None:
            raise ParamOutOfRange("--param is required with --family")
        rho = FAMILIES[args.family][0](args.param)
    else:
        _reject_flags("--dims", param=args.param)
        rank = args.rank if args.rank is not None else math.prod(args.dims)
        seed = args.seed if args.seed is not None else 1
        rho = states.random_density_matrix(args.dims, rank, seed)
    states.store_state(rho, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    seconds = {}
    cfg = SearchConfig(n_samples=args.samples, seed=args.seed, refine_steps=args.refine_steps)
    checks = verify.run_all(cfg, seconds)
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: {c.detail}")
        failed += 0 if c.passed else 1
    for name, s in seconds.items():
        print(f"{name}: {s:.3f} s")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nccorr",
        description="Correlation measures D, G, D_G, K and negativity on density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="sweep a state family and write a CSV of measures")
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--from", dest="param_from", type=float, required=True)
    p.add_argument("--to", dest="param_to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    _add_measure_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("measure", help="measure a stored state, JSON report to stdout")
    p.add_argument("state", help="path to a JSON state file")
    _add_measure_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("gen-state", help="write a state file (family member or random)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=tuple(FAMILIES))
    source.add_argument("--dims", type=_dims, help="comma-separated dims for a random state, e.g. 2,2")
    p.add_argument("--param", type=float, help="family parameter (--family only)")
    p.add_argument("--rank", type=int, help="rank of the random state (--dims only; default full)")
    p.add_argument("--seed", type=_nonneg_int, help="seed of the random state (--dims only; default 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_state)

    p = sub.add_parser("verify", help="run the closed-form regression suite")
    _add_search_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NoConvergence, NonHermitian, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (NccorrError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
