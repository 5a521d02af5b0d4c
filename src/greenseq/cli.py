"""Command-line front end.

Subcommands: ``generate`` (family generators and built-in fixtures),
``mgs`` (construct and self-verify a maximal green sequence), ``verify``
(check a sequence file against a quiver file), ``search`` (exhaustive
oracle), and ``export`` (DOT or JSON).

Exit codes: 0 success / verified true, 1 verified false, 2 invalid input,
3 search budget exceeded.  Reports are printed to stdout as JSON, written
once at command end; a one-line human summary goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import fixtures
from .cartan import UnsupportedTypeError, cartan_data
from .decomposition import (
    ChainDecomposition,
    construct_mgs,
    decomposition_from_dict,
    decomposition_to_dict,
    expected_mgs_length,
    random_decomposition,
    underlying_quiver,
)
from .families import auto_decompose, linear_a
from .hl import hl_ball, hl_quiver, parse_hl_label
from .oracle import (
    DEFAULT_MUTABLE_CAP,
    DEFAULT_NODE_CAP,
    BudgetExceededError,
    min_mgs_length,
    oracle_report,
)
from .quiver import (
    STILL_GREEN,
    IceQuiver,
    MutationSequence,
    Quiver,
    QuiverError,
    final_state,
    frame,
    is_maximal_green_sequence,
)
from .serialize import (
    quiver_from_dict,
    quiver_to_dict,
    sequence_from_dict,
    sequence_to_dict,
    to_dot,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise CliError(f"{path} is not valid JSON: {err}")


def _load_plain_quiver(path: str) -> Quiver:
    try:
        loaded = quiver_from_dict(_load_json(path))
    except QuiverError as err:
        raise CliError(f"{path}: {err}")
    if isinstance(loaded, IceQuiver):
        raise CliError(f"{path}: expected a quiver without frozen vertices")
    return loaded


def _load_sequence(path: str, default_order: str) -> MutationSequence:
    try:
        return sequence_from_dict(_load_json(path), default_order)
    except QuiverError as err:
        raise CliError(f"{path}: {err}")


def _emit(report: dict, summary: str) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _cmd_generate(args) -> int:
    dec: ChainDecomposition | None = None
    if args.fixture:
        maker = fixtures.FIXTURE_QUIVERS.get(args.fixture)
        if maker is None:
            raise CliError(
                f"unknown fixture {args.fixture!r}; "
                f"available: {', '.join(sorted(fixtures.FIXTURE_QUIVERS))}"
            )
        q = maker()
        tag = args.fixture
    elif args.family == "linear-a":
        if args.n is None or args.n < 1:
            raise CliError("linear-a needs --n >= 1")
        q, dec = linear_a(args.n)
        tag = "linear-a"
    elif args.family == "hl":
        q = _generate_hl(args)
        tag = "hl"
    elif args.family == "random-qn":
        if args.chains is None:
            raise CliError("random-qn needs --chains")
        try:
            dec = random_decomposition(args.seed, args.chains, args.max_vertices)
        except QuiverError as err:
            raise CliError(str(err))
        q = underlying_quiver(dec)
        tag = "random-qn"
    else:
        raise CliError("pass --family or --fixture")

    # refuse every requested output before writing any of them
    if dec is None and args.decomposition_out:
        raise CliError(f"{tag} does not produce a decomposition")
    report = {
        "family": tag,
        "quiver": quiver_to_dict(q),
        "decomposition": decomposition_to_dict(dec) if dec is not None else None,
    }
    _write_json(args.quiver_out, report["quiver"])
    _write_json(args.decomposition_out, report["decomposition"])
    _emit(report, f"generated {tag}: {len(q.vertices)} vertices")
    return EXIT_OK


def _generate_hl(args) -> Quiver:
    if args.window == "fig4":
        if (args.type, args.rank) not in ((None, None), ("B", 2)):
            raise CliError("--window fig4 is the type B rank 2 window")
        return fixtures.fig4_quiver()
    if args.type is None or args.rank is None:
        raise CliError("hl needs --type and --rank (or --window fig4)")
    try:
        cartan = cartan_data(args.type, args.rank)
    except UnsupportedTypeError as err:
        raise CliError(str(err))
    if args.seed_vertex is None:
        raise CliError("hl needs --seed-vertex '(i,r)' and --radius")
    try:
        seed = parse_hl_label(args.seed_vertex)
    except QuiverError as err:
        raise CliError(str(err))
    window = hl_ball(cartan, seed, args.radius)
    return hl_quiver(cartan, window)


def _cmd_mgs(args) -> int:
    q = _load_plain_quiver(args.quiver)
    if args.decomposition:
        try:
            dec = decomposition_from_dict(_load_json(args.decomposition))
        except QuiverError as err:
            if getattr(err, "violations", None):
                raise  # main() emits the structured validation report
            raise CliError(f"{args.decomposition}: {err}")
        if underlying_quiver(dec) != q:
            raise CliError("decomposition does not present the given quiver")
        family = "explicit"
    else:
        found = auto_decompose(q)
        if found is None:
            raise CliError("no chain decomposition found for this quiver")
        family, dec = found
    seq = construct_mgs(dec)
    verdict = is_maximal_green_sequence(q, seq)
    report = {
        "family": family,
        "length": len(seq),
        "expected_length": expected_mgs_length(dec),
        "sequence": sequence_to_dict(seq),
        "verified": bool(verdict),
    }
    if not verdict:
        report["reason"] = verdict.reason
        _emit(report, f"self-verification FAILED: {verdict.reason}")
        return EXIT_FALSE
    _write_json(args.sequence_out, report["sequence"])
    _emit(report, f"constructed {len(seq)}-step maximal green sequence ({family})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    q = _load_plain_quiver(args.quiver)
    seq = _load_sequence(args.sequence, args.order)
    maximal = is_maximal_green_sequence(q, seq)
    # one pass: only a green sequence gets as far as the maximality check
    green = bool(maximal) or maximal.reason == STILL_GREEN
    report = {
        "length": len(seq),
        "green": green,
        "maximal_green": bool(maximal),
    }
    if not maximal:
        report["reason"] = maximal.reason
        if maximal.step_index is not None:
            report["step_index"] = maximal.step_index
        if maximal.vertex is not None:
            report["vertex"] = maximal.vertex
    _emit(
        report,
        "maximal green sequence"
        if maximal
        else f"not a maximal green sequence: {maximal.reason}",
    )
    return EXIT_OK if maximal else EXIT_FALSE


def _cmd_search(args) -> int:
    q = _load_plain_quiver(args.quiver)
    limits = {"node_cap": args.node_cap, "mutable_cap": args.mutable_cap}
    try:
        if args.mode == "min":
            value = min_mgs_length(q, args.max_len, **limits)
            report = {"min_length": value, "budget_exhausted": False}
            summary = f"minimal maximal-green-sequence length: {value}"
        else:
            report = oracle_report(
                q,
                args.max_len,
                include_sequences=args.mode == "enumerate",
                **limits,
            )
            if report["budget_exhausted"]:
                _emit(report, "search budget exceeded")
                return EXIT_BUDGET
            summary = f"maximal green sequences: {report['count']}"
    except BudgetExceededError as err:
        _emit(
            {"min_length": None, "count": None, "budget_exhausted": True},
            f"search budget exceeded: {err}",
        )
        return EXIT_BUDGET
    _emit(report, summary)
    return EXIT_OK


def _cmd_export(args) -> int:
    q = _load_plain_quiver(args.quiver)
    if args.format == "json":
        for flag, value in (("--sequence", args.sequence), ("--prefix", args.prefix)):
            if value is not None:
                raise CliError(f"{flag} applies only to --format dot")
        report = quiver_to_dict(q)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        state = frame(q)
        if args.prefix is not None and not args.sequence:
            raise CliError("--prefix needs --sequence")
        if args.sequence:
            seq = _load_sequence(args.sequence, args.order)
            steps = seq.steps
            if args.prefix is not None:
                if not 0 <= args.prefix <= len(steps):
                    raise CliError(
                        f"--prefix must be between 0 and the sequence length "
                        f"{len(steps)}, got {args.prefix}"
                    )
                steps = steps[: args.prefix]
            try:
                state = final_state(state, steps)
            except QuiverError as err:
                raise CliError(f"cannot apply sequence: {err}")
        text = to_dot(state)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="greenseq",
        description="Quiver mutation, chain decompositions, and green sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a quiver (and decomposition)")
    gen.add_argument("--family", choices=["linear-a", "hl", "random-qn"])
    gen.add_argument("--fixture", help="built-in example quiver, e.g. fig8")
    gen.add_argument("--n", type=int, help="linear-a: number of vertices")
    gen.add_argument("--type", help="hl: Dynkin type letter")
    gen.add_argument("--rank", type=int, help="hl: Dynkin rank")
    gen.add_argument("--window", help="hl: named window (fig4)")
    gen.add_argument("--seed-vertex", help="hl: window center as '(i,r)'")
    gen.add_argument("--radius", type=int, default=2, help="hl: window radius")
    gen.add_argument("--seed", type=int, default=0, help="random-qn: RNG seed")
    gen.add_argument("--chains", type=int, help="random-qn: number of chains")
    gen.add_argument(
        "--max-vertices", type=int, default=12, help="random-qn: vertex budget"
    )
    gen.add_argument("--quiver-out", help="write quiver JSON to this file")
    gen.add_argument("--decomposition-out", help="write decomposition JSON here")
    gen.set_defaults(handler=_cmd_generate)

    mgs = sub.add_parser("mgs", help="construct a maximal green sequence")
    mgs.add_argument("quiver", help="quiver JSON file")
    mgs.add_argument("--decomposition", help="decomposition JSON file")
    mgs.add_argument("--sequence-out", help="write the sequence JSON here")
    mgs.set_defaults(handler=_cmd_mgs)

    ver = sub.add_parser("verify", help="verify a sequence file")
    ver.add_argument("quiver")
    ver.add_argument("sequence")
    ver.add_argument(
        "--order",
        choices=["execution", "composition"],
        default="execution",
        help="order for sequence files without an explicit order field",
    )
    ver.set_defaults(handler=_cmd_verify)

    sea = sub.add_parser("search", help="exhaustive green-sequence oracle")
    sea.add_argument("quiver")
    sea.add_argument("--mode", choices=["count", "min", "enumerate"], default="count")
    sea.add_argument(
        "--max-len", type=int, help="consider only sequences of at most this length"
    )
    sea.add_argument(
        "--node-cap",
        type=int,
        default=DEFAULT_NODE_CAP,
        help="budget of mutations the search may make; exit 3 beyond it",
    )
    sea.add_argument(
        "--mutable-cap",
        type=int,
        default=DEFAULT_MUTABLE_CAP,
        help="refuse (exit 3) quivers with more vertices than this",
    )
    sea.set_defaults(handler=_cmd_search)

    exp = sub.add_parser("export", help="export DOT or JSON")
    exp.add_argument("quiver")
    exp.add_argument("--format", choices=["dot", "json"], required=True)
    exp.add_argument("--sequence", help="apply this sequence before DOT export")
    exp.add_argument("--prefix", type=int, help="apply only the first K steps of --sequence")
    exp.add_argument(
        "--order", choices=["execution", "composition"], default="execution"
    )
    exp.add_argument("--out", help="write to file instead of stdout")
    exp.set_defaults(handler=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as err:
        print(str(err), file=sys.stderr)
        return err.code
    except QuiverError as err:
        violations = getattr(err, "violations", None)
        if violations:
            # structured validation report, one entry per broken rule
            print(
                json.dumps(
                    {"violations": [v.to_dict() for v in violations]},
                    indent=2,
                    sort_keys=True,
                )
            )
        print(str(err), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
