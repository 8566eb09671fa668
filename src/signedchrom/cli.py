"""Command-line interface.

Data commands print canonical JSON (stable byte-for-byte across runs) on
stdout; verification commands additionally print a human-readable summary on
stderr (on stdout instead with `--output text`).  `verify`,
`search-cochromatic` and `reproduce-tables` each print the dict their one
checking call returns; the CLI renders the summary line from it, times the
call and prints that wall time on stderr only.  Exit status: 0 success or
verification pass, 1 verification failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import chromatic, equivalence, verify
from .errors import BudgetExceededError, SignedChromError
from .graphs import (
    SignedGraph,
    all_positive,
    complete_graph,
    fixture,
    fixture_names,
    format_graph,
    graph_to_dict,
    parse_graph,
    threshold_graph,
)
from .poly import pair_to_json, unipoly_to_json

FORMAT_VERSION = 1


def _emit(args, payload: dict, text_lines=None) -> None:
    if args.output == "text" and text_lines is not None:
        for line in text_lines:
            print(line)
        return
    payload = {"format": FORMAT_VERSION, **payload}
    print(_json(payload))


def _json(obj, indent: str = "\n") -> str:
    """The text of `json.dumps(obj, indent=2)`, nested at `indent`.

    With an indent, `json` runs its pure-Python encoder.  Here strings go
    through the C function that `json` quotes them with, and Python only
    nests; what is not a str, int, bool, None or a non-empty dict, list or
    tuple of exactly those types is `json`'s own text, re-indented (JSON
    text has no raw newline but those between items)."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = indent + "  "
    if kind is dict and obj:
        items = [(_quote(k) if type(k) is str else _json_key(k)) + ": "
                 + (_quote(v) if type(v) is str else _json(v, inner)) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if (kind is list or kind is tuple) and obj:
        items = [_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int
                 else _json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(obj, indent=2).replace("\n", indent)


def _json_key(key) -> str:
    """A dict key that is not a str, quoted as `json` writes it."""
    if key is None or isinstance(key, (str, int, float)):  # bool is an int
        return _quote(key if isinstance(key, str) else json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _report(
    args, payload: dict, lines: list[str], passed: bool,
    elapsed: float | None = None, echo: int | None = None,
) -> int:
    """Emit a verification report; in JSON mode also echo lines[:echo] to
    stderr.  The wall time goes to stderr only, so stdout stays deterministic."""
    _emit(args, payload, lines)
    if args.output != "text":
        for line in lines[:echo]:
            print(line, file=sys.stderr)
    if elapsed is not None:
        print(f"wall time: {elapsed:.2f}s", file=sys.stderr)
    return 0 if passed else 1


def _timed(fn, *args):
    """fn(*args) and its wall time in seconds, for the stderr line of _report."""
    start = time.perf_counter()
    return fn(*args), time.perf_counter() - start


def _verdict(args, payload: dict, elapsed: float, extra=(), echo: int | None = None) -> int:
    """Report a checking function's payload under its summary line,
    `target (scale N): STATUS`, then the `extra` lines; exit 1 unless the
    status is pass."""
    summary = f"{payload['target']} (scale {payload['scale']}): {payload['status'].upper()}"
    return _report(args, payload, [summary, *extra], payload["status"] == "pass", elapsed, echo)


# Largest graph file read.  A file of K_256, the most edges MAX_VERTICES
# allows, holds 32,640 edge lines "e u v s" of at most 13 bytes each with a
# CRLF ending, 424,320 bytes in all; the cap leaves room for comments.
MAX_GRAPH_FILE_BYTES = 1 << 20


def _load_graph_file(path: str) -> SignedGraph:
    # The file is read in chunks, at most the cap plus one byte: a single
    # read of that many bytes would allocate them all even for a small file.
    chunks, size = [], 0
    try:
        with open(path, "rb") as fh:
            while size <= MAX_GRAPH_FILE_BYTES:
                chunk = fh.read(min(1 << 16, MAX_GRAPH_FILE_BYTES + 1 - size))
                if not chunk:
                    break
                chunks.append(chunk)
                size += len(chunk)
        if size > MAX_GRAPH_FILE_BYTES:
            raise BudgetExceededError(
                f"{path} exceeds the graph-file cap of {MAX_GRAPH_FILE_BYTES} bytes"
            )
        text = b"".join(chunks).decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise SignedChromError(f"cannot read {path}: {e}") from e
    return parse_graph(text)


def _resolve_underlying(name: str) -> SignedGraph:
    """petersen | complete:N | a fixture name | a .sg file path."""
    if name.startswith("complete:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise SignedChromError(f"bad vertex count in {name!r}") from None
        if n < 0:
            raise SignedChromError(f"bad vertex count in {name!r}")
        return complete_graph(n, 1)
    if name in fixture_names() or name.startswith(("plusK:", "minusK:")):
        return all_positive(fixture(name))
    return all_positive(_load_graph_file(name))


# Most colours `chrom --lambda` counts with.  A count on at most MAX_VERTICES
# vertices is at most (10^4)^256, 1,025 digits, well within the 4,300 digits
# Python turns into a decimal string.
MAX_COLOURS = 10**4


def _colours(args) -> tuple[int, int] | None:
    """(lambda, mu) of `chrom --lambda L [--mu M]`, or None without --lambda;
    bad values are refused before any pair is built."""
    lam, mu = args.lam, args.mu
    if lam is None:
        if mu is not None:
            raise SignedChromError("--mu needs --lambda")
        return None
    mu = mu or 0
    if mu < 0 or lam < mu:
        raise SignedChromError(f"need lam >= mu >= 0, got ({lam}, {mu})")
    if mu and not args.bivariate:
        raise SignedChromError("--mu > 0 needs --bivariate: the univariate pair is"
                               " the bivariate pair at mu = 0")
    if lam > MAX_COLOURS:
        raise BudgetExceededError(f"--lambda {lam} exceeds the colour cap of {MAX_COLOURS}")
    return lam, mu


def cmd_chrom(args) -> int:
    colours = _colours(args)
    g = _load_graph_file(args.file)
    if args.bivariate:
        pair = chromatic.bivariate_pair(g)
    else:
        pair = chromatic.chromatic_pair(g)
    payload = {"bivariate": args.bivariate, **pair_to_json(pair)}
    lines = [f"even: {pair.even}", f"odd: {pair.odd}"]
    if colours is not None:
        # A (lam, mu)-colour set holds 0 exactly when lam - mu is odd, which
        # the odd constituent counts.
        lam, mu = colours
        poly = (pair.odd if (lam - mu) % 2 else pair.even).substitute_y(mu)
        count = sum(c * lam**i for (i, _), c in poly.items())
        payload.update({"lambda": lam, "mu": mu, "count": str(count)})
        lines.append(f"count: {count}")
    _emit(args, payload, lines)
    return 0


def cmd_closed_form(args) -> int:
    from . import closedform  # loaded only by the two commands that use it

    pair = closedform.join_pair(args.family, args.l, args.m, args.n)
    _emit(
        args,
        {
            "family": args.family,
            "l": args.l,
            "m": args.m,
            "n": args.n,
            **pair_to_json(pair),
        },
        [f"even: {pair.even}", f"odd: {pair.odd}"],
    )
    return 0


def cmd_identities(args) -> int:
    from . import closedform

    payload = closedform.identity_suite(args.max)
    lines = []
    for r in payload["identities"]:
        line = (f"{r['name']}: {r['description']} [params <= {payload['max_param']},"
                f" {r['checked']} checks] {r['status'].upper()}")
        if r["counterexample"]:
            line += f"  first counterexample: {r['counterexample']}"
        lines.append(line)
    return _report(args, payload, lines, payload["all_pass"])


def _parse_code(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SignedChromError(f"bad threshold code {text!r}") from None


def cmd_threshold(args) -> int:
    code = _parse_code(args.code)
    if len(code) + 1 > chromatic.MAX_PEEL_N:  # the graph has one vertex more than the code
        raise BudgetExceededError(f"threshold code of length {len(code)} exceeds the cap of"
                                  f" {chromatic.MAX_PEEL_N - 1}, the peel cap less one vertex")
    pair = chromatic.bivariate_pair(threshold_graph(code))
    payload = {
        "code": list(code),
        **pair_to_json(pair),
        "even_univariate": unipoly_to_json(pair.even.substitute_y(0)),
        "odd_univariate": unipoly_to_json(pair.odd.substitute_y(0)),
    }
    _emit(
        args,
        payload,
        [
            f"even: {pair.even}",
            f"odd: {pair.odd}",
            f"even at y=0: {pair.even.substitute_y(0)}",
            f"odd at y=0: {pair.odd.substitute_y(0)}",
        ],
    )
    return 0


def cmd_enumerate(args) -> int:
    if args.spot_check < 0:
        raise SignedChromError(f"--spot-check must be >= 0, got {args.spot_check}")
    if args.spot_check > chromatic.MAX_PAIR_BATCH:
        raise BudgetExceededError(f"--spot-check {args.spot_check} exceeds the pair-batch"
                                  f" cap of {chromatic.MAX_PAIR_BATCH}")
    underlying = _resolve_underlying(args.underlying)
    mode = "switching_iso" if args.mode == "switch" else "iso"
    inventory = equivalence.enumerate_classes(underlying, mode)
    classes = []
    pairs = chromatic.chromatic_pairs(inventory.representatives)
    for idx, (rep, pair) in enumerate(zip(inventory.representatives, pairs)):
        classes.append(
            {
                "mask": inventory.representative_masks[idx],
                "orbit_size": inventory.orbit_sizes[idx],
                "edges": graph_to_dict(rep)["edges"],
                **pair_to_json(pair),
            }
        )
    payload = {
        "underlying": graph_to_dict(inventory.underlying),
        "mode": mode,
        "class_count": inventory.class_count,
        "classes": classes,
    }
    lines = [f"{inventory.class_count} classes ({mode})"]
    lines += [
        f"class {i}: mask={c['mask']} orbit_size={c['orbit_size']}"
        for i, c in enumerate(classes)
    ]
    mismatches = 0
    if args.spot_check:
        rng = random.Random(args.seed)
        masks = [rng.randrange(1 << inventory.underlying.m) for _ in range(args.spot_check)]
        members = [equivalence.graph_from_mask(inventory.underlying, mask) for mask in masks]
        for mask, pair in zip(masks, chromatic.chromatic_pairs(members)):
            mismatches += pair != pairs[inventory.classify(mask)]
        payload["spot_check"] = {
            "samples": args.spot_check,
            "seed": args.seed,
            "mismatches": mismatches,
        }
        lines.append(f"spot check: {payload['spot_check']}")
    _emit(args, payload, lines)
    return 0 if mismatches == 0 else 1


def cmd_search_cochromatic(args) -> int:
    underlying = _resolve_underlying(args.underlying)
    payload, elapsed = _timed(verify.search_cochromatic, underlying)
    groups = payload["details"]["cochromatic_groups"]
    return _verdict(args, payload, elapsed, [f"co-chromatic groups: {len(groups)}"], echo=1)


_CONJECTURES = {
    "cochromatic-complete": (
        verify.verify_conj_cochromatic_complete, 6, verify.MAX_COCHROMATIC_N
    ),
    "threshold": (verify.verify_conj_threshold, 8, verify.MAX_THRESHOLD_N),
    "bivariate-complete": (
        verify.verify_conj_complete_bivariate, 6, verify.MAX_BIVARIATE_N
    ),
}


def cmd_verify(args) -> int:
    runner, default_max, stretch_max = _CONJECTURES[args.conjecture]
    n_max = args.max if args.max is not None else (stretch_max if args.stretch else default_max)
    payload, elapsed = _timed(runner, n_max)
    return _verdict(args, payload, elapsed)


def cmd_reproduce_tables(args) -> int:
    payload, elapsed = _timed(verify.reproduce_tables)
    checks = payload["details"]["checks"]
    return _verdict(args, payload, elapsed, [f"  {c['name']}: {c['status']}" for c in checks])


def cmd_fixtures(args) -> int:
    g = fixture(args.name)
    if args.output == "text":
        sys.stdout.write(format_graph(g))
    else:
        _emit(args, {"name": args.name, **graph_to_dict(g)})
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, *, top: bool) -> None:
    # On subparsers the default is suppressed so a value given before the
    # subcommand is not clobbered; the flag works in either position.
    parser.add_argument(
        "--output", choices=("json", "text"), default="json" if top else argparse.SUPPRESS,
        help="output format for data commands (default json)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="signedchrom",
        description="Exact even/odd chromatic polynomials of signed graphs.",
    )
    _add_common_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chrom", help="chromatic pair of a graph file")
    p.add_argument("file")
    p.add_argument("--bivariate", action="store_true")
    p.add_argument("--lambda", dest="lam", type=int, metavar="L",
                   help="also print the count of proper colourings from L colours")
    p.add_argument("--mu", type=int, metavar="M",
                   help="of which M are unpaired (needs --bivariate; default 0)")
    _add_common_flags(p, top=False)
    p.set_defaults(func=cmd_chrom)

    p = sub.add_parser("closed-form", help="closed-form join family pair")
    p.add_argument("--family", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("-l", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    _add_common_flags(p, top=False)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("identities", help="check the nine family identities")
    p.add_argument("--max", type=int, default=3, metavar="P")
    _add_common_flags(p, top=False)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("threshold", help="bivariate pair of a threshold code")
    p.add_argument("--code", required=True, help="comma-separated entries in {-1,0,1}")
    _add_common_flags(p, top=False)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("enumerate", help="signature classes of an underlying graph")
    p.add_argument("--underlying", required=True,
                   help="petersen | complete:N | fixture name | .sg file")
    p.add_argument("--mode", choices=("iso", "switch"), required=True)
    p.add_argument("--spot-check", type=int, default=0, metavar="K",
                   help="verify K random signatures against their class pair")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    _add_common_flags(p, top=False)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search-cochromatic",
                       help="co-chromatic class groups over an underlying graph")
    p.add_argument("--underlying", required=True,
                   help="petersen | complete:N | fixture name | .sg file")
    _add_common_flags(p, top=False)
    p.set_defaults(func=cmd_search_cochromatic)

    p = sub.add_parser("verify", help="run a conjecture verifier")
    p.add_argument("--conjecture", choices=tuple(_CONJECTURES), required=True)
    p.add_argument("--max", type=int, default=None)
    p.add_argument("--stretch", action="store_true",
                   help="default to the largest supported bound instead of the desk-scale one")
    _add_common_flags(p, top=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce-tables", help="recompute all published tables")
    _add_common_flags(p, top=False)
    p.set_defaults(func=cmd_reproduce_tables)

    p = sub.add_parser("fixtures", help="print a built-in graph")
    p.add_argument("--name", required=True,
                   help="one of: " + ", ".join(fixture_names()))
    _add_common_flags(p, top=False)
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["oracle"]:  # the removed command: name what counts instead
        parser.error("the oracle command is gone; count with chrom FILE --lambda L [--mu M]")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SignedChromError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
