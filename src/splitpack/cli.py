"""Command-line front end: splitpack decide|pack|approx|verify|gen.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 invalid input, 3 unsupported container, 4 standard output closed before
the output was written (a broken pipe, such as a reader that exited early).
"""

import argparse
import json
import os
import random
import sys

from .documents import (
    InstanceDocument,
    PackingDocument,
    container_to_dict,
    decide,
    parse_container_spec,
)
from .errors import (
    DocumentError,
    InvalidParameterError,
    SplitPackError,
    UnsupportedContainerError,
)
from .packer import PackRequest, _combined_area, min_container, pack, packable_area
from .splitting import CircleSet
from .svg import render_packing_svg
from .verifier import verify

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3
EXIT_BROKEN_PIPE = 4


class _StdoutClosed(Exception):
    """Standard output's reader went away before the output was written."""


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# Output is written this many characters at a time, so that the whole text is
# never encoded at once.
_SLICE = 1 << 20


def _write_slices(stream, text: str) -> None:
    for start in range(0, len(text), _SLICE):
        stream.write(text[start:start + _SLICE])


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        try:
            _write_slices(sys.stdout, text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
            # a closed pipe raises here, inside main, not at interpreter exit
            sys.stdout.flush()
        except BrokenPipeError as exc:
            raise _StdoutClosed from exc
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _write_slices(fh, text)


def _load_json(path: str):
    try:
        return json.loads(_read_source(path))
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON in {path!r}: {exc}") from exc
    except OSError as exc:
        raise DocumentError(f"cannot read {path!r}: {exc}") from exc


def _load_instance(args) -> InstanceDocument:
    """The instance of --circles (standard input when neither --circles nor
    --container is given); --container alone is the empty instance."""
    container = parse_container_spec(args.container) if args.container else None
    source = args.circles or (None if container else "-")
    if not source:
        return InstanceDocument(container=container, areas=[])
    data = _load_json(source)
    if isinstance(data, list):
        data = {"circles": data}
        if container is None:
            raise DocumentError("a bare circle list needs --container")
    return InstanceDocument.from_dict(data, container=container)


def _cmd_decide(args) -> int:
    result = decide(_load_instance(args))
    _write_output(json.dumps(result, indent=2), args.out)
    return EXIT_OK


def _cmd_pack(args) -> int:
    packing = pack(_load_instance(args).to_request())
    if args.format == "svg":
        _write_output(render_packing_svg(packing), args.out)
    else:
        _write_output(PackingDocument.from_tree(packing, packing.container).to_json(), args.out)
    return EXIT_OK


def _cmd_approx(args) -> int:
    instance = _load_instance(args)
    circles = CircleSet.from_areas(instance.areas)
    container = min_container(circles, instance.container)
    packing = pack(PackRequest(container=container, circles=circles))
    if args.format == "svg":
        _write_output(render_packing_svg(packing), args.out)
        return EXIT_OK
    total = _combined_area(circles.areas)  # the total min_container sizes by
    header = json.dumps({
        "container": container_to_dict(container),
        "container_area": container.area,
        "lower_bound_area": total,
        "ratio": container.area / total,
    }, separators=(",", ":"))
    # compact, with the packing document's own JSON text as the last field
    document = PackingDocument.from_tree(packing, container).to_json()
    _write_output(f'{header[:-1]},"packing":{document}}}', args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    data = _load_json(args.packing)
    doc = PackingDocument.from_dict(data)
    report = verify(doc.to_tree(), tolerance=args.tolerance)
    _write_output(report.summary(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _generate_areas(n: int, total: float, distribution: str, seed: int) -> list[float]:
    if distribution == "equal":
        return [total / n] * n
    if distribution == "geometric":
        # fixed three-decade spread between largest and smallest
        q = (1e-3) ** (1.0 / max(n - 1, 1))
        weights = [q**i for i in range(n)]
    elif distribution == "uniform":
        rng = random.Random(seed)
        weights = [rng.random() + 1e-9 for _ in range(n)]
    else:
        raise DocumentError(f"unknown distribution {distribution!r}")
    weight_sum = 0.0
    for w in weights:  # left to right: builtin sum() compensates floats from Python 3.12
        weight_sum += w
    scale = total / weight_sum
    return [w * scale for w in weights]


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise InvalidParameterError("--count must be at least 1")
    if not (0.0 < args.ratio <= 1.0):
        raise InvalidParameterError("--ratio must lie in (0, 1]")
    container = parse_container_spec(args.container)
    capacity = packable_area(container)
    areas = _generate_areas(args.count, args.ratio * capacity, args.distribution, args.seed)
    instance = InstanceDocument(container=container, areas=areas)
    _write_output(instance.to_json(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitpack",
        description="Pack circle sets into squares and non-acute triangles "
        "at the provably optimal worst-case density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p):
        p.add_argument("--container", help="container spec: square:SIDE or triangle:X,Y,Z")
        p.add_argument("--circles", help="instance JSON file, or - for stdin (the default "
                       "without --container)")
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("decide", help="sufficient-condition feasibility check")
    add_instance_flags(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("pack", help="compute a packing")
    add_instance_flags(p)
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("approx", help="smallest guaranteed container for a circle set")
    add_instance_flags(p)
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("verify", help="independently validate a packing document")
    p.add_argument("packing", nargs="?", default="-", help="packing JSON file, or - for stdin")
    p.add_argument("--tolerance", type=float, default=None,
                   help="slack tolerance for every check (default 1e-9 x container "
                   "diameter, and for circle pairs at most 1e-9 x the smaller radius)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a deterministic test instance")
    p.add_argument("--container", default="square:1", help="container spec (default square:1)")
    p.add_argument("--count", "-n", type=int, required=True, help="number of circles")
    p.add_argument("--ratio", type=float, default=1.0,
                   help="combined area as a fraction of the packable area (default 1.0)")
    p.add_argument("--distribution", choices=("equal", "geometric", "uniform"), default="equal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedContainerError as exc:
        print(f"error: unsupported container: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except SplitPackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except _StdoutClosed:
        # The reader is gone; point stdout at devnull so that flushing what
        # is still buffered at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before the output was written", file=sys.stderr)
        return EXIT_BROKEN_PIPE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
