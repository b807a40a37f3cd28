"""Command-line front end.

Subcommands:

  * ``parse`` / ``print`` — read a formula (``.form``) or finite proof
    (``.sproof``) and emit its canonical text;
  * ``check`` — check a finite proof against a system (``s``, ``sinf``,
    ``omega:K``) and print the report;
  * ``pipeline`` — run embed / eliminate / collapse on a finite S proof,
    write one observation file per stage plus a summary that holds each
    stage's verdict in its own system, and print the one-line summary;
    ``mucut.collapse.verdict`` decides what passes, and this only words it;
  * ``corpus`` — write the built-in example proofs as ``.sproof`` files.

Exit codes: 0 ok; 1 check failure (a rule outside S-infinity in the
final window included); 2 parse error (malformed input, input that is
not UTF-8, or an unknown system); 3 resource limit (fuel exhaustion, or
nesting too deep for the stack); 4 internal failure (a broken invariant,
or any other ValueError).  All output is deterministic: equal inputs and
flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from mucut.checker import SYSTEM_S, check_finite, level_bound, parse_system
from mucut.collapse import MAX_PLUGS, STAGES, pipeline, verdict
from mucut.corpus import CORPUS
from mucut.cutelim import DEFAULT_FUEL
from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.proofs import observe
from mucut.sexpr import (
    SexprError,
    dumps,
    observation_dumps,
    proof_dumps,
    proof_loads,
    report_dumps,
    step_to_sx,
    summary_to_sx,
)
from mucut.syntax import ParseError, parse_formula, print_form

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_PARSE = 2
EXIT_FUEL = 3
EXIT_INVARIANT = 4

DEFAULT_DEPTH = 6
DEFAULT_SAMPLES = (0, 1, 2)
DEFAULT_PROBES = 1

CORPUS_FILES = tuple(("e%d-%s" % (i, name), name) for i, name in enumerate(CORPUS, 1))


def _natural(text):
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError("%r is not a natural number" % text)
    return int(text)


def _probes(text):
    if _natural(text) > 1:
        raise argparse.ArgumentTypeError("%r probes asked for, but each family has one" % text)
    return int(text)


def _parse_samples(text):
    out = tuple(_natural(part) for part in text.split(",") if part.strip() != "")
    if not out:
        raise argparse.ArgumentTypeError(
            "samples must be comma-separated naturals, e.g. 0,1,2"
        )
    return out


def _load(path):
    """Read a .form or .sproof file; returns ('formula', f) or ('proof', p)."""
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    suffix = p.suffix
    if suffix == ".form":
        return "formula", parse_formula(text)
    if suffix == ".sproof":
        return "proof", proof_loads(text)
    raise ParseError("unsupported file extension %r (want .form or .sproof)" % suffix, text, 0)


def _load_proof(path):
    kind, obj = _load(path)
    if kind != "proof":
        raise ParseError("expected a .sproof file", "", 0)
    return obj


def cmd_print(args):
    kind, obj = _load(args.file)
    if kind == "formula":
        sys.stdout.write(print_form(obj) + "\n")
    else:
        sys.stdout.write(proof_dumps(obj))
    return EXIT_OK


def cmd_check(args):
    proof = _load_proof(args.file)
    try:
        system = parse_system(args.system)
    except ValueError as exc:
        raise ParseError(str(exc), args.system, 0) from None
    report = check_finite(proof, system)
    sys.stdout.write(report_dumps(report))
    return EXIT_OK if report.ok else EXIT_CHECK


def cmd_pipeline(args):
    src = Path(args.file)
    out_dir = Path(args.out) if args.out else src.parent
    obs = [out_dir / ("%s.%s.obs" % (src.stem, stage)) for stage in STAGES]
    summary = out_dir / (src.stem + ".summary")
    # a run that fails leaves no artifact of an earlier run behind
    for path in (*obs, summary, *([Path(args.trace)] if args.trace else ())):
        path.unlink(missing_ok=True)

    proof = _load_proof(args.file)
    report = check_finite(proof, SYSTEM_S)
    if not report.ok:
        sys.stderr.write("input is not a valid S proof: " + report_dumps(report))
        return EXIT_CHECK
    out_dir.mkdir(parents=True, exist_ok=True)

    steps = []
    stages = pipeline(proof, fuel=args.fuel, trace=lambda *step: steps.append(step))
    # each stage is written before the next is observed; verdict's own
    # observe calls are answered from the windows the stages keep
    for name, path in zip(STAGES, obs):
        o = observe(stages[name], args.depth, args.samples, args.probes)
        path.write_text(observation_dumps(o), encoding="utf-8")
    if args.trace:
        lines = "".join(dumps(step_to_sx(*step)) + "\n" for step in steps)
        Path(args.trace).write_text(lines, encoding="utf-8")

    v = verdict(proof, stages, args.depth, args.samples, args.probes)
    if v.error:
        sys.stderr.write("stage %s produced an error leaf: %s\n" % v.error)
        return EXIT_INVARIANT
    checks = [(s.name, s.system, not s.failure) for s in v.stages]
    failures = "; ".join("stage %s fails its check in %s: %s" % (
        s.name, s.system, s.failure) for s in v.stages if s.failure)
    sys.stderr.write(failures and failures + "\n")
    text = summary_to_sx(proof.conclusion, v.cut_free, v.nubar_free, checks)
    summary.write_text(dumps(text) + "\n", encoding="utf-8")
    sys.stdout.write("cut-free: %s, nubar-free: %s\n" % (
        "yes" if v.cut_free else "no", "yes" if v.nubar_free else "no"))
    return EXIT_OK if v.passed else EXIT_CHECK


def cmd_corpus(args):
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, name in CORPUS_FILES:
        proof = CORPUS[name]()
        path = out_dir / (filename + ".sproof")
        path.write_text(proof_dumps(proof), encoding="utf-8")
        endseq = ", ".join(print_form(f) for f in proof.conclusion)
        sys.stdout.write("%s.sproof\tlevel %d\t{%s}\n" % (
            filename, level_bound(proof), endseq,
        ))
    return EXIT_OK


def _add_config(sub):
    sub.add_argument("--depth", type=_natural, default=DEFAULT_DEPTH,
                     help="observation depth (default %d)" % DEFAULT_DEPTH)
    sub.add_argument("--samples", type=_parse_samples, default=DEFAULT_SAMPLES,
                     help="nu-premise indices, comma-separated (default 0,1,2)")
    sub.add_argument("--probes", type=_probes, default=DEFAULT_PROBES,
                     help="0 or 1: 0 skips families, 1 feeds each family its "
                          "one canonical probe (default %d)" % DEFAULT_PROBES)
    sub.add_argument("--fuel", type=_natural, default=DEFAULT_FUEL,
                     help="bounds only the cut reductions of eliminate, one "
                          "unit per root visit (default %d); collapse has its "
                          "own limit of %s plugs per forced node"
                          % (DEFAULT_FUEL, format(MAX_PLUGS, ",")))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mucut",
        description="Syntactic cut elimination for the one-variable modal mu-calculus",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("parse", "print"):
        sp = subs.add_parser(name, help="emit the canonical text of a .form or .sproof file")
        sp.add_argument("file")
        sp.set_defaults(func=cmd_print)

    sp = subs.add_parser("check", help="check a finite proof against a system")
    sp.add_argument("file")
    sp.add_argument("--system", default="s",
                    help="s, sinf, or omega:K (default s)")
    sp.set_defaults(func=cmd_check)

    sp = subs.add_parser("pipeline",
                         help="embed, eliminate cuts, collapse, and observe every stage")
    sp.add_argument("file")
    sp.add_argument("--out", help="output directory (default: next to the input)")
    sp.add_argument("--trace", help="write one (step ...) line per reduction to this file")
    _add_config(sp)
    sp.set_defaults(func=cmd_pipeline)

    sp = subs.add_parser("corpus", help="write the example proofs as .sproof files")
    sp.add_argument("--out", help="output directory (default: current directory)")
    sp.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SexprError, UnicodeDecodeError) as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write("io error: %s\n" % exc)
        return EXIT_PARSE
    except FuelExhausted as exc:
        sys.stderr.write("fuel exhausted: %s\n" % exc)
        return EXIT_FUEL
    except RecursionError:
        sys.stderr.write("nesting too deep: input exceeds the stack limit\n")
        return EXIT_FUEL
    except InternalInvariantError as exc:
        sys.stderr.write("internal invariant failure: %s\n" % exc)
        return EXIT_INVARIANT
    except ValueError as exc:
        sys.stderr.write("internal failure: %s\n" % exc)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
