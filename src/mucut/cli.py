"""Command-line front end.

Subcommands:

  * ``parse`` / ``print`` — read a formula (``.form``) or finite proof
    (``.sproof``) and emit its canonical text;
  * ``check`` — check a finite proof against a system (``s``, ``sinf``,
    ``omega:K``) and print the report;
  * ``pipeline`` — run embed / eliminate / collapse on a finite S proof,
    write one observation file per stage plus a summary that holds each
    stage's verdict in its own system, and print the one-line summary; the
    sinf stage is the collapsed proof, read as an S-infinity derivation;
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

from mucut.checker import (
    SYSTEM_S,
    SYSTEM_SINF,
    check_finite,
    check_observation,
    level_bound,
    omega_system,
    parse_system,
    system_name,
)
from mucut.collapse import MAX_PLUGS, pipeline
from mucut.corpus import CORPUS
from mucut.cutelim import DEFAULT_FUEL
from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.proofs import (
    SINF_TAGS,
    Cut,
    observe,
    observation_errors,
    observation_rules,
    observation_sequents,
)
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

STAGES = ("embedded", "eliminated", "collapsed", "sinf")

CORPUS_FILES = (
    ("e1-ind-top", "ind-top"),
    ("e2-top-cut", "top-cut"),
    ("e3-axmu", "axmu"),
    ("e4-nested", "nested"),
)


def _natural(text):
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError("%r is not a natural number" % text)
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
    proof = _load_proof(args.file)
    report = check_finite(proof, SYSTEM_S)
    if not report.ok:
        sys.stderr.write("input is not a valid S proof:\n")
        sys.stderr.write(report_dumps(report))
        return EXIT_CHECK

    src = Path(args.file)
    out_dir = Path(args.out) if args.out else src.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = src.stem

    steps = []
    stages = pipeline(
        proof,
        fuel=args.fuel,
        trace=lambda path, case, rank: steps.append((path, case, rank)),
    )

    observations = {}
    for name in STAGES:
        o = observe(stages[name], args.depth, args.samples, args.probes)
        observations[name] = o
        (out_dir / ("%s.%s.obs" % (stem, name))).write_text(
            observation_dumps(o), encoding="utf-8"
        )

    if args.trace:
        lines = "".join(
            dumps(step_to_sx(path, case, rank)) + "\n" for path, case, rank in steps
        )
        Path(args.trace).write_text(lines, encoding="utf-8")

    errors = []
    for name in STAGES:
        errors.extend((name, e) for e in observation_errors(observations[name]))
    if errors:
        name, first = errors[0]
        sys.stderr.write("stage %s produced an error leaf: %s\n" % (name, first))
        return EXIT_INVARIANT

    omega = omega_system(level_bound(proof))
    checks = []
    for name in STAGES:
        system = SYSTEM_SINF if name in ("collapsed", "sinf") else omega
        report = check_observation(observations[name], system, args.depth)
        checks.append((name, system_name(system), report.ok))
        if not report.ok:
            sys.stderr.write("stage %s fails its check in %s: %s: %s\n" % (
                name, system_name(system), *report.violations[0]))

    final = observations["sinf"]
    rules = [r for r in observation_rules(final) if r]
    cut_free = not any(isinstance(r, Cut) for r in rules)
    # the judge only counts the nodes at the depth bound: their rules are
    # read here, so no rule outside S-infinity passes anywhere in the window
    foreign = next((r for r in rules if not isinstance(r, SINF_TAGS)), None)
    if foreign is not None and checks[-1][2]:
        checks[-1] = ("sinf", "sinf", False)
        sys.stderr.write("stage sinf fails its check in sinf: rule %s at the "
                         "depth bound is not part of system sinf\n" % foreign.name)
    nubar_free = all(
        s.max_nubar_level() < 0 for s in observation_sequents(final)
    )
    summary = summary_to_sx(proof.conclusion, cut_free, nubar_free, checks)
    summary = dumps(summary) + "\n"
    (out_dir / (stem + ".summary")).write_text(summary, encoding="utf-8")
    sys.stdout.write(
        "cut-free: %s, nubar-free: %s\n"
        % ("yes" if cut_free else "no", "yes" if nubar_free else "no")
    )
    passed = cut_free and nubar_free and all(ok for _, _, ok in checks)
    return EXIT_OK if passed else EXIT_CHECK


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
    sub.add_argument("--probes", type=_natural, default=DEFAULT_PROBES,
                     help="0 skips families; N >= 1 feeds each family its "
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
