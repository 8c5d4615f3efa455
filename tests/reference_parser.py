"""One argparse subparser per verb, each with the same job arguments.

This is the reference that tests compare ``qcascade.cli.build_parser``
against: for an argument list that starts with a verb, the one-parser form
must give the same namespace, or exit with the same code.
"""

from qcascade.cli import VERBS, CliParser


def build_subcommand_parser() -> CliParser:
    parser = CliParser(prog="qcascade")
    subs = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        sub = subs.add_parser(verb)
        sub.add_argument("jobfile", nargs="?")
        sub.add_argument("--n", type=int)
        sub.add_argument("--truth")
        sub.add_argument("--mode")
        sub.add_argument("--basis")
        sub.add_argument("--dihedral-n", type=int, dest="dihedral_n")
        sub.add_argument("--no-symmetry", dest="symmetry", action="store_false", default=None)
        sub.add_argument("--emit")
        sub.add_argument("--out-dir", default=".")
        sub.add_argument("--input", dest="trace_input")
        sub.add_argument("--force-large", action="store_true")
    return parser
