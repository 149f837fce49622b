"""Command-line entry point; `run` and `verify` take a config path or a preset name.

Exit codes: 0 success, 2 rank condition failed, 3 value iteration did not
converge, or diverged (its fit or an iterate left the float range), 4
configuration or usage error, a failed oracle step of an unblinded run, or
an allocation too large for memory, 5 a simulated state overflowed, 6 an
artifact could not be written.
A run that fails after its config is accepted leaves a partial report.json
and manifest.json in its output directory.
"""

import argparse
import sys

from .experiment import (PRESETS, ConfigError, NotConvergedError, parse_config,
                         run_experiment, serialize_config, verify)
from .vi import RankConditionError

EXIT_OK = 0
EXIT_RANK = 2
EXIT_NOT_CONVERGED = 3
EXIT_CONFIG = 4
EXIT_OVERFLOW = 5
EXIT_IO = 6


def _load_config(source):
    """Config from a preset name or a JSON file path."""
    if source in PRESETS:
        return PRESETS[source]()
    try:
        with open(source) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %r: %s" % (source, exc)) from exc
    return parse_config(text)


def _cmd_run(args):
    cfg = _load_config(args.config)
    report = run_experiment(cfg, args.out_dir, blinded=args.blinded)
    print("experiment %s: converged in %d iterations (%d resets)"
          % (report.name, report.iters, report.resets))
    if report.gain_error is not None:
        print("relative gain error vs exact LQR solution: %.3e" % report.gain_error)
    if report.e_rho_error is not None:
        print("relative error of identified exogenous matrix: %.3e" % report.e_rho_error)
    print("max |e(t)| for t >= %g s: %.3e" % (cfg.settle_time, report.tracking_max_error))
    print("artifacts written to %s" % args.out_dir)
    return EXIT_OK


def _cmd_verify(args):
    cfg = _load_config(args.config)
    rows = verify(cfg)
    for name, ok, detail in rows:
        print("[%s] %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    if not all(ok for _, ok, _ in rows):
        print("verification failed")
        return EXIT_CONFIG
    print("all checks passed")
    return EXIT_OK


def _cmd_preset(args):
    if args.action == "list":
        for name in sorted(PRESETS):
            print(name)
        return EXIT_OK
    if args.name is None:
        print("preset name required", file=sys.stderr)
        return EXIT_CONFIG
    print(serialize_config(PRESETS[args.name]()))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="regvi",
        description="Data-driven value iteration for linear output regulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file or preset")
    p_run.add_argument("config", help="JSON config path or preset name")
    p_run.add_argument("--out-dir", default="out", help="artifact directory")
    p_run.add_argument("--blinded", action="store_true",
                       help="skip every oracle computation and diagnostic")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the model-based assumption checks")
    p_verify.add_argument("config", help="JSON config path or preset name")
    p_verify.set_defaults(func=_cmd_verify)

    p_preset = sub.add_parser(
        "preset", help="list or show built-in scenarios (run one with 'regvi run NAME')")
    p_preset.add_argument("action", choices=("list", "show"))
    p_preset.add_argument("name", nargs="?", default=None, choices=sorted(PRESETS))
    p_preset.set_defaults(func=_cmd_preset)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except RankConditionError as exc:
        print("rank condition failed: %s" % exc, file=sys.stderr)
        return EXIT_RANK
    except NotConvergedError as exc:
        print("not converged: %s" % exc, file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except FloatingPointError as exc:
        print("value iteration diverged: %s" % exc, file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except MemoryError as exc:
        print("out of memory: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print("simulation diverged: %s" % exc, file=sys.stderr)
        return EXIT_OVERFLOW
    except OSError as exc:
        print("cannot write artifacts: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
