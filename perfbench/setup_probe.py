"""Set-up cost of one crossnet CLI invocation, measured in a fresh process.

    python3 perfbench/setup_probe.py SRC_DIR CLI_ARGS...

prints the seconds taken to import crossnet from SRC_DIR and resolve the
config of CLI_ARGS the way the CLI does.  Only ``sys`` and ``time`` are
imported before the clock starts.
"""
import sys
import time


def resolve(argv: list[str]):
    """(RunConfig, resolved dict) of a CLI argument list, as ``crossnet`` resolves it."""
    from crossnet import cli, config

    args = cli.build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.output_dir is not None:
        overrides.append(f"output_dir={args.output_dir}")
    if args.master_seed is not None:
        overrides.append(f"master_seed={args.master_seed}")
    return config.load_config(args.config, overrides)


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    resolve(sys.argv[2:])
    print(repr(time.perf_counter() - t0))
