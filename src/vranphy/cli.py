"""Command-line entry point.

Subcommands: ``bench-interfaces`` (interface-generation timing table of
the ``--backend`` device, any ``emulated.DEVICE_PROFILES`` name),
``calibrate`` (fit service-time models from a CSV), ``plan`` (emit core
plans), ``deploy`` (multi-instance run plus report, on the device the
server profile names) and ``report`` (summarize raw microsecond samples).
Exit codes: 0 success, 1 failed deployment targets, 2 usage/config errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .errors import InvalidConfigError, VranPhyError
from .metrics import (bench_rows_to_csv, bench_rows_to_json, export_report,
                      summarize)

EXIT_OK = 0
EXIT_TARGETS_FAILED = 1
EXIT_USAGE = 2
_FORMATS = ("json", "csv")
_JSON_ONLY = ("calibrate", "plan", "report")


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vranphy",
        description="Slot-batched coding, accelerator emulation and "
                    "multi-instance deployment harness")
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file (deploy & bench options)")
    parser.add_argument("--format", choices=_FORMATS, default=None,
                        help="bench-interfaces and deploy output (csv when "
                             "omitted); the other commands write JSON")
    # the subcommands that write a table also take --format after their
    # name; SUPPRESS keeps the top-level value when they are not given it
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=_FORMATS,
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command")

    b = sub.add_parser("bench-interfaces", parents=[shared],
                       help="interface-generation timing table")
    b.add_argument("--backend", default="t2-emulated")
    b.add_argument("--direction", choices=("decode", "encode", "both"),
                   default="both")
    b.add_argument("--max-tbs", type=int, default=8)

    c = sub.add_parser("calibrate",
                       help="fit service-time models from measurements")
    c.add_argument("--csv", default=None,
                   help="CSV of direction,generation,n_tb,mean_us "
                        "(bundled reference data when omitted)")

    p = sub.add_parser("plan", help="emit core plans")
    p.add_argument("--profile", required=True)
    p.add_argument("--instances", type=int, required=True)

    d = sub.add_parser("deploy", parents=[shared],
                       help="run a multi-instance deployment on the "
                            "profile's emulated coding device")
    d.add_argument("--profile", default="ep-rfsoc")
    d.add_argument("--instances", type=int, default=1)
    d.add_argument("--slots", type=int, default=2000)
    d.add_argument("--samples-out", default=None,
                   help="write raw per-slot samples (JSON lines) here")

    r = sub.add_parser("report", help="summarize raw microsecond samples")
    r.add_argument("--samples", required=True,
                   help="file of samples: plain numbers or JSON lines "
                        "with a 'us' field")
    return parser


def _cmd_bench(args) -> int:
    from .backends.emulated import make_emulated
    from .slot_coding import run_interface_bench

    device = make_emulated(args.backend, seed=args.seed)
    directions = (("decode", "encode") if args.direction == "both"
                  else (args.direction,))
    rows = run_interface_bench(device, directions=directions,
                               tb_counts=range(1, args.max_tbs + 1))
    if args.format == "json":
        sys.stdout.write(bench_rows_to_json(rows))
    else:
        sys.stdout.write(bench_rows_to_csv(rows))
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    from .backends.model import (calibrate_per_generation,
                                 load_reference_observations)

    models = calibrate_per_generation(
        load_reference_observations(args.csv or None))
    doc = {f"{d}/{g}": {
        "fixed_per_call_us": m.fixed_per_call_us,
        "per_tb_us": m.per_tb_us,
        "per_cb_us": m.per_cb_us,
        "per_kbit_us": m.per_kbit_us,
        "max_rel_residual": m.max_rel_residual,
    } for (d, g), m in sorted(models.items())}
    doc["overall_max_rel_residual"] = max(
        m.max_rel_residual for m in models.values())
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_plan(args) -> int:
    from .deployment import default_core_plan, topology_for

    topology = topology_for(args.profile)
    plans = default_core_plan(topology, args.instances)
    doc = {"profile": topology.name, "instances": [asdict(p) for p in plans]}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_deploy(args) -> int:
    from .deployment import (DeploymentConfig, check_throughput,
                             run_deployment)

    if args.config:
        with open(args.config) as f:
            doc = json.load(f)
        config = DeploymentConfig.from_dict(doc)
    else:
        config = DeploymentConfig(
            profile=args.profile,
            n_instances=args.instances, duration_slots=args.slots,
            seed=args.seed)
    bundle = run_deployment(config)
    verdict = check_throughput(bundle)
    doc = bundle.as_dict()
    doc["throughput"] = verdict
    sys.stdout.write(export_report(
        doc, "json" if args.format == "json" else "csv"))
    if args.samples_out:
        with open(args.samples_out, "w") as f:
            f.write(bundle.raw_samples_jsonl())
    return EXIT_OK if verdict["all_pass"] else EXIT_TARGETS_FAILED


def _cmd_report(args) -> int:
    samples = []
    with open(args.samples) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                us = (float(json.loads(line)["us"])
                      if line.startswith("{") else float(line))
            except (ValueError, KeyError, TypeError):
                raise InvalidConfigError(
                    f"{args.samples}: not a sample: {line!r}") from None
            if not math.isfinite(us) or us < 0:
                raise InvalidConfigError(
                    f"{args.samples}: not a finite, non-negative duration: "
                    f"{line!r}")
            samples.append(us)
    dist = summarize(samples)
    sys.stdout.write(json.dumps(dist.as_dict(), indent=2, sort_keys=True)
                     + "\n")
    return EXIT_OK


_COMMANDS = {
    "bench-interfaces": _cmd_bench,
    "calibrate": _cmd_calibrate,
    "plan": _cmd_plan,
    "deploy": _cmd_deploy,
    "report": _cmd_report,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    if args.format == "csv" and args.command in _JSON_ONLY:
        print(f"error: {args.command} writes JSON only", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except VranPhyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
