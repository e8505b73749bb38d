"""Command-line harness.

    certlab run --config experiment.cfg [--seed N] [--out DIR] [--threads N]
    certlab report --manifest out/manifest.json --format md|svg
    certlab verify-all --out DIR [--seed N] [--threads N]

verify-all runs every experiment at its defaults and writes each one's
report.md and chart next to its manifest, as report does.
Every experiment's inputs are module constants except dag-exploration's
graph_file, which its precheck refuses, with exit 2, or reads for the runner to walk.
Exit codes: 0 all checks passed, 2 configuration, out-of-memory or other certlab error,
3 check failure, 4 I/O or report error.  --threads sets the worker threads of
the experiments that parallelize; outputs are byte-identical at any thread count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ExperimentConfig, build_config, check_seed, config_hash, parse_config_text
from .errors import CertlabError, ConfigError, ReportError
from .experiments import EXPERIMENTS
from .manifest import RunManifest, load_manifest, read_text_file, write_csv, write_text_file
from .report import emit_markdown, emit_svg_charts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKS = 3
EXIT_IO = 4


def _execute(config: ExperimentConfig, threads: int) -> RunManifest:
    """Precheck the params, then run the experiment on the checked params and write its outputs:
    a refused param raises before the runner starts and before the output directory exists."""
    definition = EXPERIMENTS[config.experiment]
    params = definition.precheck(config.params)
    manifest = RunManifest(
        experiment=config.experiment,
        config_hash=config_hash(config),
        seed=config.seed,
        started_at=RunManifest.timestamp(),
    )
    result = definition.runner(config.seed, params, threads)
    out_dir = Path(config.output_dir)
    for filename, (header, rows) in sorted(result.tables.items()):
        path = out_dir / filename
        digest = write_csv(path, header, rows)
        manifest.add_file(path, digest)
    for filename, text in sorted(result.texts.items()):
        path = out_dir / filename
        manifest.add_file(path, write_text_file(path, text))
    manifest.add_checks(result.checks)
    manifest.finished_at = RunManifest.timestamp()
    manifest.save(out_dir / "manifest.json")
    return manifest


def _summarize(manifest: RunManifest, stream) -> None:
    failed = [c for c in manifest.checks if not c["passed"]]
    for check in manifest.checks:
        status = "PASS" if check["passed"] else "FAIL"
        detail = f" -- {check['detail']}" if check.get("detail") else ""
        print(f"[{status}] {manifest.experiment}: {check['name']}{detail}", file=stream)
    verdict = "ALL CHECKS PASSED" if not failed else f"{len(failed)} CHECK(S) FAILED"
    print(f"{manifest.experiment}: {verdict}", file=stream)


def _failure(exc: Exception) -> int:
    """Report an error that stops a command: 4 for I/O or a ReportError, 2 for other
    CertlabErrors and for a MemoryError (arrays that cannot be allocated)."""
    if isinstance(exc, OSError):
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if isinstance(exc, MemoryError):
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_IO if isinstance(exc, ReportError) else EXIT_CONFIG


def _threads(args) -> int:
    """The --threads count, 1 when unset; a count below 1 is a ConfigError."""
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
    return args.threads or 1


def _check_out_dir(out_dir: str, source: str) -> None:
    """Refuse an output directory whose absolute path, the one the manifest records, is not
    UTF-8 text: a byte such as 0xff, in the path or in the working directory, is a ConfigError."""
    try:
        str(Path(out_dir).resolve()).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"{source}: not UTF-8 text ({exc})") from None


def cmd_run(args) -> int:
    threads = _threads(args)
    raw = parse_config_text(read_text_file(args.config, ConfigError))
    schema = EXPERIMENTS[raw.experiment].schema if raw.experiment in EXPERIMENTS else {}
    config = build_config(
        raw,
        schema,
        experiment_names=set(EXPERIMENTS),
        seed_override=args.seed,
        out_override=args.out,
    )
    _check_out_dir(config.output_dir, "--out" if args.out is not None else "run.output_dir")
    manifest = _execute(config, threads)
    _summarize(manifest, sys.stdout)
    print(f"manifest: {Path(config.output_dir) / 'manifest.json'}")
    return EXIT_OK if manifest.all_passed else EXIT_CHECKS


def cmd_report(args) -> int:
    manifest = load_manifest(Path(args.manifest))
    base = Path(args.manifest).parent
    if args.format == "md":
        path = emit_markdown(manifest, base / "report.md")
        print(f"report: {path}")
    else:
        for path in emit_svg_charts(manifest, base):
            print(f"chart: {path}")
    return EXIT_OK


def cmd_verify_all(args) -> int:
    _check_out_dir(args.out, "--out")
    out_root = Path(args.out)
    all_ok = True
    threads = _threads(args)
    seed = check_seed(args.seed, "--seed")
    for name in sorted(EXPERIMENTS):
        config = ExperimentConfig(
            experiment=name,
            seed=seed,
            params=dict(EXPERIMENTS[name].schema),
            output_dir=str(out_root / name),
        )
        manifest = _execute(config, threads)
        emit_markdown(manifest, out_root / name / "report.md")
        emit_svg_charts(manifest, out_root / name)
        _summarize(manifest, sys.stdout)
        all_ok &= manifest.all_passed
    print("verify-all: " + ("ALL CHECKS PASSED" if all_ok else "CHECK FAILURES"))
    return EXIT_OK if all_ok else EXIT_CHECKS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="certlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--threads", type=int, default=None)
    run_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser("report", help="render a report from a manifest")
    report_p.add_argument("--manifest", required=True)
    report_p.add_argument("--format", choices=("md", "svg"), required=True)
    report_p.set_defaults(func=cmd_report)

    verify_p = sub.add_parser("verify-all", help="run and report every experiment with defaults")
    verify_p.add_argument("--out", required=True)
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--threads", type=int, default=None)
    verify_p.set_defaults(func=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, CertlabError, MemoryError) as exc:
        return _failure(exc)


if __name__ == "__main__":
    sys.exit(main())
