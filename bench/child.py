"""One benchmark battery, run in its own interpreter.

    python3 bench/child.py SPEC.json

SPEC names the source directory, the work directory, the experiments, the
seed, the thread count and whether to trace.  The child imports certlab,
writes one config file per experiment, parses and validates them (the end of
set-up), then calls ``cli.main(["run", ...])`` for every experiment and
``cli.main(["report", ...])`` as md and svg for every manifest, the way
``scripts/verify_all.py`` does.  It writes RESULT.json in the work directory
with its clock readings, the exit code of every call and, when tracing, the
tracer's records and its estimated overhead: the wrapper's cost per call,
timed on a no-op right after the battery, times the number of traced calls.
Clock readings are ``time.perf_counter()``, which on Linux is the system-wide
monotonic clock, so the parent can subtract its own reading taken just
before it started this process.
"""

import json
import sys
import time
from pathlib import Path


def config_text(experiment: str, seed: int, out_dir: Path) -> str:
    """The whole input certlab receives: defaults for every parameter."""
    return f"[run]\nexperiment = {experiment}\nseed = {seed}\noutput_dir = {out_dir}\n\n[params]\n"


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    work = Path(spec["work"])
    sys.path.insert(0, spec["src"])

    import numpy  # noqa: F401  (part of set-up, as for any certlab user)
    from certlab import cli
    from certlab.config import build_config, parse_config_text
    from certlab.experiments import EXPERIMENTS

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, wrapper_cost

        tracer = Tracer()
        tracer.install()

    configs = []
    for name in spec["experiments"]:
        path = work / "configs" / f"{name}.cfg"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(config_text(name, spec["seed"], work / "out" / name))
        raw = parse_config_text(path.read_text())
        build_config(raw, EXPERIMENTS[name].schema, experiment_names=set(EXPERIMENTS))
        configs.append((name, path))
    setup_done = time.perf_counter()

    codes = {}
    if not spec["setup_only"]:
        threads = str(spec["threads"])
        for name, path in configs:
            codes[f"run {name}"] = cli.main(["run", "--config", str(path), "--threads", threads])
        for name, _ in configs:
            manifest = str(work / "out" / name / "manifest.json")
            for fmt in ("md", "svg"):
                codes[f"report {fmt} {name}"] = cli.main(["report", "--manifest", manifest, "--format", fmt])
    done = time.perf_counter()

    result = {"setup_done": setup_done, "done": done, "codes": codes}
    if tracer is not None:
        records = tracer.records()
        calls = sum(record["calls"] for record in records.values())
        result["trace"] = {"records": records, "overhead_s": calls * wrapper_cost()}
    (work / "RESULT.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
