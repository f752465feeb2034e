"""rydkit benchmark: run one workload and report its metrics.

usage: python3 perfbench/run.py --workload {cli-oneshot,scan-sweep,reproduce}
           --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a rydkit checkout; rydkit is imported from `src`. With
`--trace 0` the run reports the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics. The report goes to standard output, one
metric per line, and its last line is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The full record, with provenance, is
written to perfbench/out/. `--smoke` shrinks every input for a quick check.

Standard library only. Every workload is a closed loop with one client: at
most one worker process runs at a time. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import calibrate
import inputs
import spans

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
TRACED_CLI = HERE / "traced_cli.py"
SETUP_PROBES = 5  # timed set-ups per run; their median is setup_s
IMPORT_PROBES = 3  # `-X importtime` probes per traced run
CALL_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest-percentile sample with at least ten samples above it.

    Returns (value, percentile). With fewer than 11 samples there is no such
    sample, and the largest is returned, at percentile 100.
    """
    ordered = sorted(samples)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _spawn_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def _worker_cmd(args, *extra: str) -> list[str]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + (["--smoke"] if args.smoke else []) + list(extra)


def setup_time(args, env) -> float:
    """Seconds from spawning a fresh interpreter until it has imported rydkit
    and built the workload's inputs (`ready`)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd(args, "--setup-only"), stdout=subprocess.PIPE,
                            text=True, env=env)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=CALL_TIMEOUT_S) != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe exited with code {proc.returncode}")
    return elapsed


def import_profile(args, env, scratch: Path) -> dict[str, float]:
    """`import.*` metrics from `python -X importtime` of a clean `import rydkit`."""
    stmt = "import rydkit" + (", rydkit.cli" if args.workload == "cli-oneshot" else "")
    log = scratch / f"{args.workload}.importtime"
    with open(log, "w", encoding="utf-8") as err:
        code = subprocess.run([sys.executable, "-X", "importtime", "-c", stmt], env=env,
                              stderr=err, timeout=CALL_TIMEOUT_S).returncode
    if code != 0:
        raise BenchError(f"`{stmt}` failed with code {code}")
    entries = []  # (nesting level, module, cumulative us), children before parents
    for line in log.read_text(encoding="utf-8").splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(parts[1])))
    parent = [-1] * len(entries)
    pending: list[int] = []
    for i, (level, _, _) in enumerate(entries):
        while pending and entries[pending[-1]][0] == level + 1:
            parent[pending.pop()] = i
        pending.append(i)

    def top(i: int) -> int:
        while parent[i] >= 0:
            i = parent[i]
        return i

    def is_pkg(name: str, pkg: str) -> bool:
        return name == pkg or name.startswith(pkg + ".")

    ours = [i for i, e in enumerate(entries) if is_pkg(entries[top(i)][1], "rydkit")]
    return {
        "import.rydkit_s": sum(entries[i][2] for i in ours if parent[i] < 0) / 1e6,
        "import.scipy_s": sum(
            cum for i, (_, name, cum) in enumerate(entries)
            if is_pkg(name, "scipy")
            and not (parent[i] >= 0 and is_pkg(entries[parent[i]][1], "scipy"))) / 1e6,
        "import.modules": len(ours),
    }


def run_cli(args, env, scratch: Path) -> dict:
    """Closed loop of fresh `rydkit` CLI processes over the seeded command mix."""
    mix = inputs.cli_mix(args.seed)
    for old in scratch.glob("cli-oneshot.*.spans"):
        old.unlink()

    def call(argv: list[str], spans_file: Path | None) -> tuple[int, str, str, float]:
        """(exit code, stdout, stderr, peak RSS in MiB) of one CLI process."""
        cmd = ([sys.executable, str(TRACED_CLI), str(spans_file)] if spans_file
               else [sys.executable, "-c", inputs.CLI_ENTRY])
        with tempfile.TemporaryFile(dir=scratch) as out, \
                tempfile.TemporaryFile(dir=scratch) as err:
            proc = subprocess.Popen(cmd + argv, stdout=out, stderr=err, env=env)
            _, status, usage = os.wait4(proc.pid, 0)  # reaps the child with its rusage
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, out.read().decode(), err.read().decode(),
                    usage.ru_maxrss / 1024.0)

    if not args.smoke:
        call(mix[-1][1], None)  # warm-up: file-system cache and bytecode
    times, traced_times, failures, rss = [], [], [], []
    layers: dict[str, float] = defaultdict(float)
    attempted = 0
    timer = calibrate.spawn_timer(env)
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        # a traced call repeats the untraced call before it, so the pair is like for like
        label, argv, expect = mix[(attempted // 2 if args.trace else attempted) % len(mix)]
        spans_file = scratch / f"cli-oneshot.{attempted}.spans" if traced else None
        (code, stdout, stderr, rss_mib), elapsed, kernel = timer.measure(
            lambda: call(argv, spans_file))
        attempted += 1
        (traced_times if traced else times).append(
            (elapsed, kernel, timer.scaled(elapsed, kernel)))
        if not traced:
            rss.append(rss_mib)
        if code != 0:
            error = f"exit code {code}: {stderr.strip()[-300:]}"
        else:
            error = inputs.check_cli_output(expect, stdout)
        if error is not None:
            failures.append(f"{label}: {error}")
        if traced and spans_file.exists():
            for key, value in spans.load(str(spans_file)).items():
                layers[key] += value
        if time.perf_counter() >= deadline and times and (not args.trace or traced_times):
            break
    return {"times": times, "traced_times": traced_times, "attempted": attempted,
            "failed": len(failures), "failures": failures[:5], "layers": dict(layers),
            "rss_mib": rss}


def run_warm(args, env, scratch: Path) -> dict:
    """One warm worker process running the workload for `seconds`."""
    extra = ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans-out", str(scratch / f"{args.workload}.spans")]
    proc = subprocess.run(_worker_cmd(args, *extra), stdout=subprocess.PIPE, text=True,
                          env=env, timeout=args.seconds + CALL_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    # the worker is the largest child: set-up probes only import
    rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {**json.loads(lines[-1]), "rss_mib": [rss_mib]}


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, root: Path) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "click"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(), **versions,
        "machine": platform.machine(), "git_commit": _git_commit(root),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
    }


def end_to_end(args, run: dict, setups: list[list[float]]) -> tuple[dict, dict]:
    """(end-to-end metrics; workload-specific names, raw times and sample counts).

    `run["times"]` and `setups` hold (wall s, kernel s, scaled s) per
    operation. Times are reported at the kernel's reference speed (see
    calibrate.py); the raw wall-clock medians are returned alongside.
    """
    times = [scaled for _, _, scaled in run["times"]]
    raw = [wall for wall, _, _ in run["times"]]
    p50 = _median(times)
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": _median([scaled for _, _, scaled in setups]),
        "op_p50_s": p50,
        "op_tail_s": tail_value,
        "peak_rss_mib": _median(run["rss_mib"]),
    }
    named = {"failed_ratio": run["failed"] / run["attempted"],
             "raw_setup_s": _median([wall for wall, _, _ in setups]),
             "raw_op_p50_s": _median(raw), "raw_op_tail_s": tail(raw)[0],
             "op_kernel_s": _median([kernel for _, kernel, _ in run["times"]]),
             "setup_kernel_s": _median([kernel for _, kernel, _ in setups]),
             "op_samples": len(times), "op_tail_percentile": tail_pct,
             "setup_samples": len(setups)}
    if args.workload == "cli-oneshot":
        named.update(cli_latency_p50_s=p50, cli_latency_tail_s=tail_value)
    elif args.workload == "reproduce":
        named.update(reproduce_p50_s=p50, reproduce_tail_s=tail_value)
    else:
        cells = sum(s["x"][2] * s["y"][2] for s in inputs.scan_specs(args.seed, args.smoke))
        named.update(scan_cells_per_s=_median([cells / t for t in times]),
                     raw_scan_cells_per_s=_median([cells / t for t in raw]),
                     scan_cells_per_pass=cells)
    return metrics, named


def per_layer(run: dict, imports: dict[str, float]) -> tuple[dict, dict]:
    """(per-layer values per traced operation; sample counts for the record).

    Span times are raw wall-clock seconds; the tracing overhead compares the
    traced operations with the untraced ones interleaved with them.
    """
    ops = len(run["traced_times"])
    layers = {key: value / ops for key, value in run["layers"].items()}
    calls = layers.get("gate_error.detuning_budget.calls", 0.0)
    layers["gate_error.detuning_budget.evals_per_call"] = (
        layers.get("gate_error.detuning_budget.evals", 0.0) / calls if calls else 0.0)
    traced = _median([scaled for _, _, scaled in run["traced_times"]])
    untraced = _median([scaled for _, _, scaled in run["times"]])
    layers["tracing.overhead_ratio"] = traced / untraced
    layers.update(imports)
    return layers, {"traced_ops": ops, "untraced_ops": len(run["times"]),
                    "traced_op_p50_s": traced, "untraced_op_p50_s": untraced}


def _unit(name: str) -> str:
    """Unit of a detail figure, from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("ratio", "ratio"),
                         ("percentile", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe")
    args = ap.parse_args()

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if not (root / "src" / "rydkit" / "__init__.py").is_file():
            raise BenchError("no src/rydkit here: run from the root of a rydkit checkout")
        scratch = HERE / "out"
        scratch.mkdir(exist_ok=True)
        env = _spawn_env()
        declared = spec["per_layer" if args.trace else "end_to_end"]
        record = {"provenance": provenance(args, root)}
        if args.trace:
            imports = [import_profile(args, env, scratch) for _ in range(IMPORT_PROBES)]
            imports = {k: _median([p[k] for p in imports]) for k in imports[0]}
        else:
            if not args.smoke:
                setup_time(args, env)  # warm-up: bytecode compilation, file cache
            timer, setups = calibrate.spawn_timer(env), []
            for _ in range(1 if args.smoke else SETUP_PROBES):
                ready_s, _, kernel = timer.measure(lambda: setup_time(args, env))
                setups.append((ready_s, kernel, timer.scaled(ready_s, kernel)))
        run = (run_cli if args.workload == "cli-oneshot" else run_warm)(args, env, scratch)
        if args.trace:
            values, counts = per_layer(run, imports)
        else:
            values, counts = end_to_end(args, run, setups)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    record.update(metrics=metrics, details=counts, attempted=run["attempted"],
                  failed=run["failed"], failures=run["failures"])
    if args.trace:
        record["all_layers"] = values
    name = args.workload + (".trace" if args.trace else "") + ".json"
    (scratch / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for key, m in metrics.items():
        print(f"{args.workload:12s} {key:52s} {m['value']:.6g} {m['unit']}")
    for key, value in counts.items():
        print(f"{args.workload:12s} {key:52s} {value:.6g} {_unit(key)}")
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
