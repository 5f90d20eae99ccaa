#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of the hprs simulated cluster.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        [--seconds <s>] [--trace 0|1]
    python3 perfbench/run.py --selftest

Builds the program from the checkout it sits in (Release, into
$CARGO_TARGET_DIR or .bench_build), then for each of the workload's derived
inputs: computes a reference untimed (cached per binary and seed), and
times set-up plus the measured phase in a fresh process, pass after pass,
until --seconds is spent.  Every request's record and output is checked
against the reference.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 1 reports the
per-layer metrics of one extra traced process instead of the end-to-end
ones.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

WORKLOADS = ("serve_diurnal", "table8_p256", "resilient_burst")
PROCESS_TIMEOUT_S = 150


class BenchError(Exception):
    """Ends the run without a result line; carries the exit code."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no hprs source tree at {ROOT}; run from a full "
                         "checkout")
    bdir = build_root()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log) != 0:
            shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
            (bdir / "CMakeCache.txt").unlink(missing_ok=True)
            raise BenchError(f"cmake configure failed; see {log}")
    cmd = ["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1),
           "--target", *targets]
    if run_logged(cmd, log) != 0:
        raise BenchError(f"build failed; see {log}")
    return bdir


def shown(path):
    """Path as printed: relative to the checkout when it lies inside."""
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


def file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def conditions(bench_conditions):
    """Run conditions recorded with every result."""
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    sources = sorted(p for base in (ROOT / "src", HERE / "src")
                     for p in base.rglob("*") if p.is_file())
    sources += [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    info = dict(bench_conditions)
    info["commit"] = commit
    info["source_sha256"] = file_digest(sources)
    return info


def bench_args(workload, seed, k, mode, ref, scale):
    return ["--workload", workload, "--seed", str(seed), "--input", str(k),
            "--mode", mode, "--ref", str(ref), "--scale", scale]


def finish_bench(proc, stdout, stderr):
    """(exit code, parsed last stdout line or None, stderr) of a bench
    process that has ended."""
    lines = stdout.strip().splitlines()
    parsed = None
    if proc.returncode == 0 and lines:
        try:
            parsed = json.loads(lines[-1])
        except json.JSONDecodeError:
            parsed = None
    if proc.returncode in (2, 3):
        # Usage error or a refusal (HPRS_* toggle set, non-Release build).
        raise BenchError(stderr.strip(), proc.returncode)
    return proc.returncode, parsed, stderr.strip()


def run_benches(binary, arg_lists, parallel):
    """Runs bench processes, at most `parallel` at a time, and waits for
    every one of them; returns their finish_bench results in order."""
    results = [None] * len(arg_lists)
    running = []
    pending = list(enumerate(arg_lists))
    try:
        while pending or running:
            while pending and len(running) < parallel:
                i, args = pending.pop(0)
                proc = subprocess.Popen([str(binary), *args],
                                        stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, text=True)
                running.append((i, proc))
            i, proc = running.pop(0)
            try:
                out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                results[i] = (-1, None, f"timed out after "
                              f"{PROCESS_TIMEOUT_S} s")
                continue
            results[i] = finish_bench(proc, out, err)
    finally:
        for _, proc in running:
            proc.kill()
            proc.communicate()
    return results


def references(binary, bdir, workload, seed, inputs, scale):
    """Reference path per input, computing the missing ones untimed and in
    parallel (cached per binary, workload, seed and input)."""
    cache = bdir / "refs" / file_digest([binary])[:16]
    cache.mkdir(parents=True, exist_ok=True)
    paths = {k: cache / f"{workload}-{scale}-{seed}-{k}.ref" for k in inputs}
    missing = [k for k in inputs if not paths[k].is_file()]
    tmp = {k: paths[k].with_suffix(f".tmp{os.getpid()}") for k in missing}
    results = run_benches(
        binary, [bench_args(workload, seed, k, "reference", tmp[k], scale)
                 for k in missing], os.cpu_count() or 1)
    for k, (code, parsed, err) in zip(missing, results):
        if code != 0 or parsed is None:
            for t in tmp.values():
                t.unlink(missing_ok=True)
            raise BenchError(f"reference run of {workload} input {k} "
                             f"failed: {err}", 1)
        os.replace(tmp[k], paths[k])
    return paths


def timed(binary, workload, seed, k, ref, scale, mode="timed", chrome=None):
    args = bench_args(workload, seed, k, mode, ref, scale)
    if chrome is not None:
        args += ["--chrome", str(chrome)]
    code, parsed, err = run_benches(binary, [args], 1)[0]
    if parsed is None:
        print(f"{workload} input {k}: bench process exited {code}: {err}",
              file=sys.stderr)
    return parsed


def measure(binary, bdir, workload, seed, seconds, trace, scale):
    """Runs one workload; returns (values, tally, correct, layers, info)."""
    inputs = range(benchlib.INPUTS[workload])
    refs = references(binary, bdir, workload, seed, inputs, scale)
    per_input = {k: [] for k in inputs}
    # A bench process that died counts every request of its input as
    # aborted (the reference lists one item per request).
    crashed = 0
    start = time.monotonic()
    passes = 0
    while True:
        pass_start = time.monotonic()
        for k in inputs:
            result = timed(binary, workload, seed, k, refs[k], scale)
            if result is None:
                crashed += sum(1 for line in refs[k].read_text().splitlines()
                               if line.startswith("item "))
            else:
                per_input[k].append(result)
        passes += 1
        now = time.monotonic()
        if now - start + (now - pass_start) > seconds:
            break
    if any(not runs for runs in per_input.values()):
        raise BenchError(f"{workload}: an input never completed a timed run",
                         1)
    values, tally, consistent = benchlib.aggregate(workload, per_input)
    tally["aborted"] += crashed
    tally["attempted"] += crashed

    layers = None
    if trace:
        chrome = bdir / "traces" / f"{workload}-{scale}-{seed}.json"
        chrome.parent.mkdir(parents=True, exist_ok=True)
        traced = timed(binary, workload, seed, 0, refs[0], scale,
                       mode="traced", chrome=chrome)
        if traced is None:
            raise BenchError(f"{workload}: the traced run failed", 1)
        for kind in ("attempted", *benchlib.FAILURE_KINDS):
            tally[kind] += traced[kind]
        layers = dict(traced["layers"])
        untraced_s = statistics.median(r["host_s"] for r in per_input[0])
        layers["trace_overhead_s"] = traced["host_s"] - untraced_s
        if layers.get("sched.gangs"):
            layers["sched.host_us_per_gang"] = (untraced_s * 1e6 /
                                                layers["sched.gangs"])
        layers["trace.host_s"] = traced["host_s"]
        layers["trace.calls_s"] = traced["calls_s"]
        layers["trace.residual_s"] = traced["residual_s"]
        layers["trace.chrome_file"] = shown(chrome)
    correct = (consistent and crashed == 0 and
               sum(tally[k] for k in benchlib.FAILURE_KINDS) == 0)
    info = {"inputs": len(per_input), "passes": passes,
            "conditions": per_input[0][0]["conditions"]}
    return values, tally, correct, layers, info


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_end_to_end(workload, values, tally, info):
    print(f"== {workload}: {info['inputs']} inputs x {info['passes']} "
          f"passes, {tally['attempted']} attempted, failures "
          + ", ".join(f"{k} {tally[k]}" for k in benchlib.FAILURE_KINDS))
    for name, unit in benchlib.END_TO_END:
        if not benchlib.applies(name, workload):
            shown = "n/a (closed loop of algorithm runs)"
        elif values.get(name) is None:
            shown = (f"n/a (fewer than {benchlib.TAIL_SAMPLES} of "
                     f"{values['response_samples']} samples beyond)")
        else:
            shown = f"{fmt(values[name])} {unit}"
        print(f"   {name:<20} {shown}")


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not (benchlib.valid_name(m["name"]) and
                benchlib.valid_unit(m["unit"])):
            raise BenchError(f"BENCHMARK.json: bad metric {m}")
    return spec


def result_line(correct, tally, metrics):
    failed = sum(tally[k] for k in benchlib.FAILURE_KINDS)
    return json.dumps({"correct": correct, "attempted": tally["attempted"],
                       "failed": failed, "metrics": metrics})


def save(bdir, name, record):
    out = bdir / "results" / name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return out


def run_one(binary, bdir, spec, args):
    values, tally, correct, layers, info = measure(
        binary, bdir, args.workload, args.seed, args.seconds, args.trace,
        args.scale)
    cond = conditions(info["conditions"])
    print_end_to_end(args.workload, values, tally, info)
    print("conditions: " + " ".join(f"{k}={v}" for k, v in cond.items()))
    metrics = {}
    if args.trace:
        print("per-layer (traced run of input 0):")
        for name in (*benchlib.LAYERS, *sorted(k for k in layers
                                               if k.startswith("trace."))):
            shown_value = layers.get(name, "n/a (layer not run)")
            print(f"   {name:<26} {shown_value}")
        for m in spec["per_layer"]:
            value = layers.get(m["name"])
            if value is None and m["unit"] in ("count", "ratio"):
                value = 0  # the layer does not run in this workload
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    saved = save(bdir, f"{args.workload}-{args.scale}-{args.seed}-"
                 f"trace{int(args.trace)}.json",
                 {"workload": args.workload, "seed": args.seed,
                  "values": values, "tally": tally, "correct": correct,
                  "layers": layers, "conditions": cond, **info})
    print(f"result file: {shown(saved)}")
    print(result_line(correct, tally, metrics))
    return 0 if correct else 1


def run_all(binary, bdir, args):
    metrics = {}
    total = {"attempted": 0, **{k: 0 for k in benchlib.FAILURE_KINDS}}
    all_correct = True
    cond = None
    for workload in WORKLOADS:
        values, tally, correct, _, info = measure(
            binary, bdir, workload, args.seed, args.seconds, False,
            args.scale)
        cond = cond or conditions(info["conditions"])
        print_end_to_end(workload, values, tally, info)
        all_correct = all_correct and correct
        for k in total:
            total[k] += tally[k]
        for name, unit in benchlib.END_TO_END:
            if benchlib.applies(name, workload):
                metrics[f"{workload}.{name}"] = {"value": values.get(name),
                                                 "unit": unit}
    print("conditions: " + " ".join(f"{k}={v}" for k, v in cond.items()))
    saved = save(bdir, f"all-{args.scale}-{args.seed}.json",
                 {"seed": args.seed, "metrics": metrics, "tally": total,
                  "correct": all_correct, "conditions": cond})
    print(f"result file: {shown(saved)}")
    print(result_line(all_correct, total, metrics))
    return 0 if all_correct else 1


def selftest():
    bdir = build(["perfbench_selftest", "hprs_perfbench"])
    code = subprocess.run([str(bdir / "perfbench_selftest")],
                          check=False).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         str(HERE / "tests")], check=False).returncode
    return code or py


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=20010916)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        spec = load_benchmark()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        bdir = build(["hprs_perfbench"])
        binary = bdir / "hprs_perfbench"
        if args.workload == "all":
            return run_all(binary, bdir, args)
        return run_one(binary, bdir, spec, args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
