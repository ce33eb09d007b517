"""Seed-level benchmark of linkssl on synthetic SBM twins.

Run from the root of a source checkout (the directory holding src/linkssl):

    python3 perfbench/run.py --workload usair-grace --seed 3 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

For one workload it writes the twin of the workload's registry graph from
--seed into a data root of its own, times `import linkssl` plus
`load_dataset` in fresh processes (setup_s), then measures seeds in one
more fresh process (seed_s, peak_rss_mb from that process's ru_maxrss). It
checks every result row and the seed artifacts' digests, prints each metric
by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the metrics
are the per-layer ones from a traced repeat of the seed (see spans.py).
--workload all runs every workload, each in its own processes. The exit
code is 1 when a correctness gate fails or a seed fails, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(WORK, "digests.json")

SETUP_PROBES = 5
RUN_BUDGET_S = 170  # a run must end within 180 s; keep some slack
STAGE_SUM_TOLERANCE = 0.01  # share of traced seed_s

END_TO_END_UNITS = {"seed_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

CHILD_ENV = {
    "PYTHONPATH": SRC,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "LINKSSL_DEBUG": "1",  # failed seeds carry their traceback
}


def per_layer_unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes"):
        return "B_computed"  # summed from array shapes, not measured memory
    return "count"


def child_env():
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def code_digest():
    """SHA-256 of the program and benchmark sources; keys the digest cache."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "linkssl"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def wait_with_rusage(proc, deadline):
    """Reap `proc` with wait4; kill it at `deadline`.

    Returns (exit code, ru_maxrss in MB). A negative exit code is the
    signal that ended the process.
    """
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        time.sleep(0.02)


def measure_setup(dataset, data_root, deadline):
    """Median setup_s over SETUP_PROBES fresh processes."""
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "setup",
             "--dataset", dataset, "--data-root", data_root],
            capture_output=True, text=True, env=child_env(),
            timeout=max(1.0, deadline - time.monotonic()))
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{out.stderr}")
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        if not probe["linkssl"].startswith(SRC + os.sep):
            raise RuntimeError(f"imported {probe['linkssl']}, not the "
                               f"checkout's linkssl under {SRC}")
        values.append(probe["setup_s"])
    return statistics.median(values), values


def run_worker(workload, data_root, out_dir, seconds, trace, deadline):
    result = os.path.join(out_dir, "result.jsonl")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "worker.log"), "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "seeds",
             "--workload", workload, "--data-root", data_root,
             "--out", out_dir, "--seconds", str(seconds),
             "--trace", str(trace), "--result", result],
            stdout=log, stderr=subprocess.STDOUT, env=child_env())
        code, rss_mb = wait_with_rusage(proc, deadline)
    records = []
    if os.path.exists(result):
        with open(result) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    return code, rss_mb, records


def check_row(wl, row):
    problems = []
    expected = (wl.dataset, wl.model, wl.augmentation)
    got = (row.get("dataset"), row.get("model"), row.get("augmentation"))
    if got != expected:
        problems.append(f"row is for {got}, expected {expected}")
    for key in ("hits_at_50", "ap", "auc"):
        value = row.get(key)
        if not (isinstance(value, float) and math.isfinite(value)
                and 0.0 <= value <= 1.0):
            problems.append(f"{key}={value!r} is not a finite value in [0, 1]")
    auc = row.get("auc")
    if isinstance(auc, float) and auc < wl.auc_floor:
        problems.append(f"auc={auc:.4f} is below the floor {wl.auc_floor}")
    return problems


def check_digests(key, digests):
    """Every repeat in this run, and every earlier run of the same code,
    workload and seed in this checkout, must write identical artifacts."""
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"seed artifacts differ between repeats: {digests}")
    if not digests:
        return problems
    cache = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            cache = json.load(fh)
    previous = cache.get(key)
    if previous is not None and previous != digests[0]:
        problems.append(f"seed artifacts differ from an earlier run of the "
                        f"same code and seed: {digests[0]} != {previous}")
    elif previous is None and len(set(digests)) == 1:
        cache[key] = digests[0]
        tmp = DIGESTS + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(cache, fh, indent=1, sort_keys=True)
        os.replace(tmp, DIGESTS)
    return problems


def run_one(args, wl):
    """Measure one workload; returns (result dict, list of problems)."""
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    sys.path.insert(0, SRC)
    os.environ.update(CHILD_ENV)  # the parent's own BLAS use stays serial
    from twins import write_twin
    from linkssl.datasets import load_dataset

    work = os.path.join(WORK, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    data_root = os.path.join(work, "data")
    twin = write_twin(wl.dataset, args.seed, data_root)
    load_dataset(wl.dataset, root=data_root)  # validates; writes the id map
    print(f"workload {wl.name}: {wl.model}/{wl.augmentation} on the "
          f"{wl.dataset} twin (n={twin['n']}, m={twin['m']}), twin seed "
          f"{args.seed}, edge list sha256 {twin['edge_list_sha256'][:16]}")
    print(f"why: {wl.why}")

    if not args.trace:
        setup_s, setup_values = measure_setup(wl.dataset, data_root,
                                              deadline)
    code, rss_mb, records = run_worker(wl.name, data_root,
                                       os.path.join(work, "out"),
                                       args.seconds, args.trace, deadline)
    env = next((r for r in records if r["kind"] == "env"), None)
    if env is not None:
        print(f"env: nproc={env['nproc']} python={env['python']} "
              f"numpy={env['numpy']} scipy={env['scipy']} "
              f"blas={env['blas']} blas_threads={env['blas_threads']} "
              f"commit={git_commit()}")
    seeds = [r for r in records if r["kind"] in ("seed", "traced")]
    problems = []
    failures = [msg for r in seeds for msg in r["failures"]]
    attempted = len(seeds)
    if code != 0:
        attempted += 1
        failures.append(f"worker exited with code {code}; see "
                        f"{os.path.join(work, 'out', 'worker.log')}")
    for msg in failures:
        print("FAILED seed: " + msg.strip().replace("\n", "\n    "))
    completed = [r for r in seeds if not r["failures"]]
    if not completed:
        problems.append("no seed completed")
    for r in completed:
        for row in r["rows"]:
            problems += check_row(wl, row)
        if len(r["rows"]) != 1:
            problems.append(f"expected one row per seed, got {len(r['rows'])}")
    key = f"{code_digest()}:{wl.name}:{args.seed}:{twin['edge_list_sha256']}"
    problems += check_digests(key, [r["digest"] for r in completed])
    for r in completed:
        row = r["rows"][0] if r["rows"] else {}
        print(f"{r['kind']} seed: {r['seed_s']:.3f} s  auc={row.get('auc')} "
              f"ap={row.get('ap')} hits_at_50={row.get('hits_at_50')} "
              f"digest {(r['digest'] or '')[:16]}")

    untraced = [r["seed_s"] for r in completed if r["kind"] == "seed"]
    fail_ratio = len(failures) / attempted if attempted else 0.0
    if args.trace:
        metrics = traced_report(completed, untraced, problems)
    else:
        metrics = {}
        if untraced:
            metrics["seed_s"] = statistics.median(untraced)
        metrics["peak_rss_mb"] = rss_mb
        metrics["setup_s"] = setup_s
        notes = {"seed_s": f"median of {len(untraced)} seeds",
                 "peak_rss_mb": "ru_maxrss of the measuring process",
                 "setup_s": f"median of {len(setup_values)} fresh processes: "
                            + ", ".join(f"{v:.3f}" for v in setup_values)}
        for name, value in metrics.items():
            print(f"{name:<16} {value:12.4f} {END_TO_END_UNITS[name]}  "
                  f"({notes[name]})")
    print(f"{'seed_fail_ratio':<16} {fail_ratio:12.4f} ratio  "
          f"({len(failures)} failed of {attempted} attempted)")
    print(f"run took {time.monotonic() - started:.1f} s")
    unit_of = per_layer_unit if args.trace else END_TO_END_UNITS.get
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    return result, problems


def traced_report(completed, untraced, problems):
    from linkssl.models.training import DECODER_EPOCHS
    from spans import STAGES
    from workloads import CT_EPOCHS

    traced = next((r for r in completed if r["kind"] == "traced"), None)
    if traced is None or not untraced:
        problems.append("the untraced or the traced seed did not complete")
        return {}
    m = dict(traced["metrics"])
    seed_s = m["trace.seed_s"]
    base = statistics.median(untraced)
    m["trace.untraced_seed_s"] = base
    m["trace.overhead_s"] = seed_s - base
    if traced["digest"] != completed[0]["digest"]:
        problems.append("traced and untraced seeds wrote different artifacts")
    covered = sum(m[s + ".s"] for s in STAGES) + m["runner.self_s"]
    residual = covered - seed_s
    if abs(residual) > STAGE_SUM_TOLERANCE * seed_s:
        problems.append(f"stage times + runner.self_s = {covered:.4f} s, "
                        f"traced seed_s = {seed_s:.4f} s")
    print(f"traced seed_s {seed_s:.4f} s, untraced {base:.4f} s, tracing "
          f"overhead {m['trace.overhead_s']:+.4f} s; stages + runner.self_s "
          f"cover it to {residual:+.2e} s")
    for name in sorted(m):
        unit = per_layer_unit(name)
        share = ""
        if unit == "s" and not name.startswith("trace."):
            share = f"  {100.0 * m[name] / seed_s:6.2f}% of traced seed_s"
        print(f"{name:<44} {m[name]:>16.6g} {unit}{share}")
    enc = m["models.training.train_encoder.s"]
    dec = m["models.training.train_decoder.s"]
    sampler = m["graphs.sample_negative_pairs.decoder.s"]
    calls = m["graphs.sample_negative_pairs.decoder.calls"]
    print(f"encoder {enc / CT_EPOCHS:.4f} s/epoch over {CT_EPOCHS} epochs; "
          f"decoder {dec:.3f} s for {DECODER_EPOCHS} epochs, "
          f"{100.0 * sampler / dec:.1f}% of it in sample_negative_pairs "
          f"({calls} calls)")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "linkssl", "__init__.py")):
        print(f"error: no linkssl sources under {SRC}; run the benchmark "
              f"from a source checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    result, problems = run_one(args, wl)
    for problem in problems:
        print(f"GATE FAILED ({wl.name}): {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


def run_all(args, workloads):
    """Each workload in its own run.py process, so that one killed or
    failing workload leaves the others measured."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
        table.append((name, result))
    if not args.trace:
        print(f"{'workload':<14} {'seed_s [s]':>11} {'peak_rss_mb [MB]':>17} "
              f"{'setup_s [s]':>12} {'seed_fail_ratio':>16}")
        for name, result in table:
            cells = [result["metrics"].get(k, {}).get("value")
                     for k in ("seed_s", "peak_rss_mb", "setup_s")]
            print(f"{name:<14} " + " ".join(
                f"{c:>{w}.4f}" if c is not None else f"{'-':>{w}}"
                for c, w in zip(cells, (11, 17, 12)))
                + f" {result['failed']:>10}/{result['attempted']}")
    print(json.dumps(summary))
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
