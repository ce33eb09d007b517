"""The process a workload is measured in; started by run.py, one per use.

    worker.py setup --dataset NAME --data-root DIR
        Times `import linkssl` plus `load_dataset` in this fresh process and
        prints {"setup_s": ...}.

    worker.py seeds --workload NAME --data-root DIR --out DIR
                    --seconds S --trace 0|1 --result FILE
        Loads the twin, then runs one seed at a time through
        `runner.run_experiment(cfg, out_dir=..., graph=..., workers=1)` in a
        closed loop: another repeat starts only while it is expected to end
        inside S seconds, so at least one seed always runs. With --trace 1 it
        runs one untraced seed and then the same seed again under the span
        wrappers of spans.py. Every seed appends one JSON line to FILE as
        soon as it ends, so a parent whose worker is killed still reads the
        seeds that finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback


def setup_probe(args):
    start = time.perf_counter()
    import linkssl
    from linkssl.datasets import load_dataset

    load_dataset(args.dataset, root=args.data_root)
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "linkssl": linkssl.__file__}))


def seed_digest(seed_dir):
    """SHA-256 over metrics.csv, loss.csv and the arrays in params.npz.

    The arrays are hashed by name, dtype, shape and bytes rather than as the
    .npz file, whose zip entries carry the time they were written.
    """
    import numpy as np

    h = hashlib.sha256()
    for name in ("metrics.csv", "loss.csv"):
        with open(os.path.join(seed_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    with np.load(os.path.join(seed_dir, "params.npz")) as params:
        for key in sorted(params.files):
            arr = np.ascontiguousarray(params[key])
            h.update(f"{key}|{arr.dtype.str}|{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def one_seed(runner, cfg, graph, out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        rows, failures = runner.run_experiment(cfg, out_dir=out_dir,
                                               graph=graph, workers=1)
    except Exception:  # recorded like the failures run_experiment catches
        rows, failures = [], [(cfg.seeds[0], traceback.format_exc())]
    seed_s = time.perf_counter() - start
    record = {"kind": "seed", "seed_s": seed_s, "rows": rows,
              "failures": [msg for _, msg in failures], "digest": None}
    if not failures:
        seed_dir = os.path.join(out_dir, cfg.dataset, cfg.label(),
                                str(cfg.seeds[0]))
        record["digest"] = seed_digest(seed_dir)
    return record


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def traced_metrics(tracer, tracker, seed_s):
    from spans import AUTODIFF_OPS, ROOT, STAGES

    m = {}
    for name in ("graphs.sample_negative_pairs.decoder",
                 "graphs.sample_negative_pairs.links",
                 "graphs.sample_negative_pairs.eval"):
        m[name + ".s"] = tracer.total_s[name]
        m[name + ".calls"] = tracer.calls[name]
        m[name + ".pairs"] = tracer.counts[name + ".pairs"]
    for name in ("models.losses.select_link_sets", "models.losses.grace_loss",
                 "models.losses.lgrace_loss", "models.losses.bgrl_loss"):
        m[name + ".s"] = tracer.total_s[name]
    m["models.losses.shared_links"] = tracer.counts[
        "models.losses.shared_links"]
    for name in ("autodiff.backward", "graphs.normalized_adjacency",
                 "models.nets.encoder_forward", "augment.make_views",
                 "sbm.sample_sbm", "community.louvain", "optim.adam_step",
                 "optim.ema_update"):
        m[name + ".s"] = tracer.total_s[name]
        m[name + ".calls"] = tracer.calls[name]
    m["augment.view_edges"] = tracer.counts["augment.view_edges"]
    m["autodiff.tensors"] = len(tracker.shapes)
    m["autodiff.tensor_bytes"] = sum(8 * r * c for r, c in tracker.shapes)
    for op in AUTODIFF_OPS:
        name = f"autodiff.{op}"
        m[name + ".calls"] = tracer.calls[name]
        m[name + ".s"] = tracer.self_s[name]  # forward self time
        m[name + ".bytes"] = tracer.counts[name + ".bytes"]
    for name in STAGES:
        m[name + ".s"] = tracer.stage_s[name]
    m["runner.self_s"] = tracer.self_s[ROOT]
    m["trace.seed_s"] = seed_s
    return m


def run_seeds(args):
    start = time.perf_counter()
    from linkssl import autodiff, runner
    from linkssl.datasets import load_dataset
    from workloads import WORKLOADS

    import_s = time.perf_counter() - start
    load_start = time.perf_counter()
    graph = load_dataset(WORKLOADS[args.workload].dataset, root=args.data_root)
    load_s = time.perf_counter() - load_start
    cfg = WORKLOADS[args.workload].config()

    with open(args.result, "a") as log:
        def emit(record):
            log.write(json.dumps(record) + "\n")
            log.flush()

        emit({"kind": "env", "import_s": import_s, "load_s": load_s,
              **environment()})
        loop_start = time.perf_counter()
        times = []
        while True:
            record = one_seed(runner, cfg, graph,
                              os.path.join(args.out, str(len(times))))
            emit(record)
            if record["failures"]:
                return  # a seed is deterministic: a repeat fails the same way
            times.append(record["seed_s"])
            elapsed = time.perf_counter() - loop_start
            if args.trace or elapsed + statistics.median(times) > args.seconds:
                break
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            with autodiff.track_allocations() as tracker, tracer:
                record = one_seed(runner, cfg, graph,
                                  os.path.join(args.out, "traced"))
            record["kind"] = "traced"
            record["metrics"] = traced_metrics(tracer, tracker,
                                               record["seed_s"])
            record["metrics"]["datasets.load_dataset.s"] = load_s
            emit(record)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--dataset", required=True)
    setup.add_argument("--data-root", required=True)
    seeds = sub.add_parser("seeds")
    seeds.add_argument("--workload", required=True)
    seeds.add_argument("--data-root", required=True)
    seeds.add_argument("--out", required=True)
    seeds.add_argument("--seconds", type=float, required=True)
    seeds.add_argument("--trace", type=int, choices=(0, 1), default=0)
    seeds.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup_probe(args)
    else:
        run_seeds(args)


if __name__ == "__main__":
    main()
