"""perfbench: end-to-end and per-layer benchmark of ``mfdep parse`` and
``mfdep train``.

    python3 perfbench/run.py --workload parse-long --seed 1 --seconds 35 --trace 0

One run builds the workload's fixtures from the seed, then starts one
workload process after another (a closed loop with one client), each
running the same CLI command on the same files, until the next process
would end after ``--seconds``. End-to-end metrics are medians over those
processes. With ``--trace 1`` untraced and traced processes alternate,
and the per-layer metrics come from the traced ones. The last line of
standard output is the JSON result; the lines before it name every
metric with its unit, and a copy with the environment and fixture digests
is written under perfbench/.work/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from check import check_parse, check_train

NPROC = len(os.sched_getaffinity(0))
# The BLAS pool is sized before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(NPROC, int(os.environ.get(_var) or NPROC)))

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKER = os.path.join(HERE, "worker.py")

MIN_PROCESSES = 3
HARD_LIMIT_S = 150.0  # the whole run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "tokens_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# (metric, unit, how it is taken from one traced worker result)
PER_LAYER = [
    (f"{span}_s", "s", lambda r, span=span: r["self_s"].get(span, 0.0))
    for span in (
        "scorer.encode", "scorer.edge", "scorer.sibling", "scorer.grandparent",
        "scorer.label", "decoder.mfvi", "kernels.forward", "kernels.backward",
        "tree.decode", "tree.cle", "autodiff.backward", "trainer.sentence_loss",
        "trainer.adam_step", "trainer.evaluate", "trainer.save_model",
        "trainer.load_model", "conllu.read", "conllu.write",
    )
] + [
    ("kernels.calls", "count", lambda r: r["calls"].get("kernels.forward", 0)),
    ("kernels.muladds", "count", lambda r: r["muladds"]),
    ("tree.decode_calls", "count", lambda r: r["calls"].get("tree.decode", 0)),
    ("tree.cle_calls", "count", lambda r: r["calls"].get("tree.cle", 0)),
    ("tree.mst_fallback_frac", "ratio",
     lambda r: r["calls"].get("tree.cle", 0) / max(1, r["calls"].get("tree.decode", 0))),
    ("trainer.adam_skipped", "count", lambda r: r["adam_skipped"]),
    ("sentences", "count", lambda r: r["sentences"]),
    ("tokens", "count", lambda r: r["tokens"]),
]


def workload_command(workload, fx, out_dir):
    """CLI arguments of the workload and the files its checks read."""
    if workload == "train-step":
        outs = {"model": os.path.join(out_dir, "model.bin"),
                "history": os.path.join(out_dir, "history.json")}
        argv = ["train", "--variant", "local2o", "--train", fx["train"], "--dev", fx["dev"],
                "--config", fx["config"],
                "--model", outs["model"], "--history", outs["history"]]
        return argv, outs
    outs = {"output": os.path.join(out_dir, "output.conllu")}
    variant = "local2o" if workload == "parse-long" else "single2o"
    argv = ["parse", "--variant", variant, "--single-root", "on", "--model", fx["model"],
            "--input", fx["input"], "--output", outs["output"]]
    return argv, outs


def run_process(argv, traced, out_dir, timeout):
    """Start one workload process, wait for it and read its result."""
    result_path = os.path.join(out_dir, "worker.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, WORKER, "--result", result_path]
    cmd += (["--trace"] if traced else []) + ["--"] + argv
    log_path = os.path.join(out_dir, "worker.log")
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
        end = time.monotonic()
    result = None
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
        if result["first_score"] is None:  # failed before scoring: nothing timed
            result = None
    with open(log_path, encoding="utf-8", errors="replace") as f:
        last_line = (f.read().strip().splitlines() or [""])[-1]
    return {"traced": traced, "rc": rc, "start": start, "wall_s": end - start,
            "result": result, "last_line": last_line}


def check_process(workload, fx, outs):
    if workload == "train-step":
        return check_train(fx["train"], outs["history"], outs["model"])
    return check_parse(fx["input"], outs["output"], fx["model"])


def end_to_end(proc):
    r = proc["result"]
    setup = r["first_score"] - proc["start"]
    tokens = r["train_tokens"] or r["tokens"]
    return {"setup_s": setup, "wall_s": proc["wall_s"],
            "tokens_per_s": tokens / (proc["wall_s"] - setup), "peak_rss_mb": r["peak_rss_mb"]}


def quality(workload, fx, outs):
    """UAS/LAS (parse-short, scored by ``mfdep eval``) or the final batch
    loss (train-step). Printed, not bounded: each exists on one workload."""
    if workload == "train-step":
        with open(outs["history"], encoding="utf-8") as f:
            last = json.load(f)[-1]
        return {"train_loss": (last["loss"], "nats"),
                "dev_uas": (last["dev_uas"], "%"), "dev_las": (last["dev_las"], "%")}
    if workload == "parse-long":
        return {}
    out = subprocess.run([sys.executable, "-m", "mfdep.cli", "eval", "--gold", fx["input"],
                          "--pred", outs["output"], "--json"],
                         cwd=ROOT, capture_output=True, text=True, timeout=20, check=True)
    scores = json.loads(out.stdout.strip().splitlines()[-1])
    return {"uas": (scores["uas"], "%"), "las": (scores["las"], "%")}


def commit():
    """The git commit when the benchmark runs in a git work tree; the
    source digest identifies the code either way."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mfdep")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    t_begin = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "mfdep", "cli.py")):
        print(f"error: mfdep sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = SRC
    from fixtures import WORKLOADS, build, digests

    ap = argparse.ArgumentParser(description="mfdep end-to-end and per-layer benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    fx = build(args.workload, args.seed, os.path.join(run_dir, "fixtures"))
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(out_dir)
    command, outs = workload_command(args.workload, fx, out_dir)

    procs, attempted, failed, problems = [], 0, 0, []
    first_outputs = None
    t0 = time.monotonic()
    while True:
        traced = bool(args.trace) and len(procs) % 2 == 1
        for path in outs.values():
            if os.path.exists(path):
                os.remove(path)
        proc = run_process(command, traced, out_dir, HARD_LIMIT_S - (time.monotonic() - t_begin))
        procs.append(proc)
        n, bad, why = check_process(args.workload, fx, outs)
        if proc["rc"] != 0:
            bad, why = n, [f"exit code {proc['rc']}: {proc['last_line']}"]
        attempted, failed = attempted + n, failed + bad
        problems += why
        if first_outputs is None and proc["rc"] == 0 and bad == 0:
            try:
                first_outputs = quality(args.workload, fx, outs)
            except (subprocess.SubprocessError, ValueError) as e:
                failed += n
                problems.append(f"scoring the output failed: {e}")
        if proc["result"] is None:
            break
        elapsed = time.monotonic() - t0
        per_proc = elapsed / len(procs)
        if len(procs) >= (2 if args.trace else MIN_PROCESSES) and elapsed + per_proc > args.seconds:
            break
        if time.monotonic() - t_begin + 2 * per_proc > HARD_LIMIT_S:
            break

    # A process that exits non-zero after scoring began still did and timed
    # its work: its sentences count as failed, and its times are kept.
    ok = [p for p in procs if p["result"] is not None]
    untraced = [end_to_end(p) for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    correct = failed == 0 and all(p["rc"] == 0 for p in procs)
    if traced:
        correct = correct and all(p["result"]["muladd_invariant"] for p in traced)

    metrics = {}
    if args.trace:
        for name, unit, take in PER_LAYER:
            metrics[name] = {"value": median([take(p["result"]) for p in traced]), "unit": unit}
        traced_wall = median([p["wall_s"] for p in traced])
        untraced_wall = median([m["wall_s"] for m in untraced])
        metrics["trace.untraced_s"] = {"value": median(
            [p["wall_s"] - sum(e - s for _n, s, e, parent in p["result"]["spans"] if parent < 0)
             for p in traced]), "unit": "s"}
        metrics["trace.overhead_frac"] = {
            "value": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0, "unit": "ratio"}
    else:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": median([m[name] for m in untraced]), "unit": unit}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "processes": len(procs), "correct": correct,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems[:10], "metrics": metrics,
        "quality": first_outputs or {},
        "per_process": [dict(end_to_end(p) if p["result"] else {"wall_s": p["wall_s"]},
                             traced=p["traced"], rc=p["rc"]) for p in procs],
        "environment": dict((ok[0]["result"]["env"] if ok else {}), commit=commit(),
                            source_sha256=source_digest()),
        "fixtures_sha256": digests(fx),
        "bench_s": time.monotonic() - t_begin,
    }
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)

    print(f"# {args.workload} seed {args.seed}: {len(procs)} processes "
          f"({len(traced)} traced), {report['bench_s']:.1f} s, environment "
          f"{json.dumps(report['environment'], sort_keys=True)}")
    print(f"failed_frac {report['failed_frac']:.4f} ratio ({failed}/{attempted} sentences)")
    for problem in problems[:10]:
        print(f"problem: {problem}")
    for name, (value, unit) in sorted(report["quality"].items()):
        print(f"{name} {value:.4f} {unit}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
