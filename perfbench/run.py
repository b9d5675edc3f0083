#!/usr/bin/env python3
"""Placement benchmark: one command per workload, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the worker package in this directory (release profile), then runs
each placement flow in a fresh worker process, one at a time, until
``--seconds`` are used. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics instead, and the spans of the
layer replay are written to ``perfbench/out/``. See README.md here for the
workloads and every metric.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("diff-sb18", "wl-200k", "paths-ml-1t", "route-sb18")
# Each run places its workload's frozen design from SUB_SEEDS initial
# placements (flow seeds seed*SUB_SEEDS+i); the QoR metrics are their means.
SUB_SEEDS = 4
# Flows per run at least: every sub-seed once, then sub-seed 0 again so the
# determinism gate compares two processes.
MIN_FLOWS = SUB_SEEDS + 1
MAX_FLOWS = 50
# Wall-clock cap on a run after the build: no worker starts or runs past
# it, so a hung flow cannot keep the run from ending.
RUN_LIMIT_S = 150
# Host speed: each worker times a fixed reference kernel of its own
# (`ref_s`) around its flow, and set-up and flow times are reported in
# units of a host on which that kernel takes REF_NOMINAL_S. The shared host
# drifts between fast and slow states by up to a third for minutes at a
# time; the reference moves with it, the code under test cannot move it.
REF_NOMINAL_S = 0.2
# The worker's exit code when a workload's pool is wider than the host.
EXIT_TOO_WIDE = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the worker and returns the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format", "json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        raise SystemExit("perfbench: build failed")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exe = msg["executable"]
    if exe is None:
        raise SystemExit("perfbench: build produced no executable")
    return exe


def revision():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_worker(exe, cmd, workload, seed, limit, spans=None):
    """Runs one worker process, killed at the monotonic time `limit`;
    returns its JSON record, or None on failure."""
    argv = [exe, cmd, "--workload", workload, "--seed", str(seed)]
    if spans:
        argv += ["--spans", spans]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(limit - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {cmd} worker killed at the {RUN_LIMIT_S} s run limit")
        return None
    if proc.returncode == EXIT_TOO_WIDE:
        log(proc.stderr.strip())
        raise SystemExit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {cmd} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log(f"perfbench: unreadable worker output: {lines[-1][:200]}")
        return None


def flow_ok(rec):
    """The correctness gate of one flow, before the determinism check."""
    if rec is None or rec.get("error") is not None:
        return False
    finite = all(isinstance(rec.get(k), (int, float)) and math.isfinite(rec[k])
                 for k in ("hpwl", "wns", "tns"))
    return finite and rec.get("violations") == 0


def flow_seed(seed, sub):
    return (seed * SUB_SEEDS + sub) % 2**64


def gate(records):
    """Counts failed flows: gate failures plus fingerprint mismatches
    against the first passing flow of the same flow seed. Returns the
    failure count and the reference record of each flow seed."""
    refs = {}
    for r in records:
        if flow_ok(r):
            refs.setdefault(r["seed"], r)
    failed = sum(1 for r in records
                 if not flow_ok(r) or r["fingerprint"] != refs[r["seed"]]["fingerprint"])
    return failed, refs


def run_flows(exe, workload, seed, deadline, min_flows, subs, limit):
    """Untraced flows, one process each and cycling over the first `subs`
    flow seeds, until the next would overrun the deadline."""
    records, longest = [], 0.0
    while len(records) < MAX_FLOWS and time.monotonic() < limit:
        t0 = time.monotonic()
        sub = len(records) % subs
        records.append(run_worker(exe, "flow", workload, flow_seed(seed, sub), limit))
        longest = max(longest, time.monotonic() - t0)
        if len(records) >= min_flows and time.monotonic() + longest > deadline:
            break
    return records


def scaled(rec, seconds):
    """`seconds` measured in the worker of `rec`, at the reference speed."""
    return seconds * REF_NOMINAL_S / rec["ref_s"]


def end_to_end(records, failed, refs):
    ok = [r for r in records if flow_ok(r)]
    med = lambda values: statistics.median(values) if values else 0.0
    mean = lambda key, sign=1.0: sign * statistics.fmean(r[key] for r in refs.values()) if refs else 0.0
    return {
        "setup_s": (med([scaled(r, statistics.median(r["setup_s"])) for r in records if r]), "s"),
        "place_s": (med([scaled(r, r["place_s"]) for r in ok]), "s"),
        "peak_rss_mb": (med([r["peak_rss_mb"] for r in ok]), "MB"),
        "hpwl_um": (mean("hpwl"), "um"),
        "wns_ps": (mean("wns", -1.0), "ps"),
        "tns_ps": (mean("tns", -1.0), "ps"),
        "overflow_frac": (mean("overflow_frac"), "ratio"),
        "pass_frac": ((len(records) - failed) / len(records), "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    exe = build()
    start = time.monotonic()
    deadline = start + args.seconds
    limit = start + RUN_LIMIT_S

    if args.trace == 0:
        records = run_flows(exe, args.workload, args.seed, deadline, MIN_FLOWS, SUB_SEEDS, limit)
        failed, refs = gate(records)
        metrics = end_to_end(records, failed, refs)
    else:
        # Half the time for untraced flows (the overhead baseline and the
        # observe-off side of the determinism gate), then one traced flow.
        records = run_flows(exe, args.workload, args.seed, start + args.seconds / 2, 1, 1, limit)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
        traced = run_worker(exe, "trace", args.workload, flow_seed(args.seed, 0), limit, spans)
        records.append(traced)
        failed, refs = gate(records)
        metrics = {}
        if traced is not None and "layers" in traced:
            metrics = {k: tuple(v) for k, v in traced["layers"].items()}
            extra = sorted(set(metrics) - set(units))
            if extra:
                raise SystemExit(f"perfbench: per-layer metrics missing from BENCHMARK.json: {extra}")
            untraced = [r["place_s"] for r in records[:-1] if flow_ok(r)]
            overhead = traced["place_s"] - statistics.median(untraced) if untraced else 0.0
            metrics["core.trace_overhead_s"] = (overhead, "s")

    any_rec = next((r for r in records if r), {})
    done = [r for r in records if r]
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "available_parallelism": any_rec.get("available_parallelism"),
        "pool_width": any_rec.get("width"),
        "revision": revision(),
        "profile": any_rec.get("profile"),
        "cells": any_rec.get("cells"),
        "pins": any_rec.get("pins"),
        "flows": len(records),
        "iterations": any_rec.get("iterations"),
        # The unscaled measurements behind setup_s and place_s.
        "ref_s": statistics.median(r["ref_s"] for r in done) if done else None,
        "wall_place_s": statistics.median(r["place_s"] for r in done) if done else None,
    }
    print("header " + json.dumps(header))
    # A layer the workload's flow does not use is not replayed and reads 0.
    values = {k: metrics.get(k, (0.0, u)) for k, u in units.items()}
    for name, (value, unit) in values.items():
        print(f"{name:32s} {value:>18.6f} {unit}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
