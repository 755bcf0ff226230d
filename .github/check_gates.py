#!/usr/bin/env python3
"""Verifies every bench gate from the BENCH_*.json artifacts in one pass.

Each bench binary already enforces its own gates (nonzero exit), but CI
re-checks from the JSON so a bench that silently wrote a failing gate --
or a workflow edit that dropped a bench's exit-code propagation -- still
fails the build. Thresholds live in the bench binaries (env-overridable
there, e.g. CONCEALER_EXP16_MIN_SPEEDUP); the values actually used are
recorded in each JSON's gate object, so this script only reads.

Usage: check_gates.py BENCH_a.json [BENCH_b.json ...]

Every file passed must have a spec registered below; an unknown
BENCH_*.json fails the run so new benches can't ship gateless.
"""

import json
import os
import sys


def _fmt(d, key):
    return json.dumps(d.get(key, d))


# One entry per artifact: list of (gate predicate, failure message fn).
# A predicate receives the parsed JSON and returns True when the gate
# holds; the message fn renders the diagnostic on failure.

def crypto_checks(d):
    cpu_aes = "aes" in open("/proc/cpuinfo").read().split()
    print(
        "crypto: cpu aes flag:", cpu_aes,
        "| active backend:", d["active_backend"],
        "| speedups:", d["speedups"],
    )
    # The accelerated backend must actually engage on an AES-capable
    # runner -- a silent soft fallback would quietly regress every query.
    if cpu_aes and not d["accelerated_available"]:
        return "CPU advertises AES but no accelerated backend was detected"
    if cpu_aes and d["active_backend"] == "soft":
        return "CPU advertises AES but dispatch fell back to the soft backend"
    if not d["gate"]["soft_pass"]:
        return "pipelined soft backend below 1.5x seed: %s" % d["speedups"]
    if not d["gate"]["accel_pass"]:
        return "accelerated backend below 5x seed: %s" % d["speedups"]
    return None


def index_checks(d):
    print("index gate:", d["gate"])
    if not d["gate"]["identical"]:
        return "bulk index probing diverged from the per-key path"
    if not d["gate"]["speedup_pass"]:
        return "bulk FetchRefs at 256 probes below %sx per-key: %.2fx" % (
            d["gate"]["min_speedup"],
            d["gate"]["speedup_at_256_fetchrefs_memory"],
        )
    p = d["paged"]
    print(
        "index paged gate: pages:", p["pages"],
        "| cold %.4fs vs cold+prefetch %.4fs (%.2fx, drop_effective=%s)"
        % (p["cold_s"], p["cold_prefetch_s"], p["prefetch_speedup"],
           p["drop_effective"]),
    )
    if not p["identical"]:
        return "paged-index answers diverged from the resident index"
    if not d["gate"]["paged_pass"]:
        return (
            "paged cold BulkFind with prefetch below %sx of no-prefetch: %.2fx"
            % (p["min_prefetch_speedup"], p["prefetch_speedup"])
        )
    return None


def storage_checks(d):
    print("storage gate:", d["gate"])
    if not d["gate"]["persist_identical"]:
        return "restarted mmap provider diverged from in-memory answers"
    if not d["gate"]["warm_pass"]:
        return "warm mmap query latency above 1.5x of in-memory: %s" % (
            d["gate"]["warm_ratio_vs_memory"]
        )
    return None


def tenants_checks(d):
    print("tenant gate:", d["gate"])
    if not d["gate"]["isolation_identical"]:
        return "a multi-tenant answer diverged from its dedicated single-tenant run"
    if not d["gate"]["throughput_pass"]:
        return "aggregate throughput below the floor: %s" % d["gate"]
    return None


def tenants_skew_checks(d):
    print("skew gate:", d["gate"])
    if not d["gate"]["identical"]:
        return "an answer diverged under skewed load"
    if not d["gate"]["cap_pass"]:
        return "light-tenant p99 above the cap under a flooding tenant: %s" % (
            d["gate"]
        )
    return None


def dynamic_checks(d):
    print(
        "durability gate:", d["gate"],
        "| amplification: %.2fx" % d["churn"]["amplification"],
    )
    if not d["gate"]["restart_identity_pass"]:
        return "a post-reopen probe diverged from the in-memory reference"
    if not d["gate"]["wal_bounded_pass"]:
        return "WAL not truncated back under the checkpoint threshold"
    if not d["gate"]["amplification_pass"]:
        return "disk amplification above the cap: %.2fx" % (
            d["churn"]["amplification"]
        )
    return None


def net_checks(d):
    print("net gate:", d["gate"], "| drain_ms: %.2f" % d["drain_ms"])
    if not d["gate"]["identical"]:
        return "an answer read over the wire diverged from the in-process registry"
    if not d["gate"]["gates_ok"]:
        return "p99 or drain-time cap exceeded: %s" % d["gate"]
    return None


GATES = {
    "BENCH_crypto_ci.json": crypto_checks,
    "BENCH_index.json": index_checks,
    "BENCH_storage.json": storage_checks,
    "BENCH_tenants.json": tenants_checks,
    "BENCH_tenants_skew.json": tenants_skew_checks,
    "BENCH_dynamic.json": dynamic_checks,
    "BENCH_net.json": net_checks,
}


def main(argv):
    if len(argv) < 2:
        sys.exit("usage: check_gates.py BENCH_a.json [BENCH_b.json ...]")
    failures = []
    for path in argv[1:]:
        name = os.path.basename(path)
        check = GATES.get(name)
        if check is None:
            failures.append(
                "%s: no gate spec registered in check_gates.py" % name
            )
            continue
        try:
            with open(path) as f:
                d = json.load(f)
        except (OSError, ValueError) as e:
            failures.append("%s: unreadable (%s)" % (name, e))
            continue
        err = check(d)
        if err:
            failures.append("%s: %s" % (name, err))
    if failures:
        for f in failures:
            print("GATE FAILED --", f, file=sys.stderr)
        sys.exit(1)
    print("all %d gate files pass" % (len(argv) - 1))


if __name__ == "__main__":
    main(sys.argv)
