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
    flags = open("/proc/cpuinfo").read().split()
    cpu_aes = "aes" in flags
    cpu_sha = "sha_ni" in flags
    print(
        "crypto: cpu aes flag:", cpu_aes,
        "| active backend:", d["active_backend"],
        "| cpu sha_ni flag:", cpu_sha,
        "| active sha backend:", d["sha_active_backend"],
        "| speedups:", d["speedups"],
    )
    # The accelerated backends must actually engage on a capable runner --
    # a silent soft fallback would quietly regress every query.
    if cpu_aes and not d["accelerated_available"]:
        return "CPU advertises AES but no accelerated backend was detected"
    if cpu_aes and d["active_backend"] == "soft":
        return "CPU advertises AES but dispatch fell back to the soft backend"
    if cpu_sha and d["sha_active_backend"] == "soft":
        return "CPU advertises sha_ni but SHA-256 dispatch fell back to soft"
    if not d["gate"]["soft_pass"]:
        return "pipelined soft backend below 1.5x seed: %s" % d["speedups"]
    if not d["gate"]["accel_pass"]:
        return "accelerated backend below 5x seed: %s" % d["speedups"]
    # The hash-chain gate is waived only where the CPU has no SHA
    # extensions to measure.
    if cpu_sha and not d["gate"]["sha_pass"]:
        return "three-lane chain step on SHA-NI below %sx soft: %s" % (
            d["gate"]["sha_row_accel_over_soft_min"], d["speedups"]
        )
    return None


def hash_chains_checks(d):
    # A committed before/after record (not regenerated by CI): the claim,
    # the end-to-end bounds and the layer moves it was accepted on must
    # hold in the numbers it carries.
    c = d["claim"]
    print(
        "hash chains: %s %s %d/%d pair wins, median %.1f vs %.1f "
        "(parent IQR %.1f)"
        % (c["workload"], c["metric"], c["wins"], c["pairs"],
           c["change_median"], c["parent_median"], c["parent_iqr"]),
    )
    if not d["all_runs_correct"]:
        return "a recorded run was not correct"
    if c["wins"] < c["min_wins"]:
        return "claim won %d of %d pairs (need %d)" % (
            c["wins"], c["pairs"], c["min_wins"])
    if abs(c["change_median"] - c["parent_median"]) <= c["parent_iqr"]:
        return "claim's median gap within the parent's IQR"
    for workload, m in d["end_to_end"].items():
        for name, v in m.items():
            if v["worse_by"] > v["bound"]:
                return "%s %s worse by %.3f (bound %.2f)" % (
                    workload, name, v["worse_by"], v["bound"])
    t = d["traced"]
    if t["verify_speedup"] < t["verify_min_speedup"]:
        return "executor.verify_ms fell only %.2fx" % t["verify_speedup"]
    if t["encrypt_speedup"] < t["encrypt_min_speedup"]:
        return "data_provider.encrypt_epoch_ms fell only %.2fx" % (
            t["encrypt_speedup"])
    if not d["stored_bytes_identical"]:
        return "stored_bytes_per_tuple changed: the hashes must change no byte"
    return None


def executor_checks(d):
    # A committed before/after record of the per-unit executor (not
    # regenerated by CI): the claim, the end-to-end bounds, the byte
    # identity of the store and the traced serial replica must hold in the
    # numbers it carries.
    c = d["claim"]
    print(
        "executor: %s %s %d/%d pair wins, median %.1f vs %.1f "
        "(parent IQR %.1f)"
        % (c["workload"], c["metric"], c["wins"], c["pairs"],
           c["change_median"], c["parent_median"], c["parent_iqr"]),
    )
    if not d["all_runs_correct"]:
        return "a recorded run was not correct"
    if c["wins"] < c["min_wins"]:
        return "claim won %d of %d pairs (need %d)" % (
            c["wins"], c["pairs"], c["min_wins"])
    gap = c["parent_median"] - c["change_median"]
    if c["better"] == "higher":
        gap = -gap
    if gap <= c["parent_iqr"]:
        return "claim's median gain %.2f within the parent's IQR %.2f" % (
            gap, c["parent_iqr"])
    for workload, m in d["end_to_end"].items():
        for name, v in m.items():
            if v["worse_by"] > v["bound"]:
                return "%s %s worse by %.3f (bound %.2f)" % (
                    workload, name, v["worse_by"], v["bound"])
        s = m["stored_bytes_per_tuple"]
        if s["change_median"] != s["parent_median"]:
            return "%s stored_bytes_per_tuple changed: %s -> %s" % (
                workload, s["parent_median"], s["change_median"])
    if not d["stored_bytes_identical"]:
        return "stored_bytes_per_tuple changed: the executor writes no byte"
    for workload, t in d["traced"].items():
        for side in ("parent", "change"):
            checks = t[side + "_checks"]
            if checks["replica_mismatches"] != 0:
                return "%s traced %s: %d replica mismatches" % (
                    workload, side, checks["replica_mismatches"])
            if checks["volume_violations"] or checks["wrong_answers"]:
                return "%s traced %s: volume or answer failure %s" % (
                    workload, side, checks)
    # A record that names the layers its change targets must show each of
    # them fell in its traced runs.
    for workload, layers in d.get("layers_fall", {}).items():
        t = d["traced"][workload]
        for layer in layers:
            if t["change"][layer] >= t["parent"][layer]:
                return "%s traced %s did not fall: %s -> %s" % (
                    workload, layer, t["parent"][layer], t["change"][layer])
    return None


def recovery_checks(d):
    # A committed before/after record of restart recovery (not regenerated
    # by CI): the claim on recovery_s, its confirmation on a second seed,
    # the end-to-end bounds on both workloads, the byte identity of the
    # store and the traced runs' correctness must hold in the numbers it
    # carries.
    c = d["claim"]
    print(
        "recovery: %s %s %d/%d pair wins, median %.3f vs %.3f "
        "(parent IQR %.3f)"
        % (c["workload"], c["metric"], c["wins"], c["pairs"],
           c["change_median"], c["parent_median"], c["parent_iqr"]),
    )
    if not d["all_runs_correct"]:
        return "a recorded run was not correct"
    for block in (c, d["confirmation"]):
        if block["wins"] < block["min_wins"]:
            return "seed %d: claim won %d of %d pairs (need %d)" % (
                block["seed"], block["wins"], block["pairs"],
                block["min_wins"])
    gap = c["parent_median"] - c["change_median"]
    if gap <= c["parent_iqr"]:
        return "claim's median gain %.3f within the parent's IQR %.3f" % (
            gap, c["parent_iqr"])
    # The pooled checksum pass earns its plumbing only if lending the pool
    # beats running the pass inline, in the same tree.
    p = d["pooled_checksum"]
    print(
        "recovery: pooled checksum pass %d/%d pair wins, median %.3f vs "
        "%.3f inline (inline IQR %.3f)"
        % (p["wins"], p["pairs"], p["pooled_median"], p["inline_median"],
           p["inline_iqr"]),
    )
    if not p["all_runs_correct"]:
        return "a pooled-vs-inline run was not correct"
    if p["wins"] < p["min_wins"]:
        return "pooled checksum pass won %d of %d pairs (need %d)" % (
            p["wins"], p["pairs"], p["min_wins"])
    if p["inline_median"] - p["pooled_median"] <= p["inline_iqr"]:
        return "pooled checksum pass gain within the inline IQR %.3f" % (
            p["inline_iqr"])
    for workload, m in d["end_to_end"].items():
        for name, v in m.items():
            if v["worse_by"] > v["bound"]:
                return "%s %s worse by %.3f (bound %.2f)" % (
                    workload, name, v["worse_by"], v["bound"])
        s = m["stored_bytes_per_tuple"]
        if s["change_median"] != s["parent_median"]:
            return "%s stored_bytes_per_tuple changed: %s -> %s" % (
                workload, s["parent_median"], s["change_median"])
    if not d["stored_bytes_identical"]:
        return "stored_bytes_per_tuple changed: recovery writes no byte"
    for workload, t in d["traced"].items():
        for side in ("parent", "change"):
            checks = t[side + "_checks"]
            if (checks["replica_mismatches"] != 0
                    or checks["volume_violations"] != 0
                    or checks["wrong_answers"] != 0
                    or checks["failed"] != 0):
                return "%s traced %s: %s" % (workload, side, checks)
    t = d["traced"]["ingest_restart"]
    if t["change"]["storage.recover_ms"] >= t["parent"]["storage.recover_ms"]:
        return "traced storage.recover_ms did not fall: %s -> %s" % (
            t["parent"]["storage.recover_ms"], t["change"]["storage.recover_ms"])
    if t["change"]["storage.index_attached"] != t["parent"]["storage.index_attached"]:
        return "storage.index_attached moved: the node file schedule is unchanged"
    return None


def index_checks(d):
    print("index gate:", d["gate"])
    if not d["gate"]["identical"]:
        return "bulk index probing diverged from the per-key path"
    if not d["gate"]["speedup_pass"]:
        return "bulk FetchRefs at 256 probes below %sx per-key: %.2fx" % (
            d["gate"]["min_speedup"],
            d["gate"]["speedup_at_256_fetchrefs"],
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
    r = d["rebuild"]
    print(
        "index rebuild gate: %d rows | RecoverIndex %.3fs vs per-row Insert "
        "%.3fs (%.2fx, min %sx)"
        % (r["rows"], r["rebuild_s"], r["reference_s"], r["speedup"],
           r["min_speedup"]),
    )
    if not r["identical"]:
        return "the rebuilt index diverged from the per-row Insert reference"
    if r["attached"]:
        return "the rebuild leg attached its stale node file"
    if r["speedup"] < r["min_speedup"]:
        return "RecoverIndex below %sx of the per-row Insert loop: %.2fx" % (
            r["min_speedup"], r["speedup"])
    if not d["gate"]["rebuild_pass"]:
        return "rebuild gate failed: %s" % r
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
        return "a post-reopen probe diverged from the never-restarted reference"
    if not d["gate"]["wal_bounded_pass"]:
        return "WAL not truncated back under the checkpoint threshold"
    if not d["gate"]["amplification_pass"]:
        return "disk amplification above the cap: %.2fx" % (
            d["churn"]["amplification"]
        )
    return None


GATES = {
    "BENCH_crypto.json": crypto_checks,
    "BENCH_crypto_ci.json": crypto_checks,
    "BENCH_hash_chains.json": hash_chains_checks,
    "BENCH_executor.json": executor_checks,
    "BENCH_row_access.json": executor_checks,
    "BENCH_recovery.json": recovery_checks,
    "BENCH_index.json": index_checks,
    "BENCH_tenants.json": tenants_checks,
    "BENCH_tenants_skew.json": tenants_skew_checks,
    "BENCH_dynamic.json": dynamic_checks,
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
