#!/usr/bin/env bash
# Tier-1 gate: everything here must pass before merge.
#
# The workspace has no registry dependencies (proptest/criterion are
# vendored shims under crates/), so --offline keeps CI honest about that.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --workspace --release --offline

echo "== tests =="
cargo test --workspace -q --offline

echo "== repository benchmark: self-test and correctness smoke =="
# The benchmark's determinism and metric-list self-test, then a short
# untraced run of each workload. Its last line must report
# "correct": true, so the Sedov drift, shock-radius and digest checks and
# the campaign's failure checks gate every change.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for w in sedov wd_collision campaign; do
  cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 3 --trace 0 >/tmp/perfbench_$w.log
  tail -n 1 /tmp/perfbench_$w.log | python3 -c "
import json, sys
r = json.loads(sys.stdin.read())
assert r['correct'] is True, r
print('perfbench $w: correct, %d attempted, %d failed' % (r['attempted'], r['failed']))
"
done
# A traced Sedov run pins the exchange volume: each sweep moves only the
# two ghost slabs along its own direction (32³ on 8³ boxes, two ranks, 9
# components). A change that widens the halo again, or adds or drops
# graph tasks, fails here.
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
  --workload sedov --seed 1 --seconds 3 --trace 1 >/tmp/perfbench_sedov_trace.log
tail -n 1 /tmp/perfbench_sedov_trace.log | python3 -c "
import json, sys
r = json.loads(sys.stdin.read())
assert r['correct'] is True, r
m = {k: v['value'] for k, v in r['metrics'].items()}
want = {'amr.ghost.messages_per_step': 32,
        'amr.ghost.bytes_per_step': 2654208,
        'parallel.graph.tasks_per_step': 960}
for k, v in want.items():
    assert m[k] == v, f'{k}: {m[k]} != {v}'
print('perfbench sedov trace: exchange and graph counts as pinned')
"

echo "== restart round-trip smoke =="
# The survival demo kills itself mid-run three times, corrupts a
# checkpoint, and must still reproduce the uninterrupted digest.
cargo run --release --offline --example restart | tee /tmp/restart_smoke.log
grep -q "RESTART OK" /tmp/restart_smoke.log

echo "== fault-injection smoke =="
# ~1% of burn zones are forced to fail and must be rescued by the retry
# ladder (retries visible in the profiler report); a second phase with
# unrecoverable faults must degrade to an emergency checkpoint plus a
# structured error, never a panic.
cargo run --release --offline --example fault_injection | tee /tmp/fault_smoke.log
grep -q "FAULT RECOVERY OK" /tmp/fault_smoke.log
grep -q "EMERGENCY CHECKPOINT OK" /tmp/fault_smoke.log

echo "== burner bench smoke (test mode) =="
# Dense-vs-sparse Newton comparison plus batched SoA throughput in smoke
# mode: tiny sample counts, no timing assertions here — but the
# BENCH_burner.json artifact must be valid JSON with the expected schema,
# and the batched path must actually beat the scalar ladder (speedup > 1;
# the quantitative floor lives in the perf gate below).
cargo bench --offline -p exastro-bench --bench burner -- --test >/tmp/burner_smoke.log
python3 - <<'EOF'
import json
d = json.load(open("BENCH_burner.json"))
assert d["bench"] == "burner", d
labels = {m["label"] for m in d["metrics"]}
for need in ("iso7/newton_solve_speedup", "aprox13/newton_solve_speedup",
             "iso7/zones_per_us_scalar", "aprox13/zones_per_us_scalar",
             "iso7/zones_per_us_batch8", "aprox13/zones_per_us_batch8",
             "iso7/batch_speedup_w8", "aprox13/batch_speedup_w8"):
    assert need in labels, f"missing {need} in {sorted(labels)}"
by = {m["label"]: m["value"] for m in d["metrics"]}
for net in ("iso7", "aprox13"):
    s = by[f"{net}/batch_speedup_w8"]
    assert s > 1.0, f"{net}: batched burns slower than scalar ({s:.2f}x)"
print(f"BENCH_burner.json OK ({len(d['metrics'])} metrics)")
EOF

echo "== telemetry smoke (quickstart --trace --metrics --graph-trace) =="
# A short quickstart run with every telemetry sink on: the Chrome trace
# must be valid JSON with balanced, name-matched B/E pairs, id-paired s/f
# flow arrows, and monotonic per-thread timestamps; the step-metrics
# stream must carry the full schema with 1-based ordinals; and the
# critical-path summary must reconcile measured overlap vs the machine
# model per graph.
QUICKSTART_STEPS=12 cargo run --release --offline --example quickstart -- \
  --trace /tmp/quickstart_trace.json --metrics /tmp/quickstart_steps.jsonl \
  --graph-trace /tmp/quickstart_graphs.json \
  >/tmp/quickstart_smoke.log
python3 - <<'EOF'
import json
d = json.load(open("/tmp/quickstart_trace.json"))
evs = d["traceEvents"]
assert evs, "empty trace"
stacks, last_ts, flows = {}, {}, {}
for e in evs:
    assert e["ph"] in ("B", "E", "s", "f"), e
    assert e["pid"] == 1
    tid = e["tid"]
    assert e["ts"] >= last_ts.get(tid, 0.0), f"non-monotonic ts on tid {tid}"
    last_ts[tid] = e["ts"]
    if e["ph"] == "B":
        stacks.setdefault(tid, []).append(e["name"])
    elif e["ph"] == "E":
        assert stacks.get(tid), f"stray E on tid {tid}"
        top = stacks[tid].pop()
        assert top == e["name"], f"mismatched E {e['name']} vs open {top}"
    else:
        # Flow arrows bind an edge across tasks: one s and one f per id,
        # each inside an open slice, f with bp=e so Perfetto attaches it
        # to the enclosing slice end.
        assert stacks.get(tid), f"flow {e['ph']} outside any open slice"
        if e["ph"] == "f":
            assert e.get("bp") == "e", f"f without bp=e: {e}"
        flows.setdefault(e["id"], []).append((e["ph"], e["ts"]))
for tid, s in stacks.items():
    assert not s, f"unbalanced B on tid {tid}: {s}"
assert flows, "graph tracing produced no flow arrows"
for fid, parts in flows.items():
    phs = sorted(p for p, _ in parts)
    assert phs == ["f", "s"], f"flow {fid} not an s/f pair: {phs}"
    ts = {p: t for p, t in parts}
    assert ts["s"] <= ts["f"], f"flow {fid} travels backward in time"
print(f"trace OK ({len(evs)} events, {len(last_ts)} thread(s), "
      f"{len(flows)} flow(s), dropped {d.get('droppedEventCount', 0)})")
g = json.load(open("/tmp/quickstart_graphs.json"))
assert g["schema"] == "exastro.graphtrace.v1", g.get("schema")
assert g["graphs"], "no graph summaries recorded"
for s in g["graphs"]:
    need = {"label", "tasks", "edges", "workers", "wall_us", "total_run_us",
            "total_queue_wait_us", "critical_path_us", "critical_path",
            "comm_us", "compute_us", "hidden_comm_us",
            "measured_overlap_efficiency", "predicted_overlap_efficiency",
            "overlap_drift"}
    assert need <= set(s), f"graph summary missing {need - set(s)}"
    assert s["tasks"] > 0 and s["critical_path_us"] > 0
    assert s["critical_path"], "critical path must be non-empty"
    assert s["critical_path_us"] <= s["total_run_us"] + 1e-9, (
        "critical path cannot exceed total work")
    if s["measured_overlap_efficiency"] is not None:
        m, p = s["measured_overlap_efficiency"], s["predicted_overlap_efficiency"]
        assert 0.0 <= m <= 1.0, m
        assert p is not None and s["overlap_drift"] is not None, (
            "summaries must be reconciled against the overlap model")
        assert abs((m - p) - s["overlap_drift"]) < 1e-12
    # per-task slack: on-critical-path tasks have zero slack
    for t in s["task_stats"]:
        assert t["slack_us"] >= 0.0
        if t["on_critical_path"]:
            assert t["slack_us"] < 1e-9, f"critical task with slack: {t}"
print(f"graphs.json OK ({len(g['graphs'])} graph(s), "
      f"{sum(s['tasks'] for s in g['graphs'])} task(s))")
need = {"driver", "step", "t", "dt", "wall_ns", "zones", "zones_per_us",
        "newton_iters", "bdf_steps", "burn_retries", "recovered_relaxed",
        "recovered_subcycle", "recovered_offload", "step_rejections",
        "checkpoint_bytes", "arena_live_bytes", "arena_peak_bytes"}
recs = [json.loads(l) for l in open("/tmp/quickstart_steps.jsonl")]
assert len(recs) == 12, f"expected 12 steps, got {len(recs)}"
for i, r in enumerate(recs):
    assert need <= set(r), f"missing keys: {need - set(r)}"
    assert r["step"] == i + 1
    assert r["driver"] == "castro"
print(f"steps.jsonl OK ({len(recs)} records)")
EOF

echo "== service smoke (multi-tenant job runtime) =="
# Mixed tenant population over the two-node pool: a rigged-to-fail burn
# must be contained to its own job, the high-priority arrival must
# checkpoint-preempt somebody, the report JSON must carry the full
# schema, and every job's steps.jsonl must have exactly steps_done
# records with contiguous 1-based ordinals — including the tenants that
# were preempted, migrated, and resumed mid-run.
rm -rf /tmp/service_jobs
cargo run --release --offline --example service -- \
  --report /tmp/service_report.json --jsonl-dir /tmp/service_jobs \
  | tee /tmp/service_smoke.log
grep -q "SERVICE OK" /tmp/service_smoke.log
python3 - <<'EOF'
import json, pathlib
r = json.load(open("/tmp/service_report.json"))
need = {"wall_s", "submitted", "rejected", "completed", "failed",
        "preemptions", "queue_peak", "queue_bound", "total_ranks",
        "rank_utilization", "jobs_per_hour", "latency_p50_s",
        "latency_p99_s", "jobs"}
assert need <= set(r), f"report missing keys: {need - set(r)}"
assert r["completed"] == 5 and r["failed"] == 1, (r["completed"], r["failed"])
assert r["preemptions"] >= 1, "high-priority arrival must have preempted"
jneed = {"id", "scenario", "network", "priority", "resolution", "nodes",
         "ranks", "steps_done", "steps_requested", "outcome", "preemptions",
         "latency_s", "deadline_met", "ckpt_every", "final_digest",
         "sim_us", "zones", "step_records"}
failed = [j for j in r["jobs"] if j["outcome"] == "failed"]
assert len(failed) == 1 and "error" in failed[0], failed
drivers = {"sedov_blast": "castro", "wd_collision": "castro",
           "xrb_flame": "castro", "reacting_bubble": "maestro"}
for j in r["jobs"]:
    assert jneed <= set(j), f"{j['id']}: missing {jneed - set(j)}"
    if j["outcome"] == "completed":
        assert j["steps_done"] == j["steps_requested"], j
    path = pathlib.Path("/tmp/service_jobs") / f"{j['id']}.steps.jsonl"
    assert path.exists(), f"missing per-job stream {path}"
    recs = [json.loads(l) for l in open(path)]
    assert len(recs) == j["steps_done"], (
        f"{j['id']}: {len(recs)} records vs {j['steps_done']} steps")
    for i, rec in enumerate(recs):
        assert rec["step"] == i + 1, f"{j['id']}: ordinal gap at {i}"
        assert rec["driver"] == drivers[j["scenario"]], rec
high = [j for j in r["jobs"] if j["priority"] == "high"]
assert high and high[0]["deadline_met"] is True, high
print(f"service report OK ({len(r['jobs'])} jobs, "
      f"{r['preemptions']} preemption(s), 1 contained failure)")
EOF

echo "== chaos smoke (self-healing under node failures) =="
# The chaos drill arms the seeded NodeFaultModel (node kills with repair
# plus a straggler wave) over a mixed tenant population: the run must
# show real failures and recoveries, and every completed job's digest is
# checked in-process against a fault-free solo run — zero corruption.
cargo run --release --offline --example chaos -- \
  --report /tmp/chaos_report.json --events /tmp/chaos_events.jsonl \
  | tee /tmp/chaos_smoke.log
grep -q "CHAOS OK" /tmp/chaos_smoke.log
python3 - <<'EOF'
import json
r = json.load(open("/tmp/chaos_report.json"))
need = {"wall_s", "submitted", "completed", "failed", "quarantined",
        "node_failures", "lease_revocations", "recoveries",
        "straggler_migrations", "total_ranks", "ranks_in_service", "jobs"}
assert need <= set(r), f"chaos report missing keys: {need - set(r)}"
assert r["node_failures"] >= 3, r["node_failures"]
assert r["lease_revocations"] >= 1 and r["recoveries"] >= 1, (
    r["lease_revocations"], r["recoveries"])
assert r["straggler_migrations"] >= 1, r["straggler_migrations"]
assert r["failed"] == 0, "chaos must never surface as a driver failure"
jneed = {"id", "outcome", "recoveries", "migrations", "final_digest",
         "steps_done", "steps_requested"}
for j in r["jobs"]:
    assert jneed <= set(j), f"{j['id']}: missing {jneed - set(j)}"
    assert j["outcome"] in ("completed", "quarantined"), j
    if j["outcome"] == "completed":
        assert j["steps_done"] == j["steps_requested"], j
    else:
        assert j.get("reason"), f"{j['id']}: quarantine needs a reason"
recovered = [j for j in r["jobs"] if j["recoveries"] > 0]
assert recovered, "at least one job must have recovered from a node kill"
print(f"chaos report OK ({len(r['jobs'])} jobs, {r['node_failures']} kill(s), "
      f"{r['recoveries']} recovery(ies), {r['straggler_migrations']} migration(s))")

# The structured event log: schema-valid line by line, and its derived
# counts must agree with the report (the exact-reproduction guarantee
# lives in crates/service/tests/events.rs; this smoke cross-checks the
# example's artifact).
kinds_seen = {}
events = []
prev_sim = -1.0
for line in open("/tmp/chaos_events.jsonl"):
    e = json.loads(line)
    events.append(e)
    assert e["schema"] == "exastro.event.v1", e
    for k in ("sim_us", "tick", "kind"):
        assert k in e, f"event missing {k}: {e}"
    assert e["sim_us"] >= prev_sim, "event timestamps must be nondecreasing"
    prev_sim = e["sim_us"]
    kinds_seen[e["kind"]] = kinds_seen.get(e["kind"], 0) + 1
for need_kind in ("admit", "lease", "start", "checkpoint", "node_fail",
                  "revoke", "recover"):
    assert kinds_seen.get(need_kind), f"no {need_kind} events in the storm"
assert kinds_seen["node_fail"] == r["node_failures"]
assert kinds_seen["revoke"] == r["lease_revocations"]
assert kinds_seen["recover"] == r["recoveries"]
assert kinds_seen.get("migrate", 0) == r["straggler_migrations"]
for e in events:
    if e["kind"] == "recover":
        assert e.get("mttr_s") is not None, "recover must carry mttr_s"
    if e["kind"] == "revoke":
        assert e.get("lost_steps") is not None, "revoke must price lost work"
    if e["kind"] == "start":
        assert e.get("queue_wait_s") is not None
terminal = [e for e in events
            if e["kind"] in ("complete", "fail", "quarantine")]
assert len(terminal) == len(r["jobs"]), (len(terminal), len(r["jobs"]))
print(f"chaos_events.jsonl OK ({len(events)} events, "
      f"{len(kinds_seen)} kinds: {sorted(kinds_seen)})")
EOF

echo "== task-graph overlap ablation smoke (test mode) =="
# The tentpole's ablation: the modeled 512-node efficiency with the
# overlapped exchange must beat bulk-synchronous stepping, and the real
# graph-overlapped Castro advance (bit-identical results, asserted in the
# castro tests) must not be slower than sync beyond noise.
cargo bench --offline -p exastro-bench --bench ablation_taskgraph -- --test >/tmp/taskgraph_smoke.log
python3 - <<'EOF'
import json
d = json.load(open("BENCH_taskgraph.json"))
assert d["bench"] == "taskgraph", d
by = {m["label"]: m["value"] for m in d["metrics"]}
for need in ("taskgraph/overlap_efficiency", "taskgraph/sync_efficiency",
             "taskgraph/efficiency_gain",
             "taskgraph/scheduler_overhead_us_per_task",
             "taskgraph/wall_speedup_sedov32",
             "taskgraph/measured_overlap_eff", "taskgraph/model_drift"):
    assert need in by, f"missing {need} in {sorted(by)}"
assert by["taskgraph/overlap_efficiency"] > by["taskgraph/sync_efficiency"], (
    "overlap must improve modeled 512-node efficiency")
assert by["taskgraph/efficiency_gain"] > 1.0
assert by["taskgraph/scheduler_overhead_us_per_task"] < 100.0, (
    "scheduler overhead implausibly high")
assert by["taskgraph/wall_speedup_sedov32"] > 0.7, (
    "graph-overlapped advance should not be drastically slower than sync")
assert 0.0 <= by["taskgraph/measured_overlap_eff"] <= 1.0, (
    "measured overlap efficiency is a fraction")
# model_drift's tolerance band is asserted in
# crates/bench/tests/overlap_reconcile.rs; the artifact just records it.
print(f"BENCH_taskgraph.json OK ({len(d['metrics'])} metrics)")
EOF

echo "== perf gate (deterministic scaling curves vs committed baselines) =="
# fig2/fig3 throughputs come from the machine performance model, so they
# are bit-reproducible; any drop beyond tolerance is a real regression.
# The service bench adds scheduler throughput (jobs/hour) against a
# deliberately conservative floor.
cargo bench --offline -p exastro-bench --bench fig2_sedov_weak_scaling -- --test >/tmp/fig2_smoke.log
cargo bench --offline -p exastro-bench --bench fig3_bubble_weak_scaling -- --test >/tmp/fig3_smoke.log
cargo bench --offline -p exastro-bench --bench service -- --test >/tmp/service_bench_smoke.log
cargo bench --offline -p exastro-bench --bench chaos -- --test >/tmp/chaos_bench_smoke.log
# Telemetry overhead (including graph tracing) regenerates
# BENCH_telemetry.json; its baseline gates the overhead percentages
# against an absolute 2% ceiling ("max" rule in perf_gate.py).
cargo bench --offline -p exastro-bench --bench ablation_telemetry -- --test >/tmp/telemetry_smoke.log
python3 - <<'EOF'
import json
d = json.load(open("BENCH_service.json"))
assert d["bench"] == "service", d
by = {m["label"]: m["value"] for m in d["metrics"]}
for need in ("service/jobs_per_hour", "service/latency_p50",
             "service/latency_p99", "service/rank_utilization_2x_oversub",
             "service/queue_peak", "service/preemptions"):
    assert need in by, f"missing {need} in {sorted(by)}"
assert by["service/jobs_per_hour"] > 0
assert by["service/preemptions"] > 0, "the bench's high wave must preempt"
assert 0.0 < by["service/rank_utilization_2x_oversub"] <= 1.0
print(f"BENCH_service.json OK ({len(d['metrics'])} metrics)")
c = json.load(open("BENCH_chaos.json"))
assert c["bench"] == "chaos", c
cby = {m["label"]: m["value"] for m in c["metrics"]}
for need in ("chaos/goodput_jobs_per_hour", "chaos/completion_rate_immortal",
             "chaos/completion_rate_moderate", "chaos/completion_rate_harsh",
             "chaos/node_failures_moderate", "chaos/recoveries_moderate"):
    assert need in cby, f"missing {need} in {sorted(cby)}"
assert cby["chaos/goodput_jobs_per_hour"] > 0
assert cby["chaos/completion_rate_immortal"] == 1.0, (
    "no failures injected -> everything completes")
assert cby["chaos/node_failures_moderate"] >= 1, (
    "the moderate schedule must actually inject failures")
print(f"BENCH_chaos.json OK ({len(c['metrics'])} metrics)")
EOF
python3 ci/perf_gate.py

echo "== unused-pub report (informational, never fails the build) =="
# Public fns/types/consts in library crates with no user outside their
# defining file except tests: candidates for deletion, not a gate.
python3 ci/unused_pub.py || true

echo "== clippy (deny warnings, deny deprecated) =="
# -D deprecated keeps the repo itself off any deprecated API (the last
# holder, the integrate_with_stats shim, is gone) while external callers
# of a future deprecation get a soft warning.
cargo clippy --workspace --all-targets --offline -- -D warnings -D deprecated

echo "== rustfmt check =="
cargo fmt --all --check

echo "tier-1: OK"
