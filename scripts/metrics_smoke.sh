#!/usr/bin/env bash
# metrics_smoke.sh — end-to-end scrape check of the observability layer.
#
# Builds hierdet-node, generates a 3-node deployment, launches the three OS
# processes with node 0 serving its pprof/metrics endpoint, scrapes /metrics
# once traffic is flowing, and asserts the Prometheus exposition carries the
# core families of every plane: detector nodes, the scheduler, the timer
# wheel, the cluster ledger, events and the TCP transport. A second phase
# re-runs the deployment with -tenants 2 and asserts the tenant plane's
# families — per-tenant counters, the shared scheduler substrate (plane
# workers, wheel lag histogram, per-tenant mailbox high-water), lease state
# and the mux drop counter — appear with both tenant labels. Localhost only.
#
# Ports are reserved with the bind-read-release trick (scripts/freeport for
# the metrics endpoint, hierdet-node -init for the node ports), which is
# inherently racy: another process can grab a port in the window between
# release and re-bind, and on a shared CI box that window loses now and
# then. Losing it is detectable but not recoverable mid-run — a node that
# failed to bind is dead — so the whole attempt (reserve ports, init,
# launch, scrape) retries with fresh ports under a bounded backoff instead
# of failing the build on the first collision.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
pids=()
stop_nodes() {
    if [ "${#pids[@]}" -gt 0 ]; then
        kill "${pids[@]}" 2>/dev/null || true
        wait "${pids[@]}" 2>/dev/null || true
        pids=()
    fi
}
cleanup() {
    stop_nodes
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/hierdet-node" ./cmd/hierdet-node

# attempt: fresh ports, fresh cluster file, launch, poll for a scrape with
# detections. Returns nonzero on any failure (bind lost, endpoint never
# answered, no detections) so the caller can back off and retry; a lost
# bind surfaces either as "address already in use" in a node log (checked
# each poll, fails the attempt immediately) or as a scrape timeout.
scrape="$workdir/metrics.txt"
metrics_addr=""
# attempt <tenants> <ready-series>: fresh ports, fresh cluster file, launch,
# poll until a scrape carries the ready series with a nonzero value.
attempt() {
    local tenants="$1" ready="$2" metrics_port
    metrics_port=$(go run ./scripts/freeport 2>/dev/null || true)
    if [ -z "$metrics_port" ]; then
        metrics_port=6464
    fi
    metrics_addr="127.0.0.1:$metrics_port"

    "$workdir/hierdet-node" -init -o "$workdir/cluster.json" -n 3 -rounds 200 -phase1 199 -tenants "$tenants"

    "$workdir/hierdet-node" -config "$workdir/cluster.json" -id 0 -pprof "$metrics_addr" >"$workdir/node0.log" 2>&1 &
    pids+=($!)
    "$workdir/hierdet-node" -config "$workdir/cluster.json" -id 1 >"$workdir/node1.log" 2>&1 &
    pids+=($!)
    "$workdir/hierdet-node" -config "$workdir/cluster.json" -id 2 >"$workdir/node2.log" 2>&1 &
    pids+=($!)

    for _ in $(seq 1 75); do
        if curl -fsS "http://$metrics_addr/metrics" >"$scrape" 2>/dev/null &&
            grep -q "$ready" "$scrape"; then
            return 0
        fi
        if grep -l 'address already in use' "$workdir"/node*.log >/dev/null 2>&1; then
            echo "metrics_smoke: a node lost its reserved port (address already in use)" >&2
            return 1
        fi
        sleep 0.2
    done
    echo "metrics_smoke: no scrape with detections after 15s on $metrics_addr" >&2
    return 1
}

max_attempts=5
# run_phase <tenants> <ready-series>: the attempt loop with bounded backoff.
run_phase() {
    local tenants="$1" ready="$2" ok=0 try
    for try in $(seq 1 "$max_attempts"); do
        if attempt "$tenants" "$ready"; then
            ok=1
            break
        fi
        stop_nodes
        if [ "$try" -lt "$max_attempts" ]; then
            echo "metrics_smoke: attempt $try/$max_attempts failed; retrying with fresh ports in ${try}s" >&2
            sleep "$try"
        fi
    done
    if [ "$ok" != 1 ]; then
        echo "metrics_smoke: all $max_attempts attempts failed" >&2
        echo "--- last scrape ---" >&2
        cat "$scrape" >&2 || true
        echo "--- node 0 log ---" >&2
        cat "$workdir/node0.log" >&2
        exit 1
    fi
}

run_phase 1 'hierdet_node_detections_total{node="0"} [1-9]'

# Core series of every plane must be present in the exposition.
for series in \
    'hierdet_node_msgs_in_total{node="0"}' \
    'hierdet_node_intervals_in_total{node="0"}' \
    'hierdet_node_mailbox_depth{node="0"}' \
    'hierdet_sched_workers ' \
    'hierdet_sched_workers_busy ' \
    'hierdet_sched_drains_total ' \
    'hierdet_wheel_tick_seconds ' \
    'hierdet_wheel_entries ' \
    'hierdet_cluster_nodes 1' \
    'hierdet_transport_frames_in_total ' \
    'hierdet_transport_frames_out_total ' \
    'hierdet_transport_dials_total ' \
    'hierdet_latency_observe_to_solution_seconds_bucket' \
    'hierdet_latency_observe_to_solution_seconds_count' \
    'hierdet_events_total{kind="interval_observed"}' \
    'hierdet_events_total{kind="solution_found"}' \
    'hierdet_events_total{kind="report_recv"}'; do
    if ! grep -qF "$series" "$scrape"; then
        echo "metrics_smoke: exposition missing '$series'" >&2
        cat "$scrape" >&2
        exit 1
    fi
done

# Valid exposition shape: every non-comment line is `name{labels} value`.
check_shape() {
    if grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (\+|-)?Inf|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? NaN|$)' "$scrape" >&2; then
        echo "metrics_smoke: malformed exposition lines above" >&2
        exit 1
    fi
}

# Family drift gate: every hierdet_* family in the scrape must be known here.
# A new family passing silently is how exposition drift sneaks past review —
# adding one means adding it to this allowlist (and, if it's load-bearing, to
# the per-series assertions above).
sort >"$workdir/known_families.txt" <<'EOF'
hierdet_cluster_killed_processes
hierdet_cluster_nodes
hierdet_cluster_pending_credits
hierdet_events_total
hierdet_fd_local_pauses_total
hierdet_fd_timeout_seconds
hierdet_latency_observe_to_solution_seconds
hierdet_lease_buckets_owned
hierdet_lease_monitors_live
hierdet_mux_dropped_total
hierdet_node_bad_frames_total
hierdet_node_batch_flushes_total
hierdet_node_child_drops_total
hierdet_node_detections_total
hierdet_node_duplicates_total
hierdet_node_eliminated_total
hierdet_node_heartbeats_total
hierdet_node_intervals_in_total
hierdet_node_mailbox_depth
hierdet_node_mailbox_high_water
hierdet_node_msgs_in_total
hierdet_node_msgs_out_total
hierdet_node_pruned_total
hierdet_node_queue_depth
hierdet_node_queue_high_water
hierdet_node_repairs_total
hierdet_node_reseq_buffered
hierdet_node_reseq_high_water
hierdet_node_stale_reports_total
hierdet_node_vec_comparisons_total
hierdet_plane_busy_workers
hierdet_plane_wheel_entries
hierdet_plane_wheel_lag_seconds
hierdet_plane_wheel_ticks_total
hierdet_plane_workers
hierdet_sched_drain_batch_size
hierdet_sched_drains_total
hierdet_sched_mailbox_bound
hierdet_sched_messages_handled_total
hierdet_sched_runq_depth
hierdet_sched_workers
hierdet_sched_workers_busy
hierdet_tenant_detections_total
hierdet_tenant_intervals_in_total
hierdet_tenant_mailbox_high_water
hierdet_tenant_msgs_in_total
hierdet_tenant_msgs_out_total
hierdet_tenant_owned
hierdet_tenant_repairs_total
hierdet_tenants
hierdet_tenants_evicted_total
hierdet_tenants_registered_total
hierdet_transport_backlog_depth
hierdet_transport_backlog_dropped_total
hierdet_transport_bytes_in_total
hierdet_transport_bytes_out_total
hierdet_transport_corrupt_frames_total
hierdet_transport_dials_total
hierdet_transport_flushes_total
hierdet_transport_frames_in_total
hierdet_transport_frames_out_total
hierdet_transport_peers
hierdet_transport_redelivered_total
hierdet_transport_redelivery_ring
hierdet_transport_redials_total
hierdet_transport_tenant_batches_in_total
hierdet_transport_tenant_batches_out_total
hierdet_transport_tenant_frames_coalesced_total
hierdet_wheel_entries
hierdet_wheel_lag_seconds
hierdet_wheel_tick_seconds
hierdet_wheel_ticks_total
EOF
check_families() {
    grep -oE '^hierdet_[a-z0-9_]+' "$scrape" |
        sed -E 's/_(bucket|sum|count)$//' | sort -u >"$workdir/scraped_families.txt"
    local unknown
    unknown=$(comm -23 "$workdir/scraped_families.txt" "$workdir/known_families.txt")
    if [ -n "$unknown" ]; then
        echo "metrics_smoke: exposition carries unknown families (add them to the allowlist):" >&2
        echo "$unknown" >&2
        exit 1
    fi
}
check_shape
check_families
single_series=$(grep -c '^hierdet_' "$scrape")

# Phase 2: the same 3-process deployment serving two tenants. The scrape now
# comes from the tenant plane's registry: per-tenant families labelled t0/t1,
# the process's lease view and the mux drop counter, with the shared
# transport's families alongside.
stop_nodes
run_phase 2 'hierdet_tenant_detections_total{tenant="t0"} [1-9]'

for series in \
    'hierdet_tenants 2' \
    'hierdet_tenants_registered_total 2' \
    'hierdet_plane_workers ' \
    'hierdet_plane_busy_workers ' \
    'hierdet_plane_wheel_entries ' \
    'hierdet_plane_wheel_ticks_total ' \
    'hierdet_plane_wheel_lag_seconds_bucket' \
    'hierdet_plane_wheel_lag_seconds_count' \
    'hierdet_tenant_mailbox_high_water{tenant="t0"}' \
    'hierdet_tenant_mailbox_high_water{tenant="t1"}' \
    'hierdet_tenant_detections_total{tenant="t0"}' \
    'hierdet_tenant_detections_total{tenant="t1"}' \
    'hierdet_tenant_intervals_in_total{tenant="t0"}' \
    'hierdet_tenant_intervals_in_total{tenant="t1"}' \
    'hierdet_tenant_msgs_in_total{tenant="t0"}' \
    'hierdet_tenant_msgs_out_total{tenant="t1"}' \
    'hierdet_tenant_owned{tenant="t0"} 1' \
    'hierdet_tenant_owned{tenant="t1"} 1' \
    'hierdet_lease_buckets_owned{monitor="node-0"} 256' \
    'hierdet_lease_monitors_live 1' \
    'hierdet_mux_dropped_total 0' \
    'hierdet_transport_frames_in_total ' \
    'hierdet_transport_frames_out_total '; do
    if ! grep -qF "$series" "$scrape"; then
        echo "metrics_smoke: tenant exposition missing '$series'" >&2
        cat "$scrape" >&2
        exit 1
    fi
done
check_shape
check_families

echo "metrics_smoke: OK ($single_series single-tenant + $(grep -c '^hierdet_' "$scrape") tenant-plane hierdet series scraped from $metrics_addr)"
