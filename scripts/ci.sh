#!/usr/bin/env bash
# Local CI gate: everything runs offline against the vendored workspace.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One temp root for every stage's logs and snapshot dirs, and one list of
# background pids; the EXIT trap reaps both. Without this, a client panic
# between launch and `--op shutdown` would orphan the server and wedge the
# next CI run.
tmp="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        if [ -n "$pid" ]; then
            kill "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

# start_server <logfile> <pqo serve args...>
# Starts `pqo serve --listen 127.0.0.1:0 <args>` in the background with its
# output in <logfile>, waits (up to 60 s — a loaded host can be slow to
# build the catalogs and compile a templates dir) for the `listening on ADDR`
# line, and sets `addr` to ADDR and `server_pid` to the registered pid.
start_server() {
    local log="$1"
    shift
    ./target/release/pqo serve --listen 127.0.0.1:0 "$@" >"$log" 2>&1 &
    server_pid=$!
    pids+=("$server_pid")
    addr=""
    for _ in $(seq 1 600); do
        addr="$(sed -n 's/^listening on //p' "$log")"
        [ -n "$addr" ] && return 0
        kill -0 "$server_pid" 2>/dev/null || break
        sleep 0.1
    done
    echo "server never reported its address: pqo serve $*"
    cat "$log"
    exit 1
}

echo "==> cargo build --release (all targets)"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> column statistics golden + candidate search oracle + decision, optimizer and publication goldens + per-thread scratch + snapshot and service storms"
# The serving path's invariants, run (optimized, as served) as their own
# stage so a divergence is named in CI output: every answer of the
# coordinate block store is bitwise identical to a brute-force scan, and its
# candidate stream hands out, row for row, a stable sort by key and the
# eager top-k it replaced; the two builds of the cached decision (the
# portable one and the AVX2 one the CPU picks) decide alike at every
# decision of the corpus and bigjoin streams; the cached path allocates
# nothing with a warm scratch, nor does a service hit; the decision streams
# hash to tests/fixtures/decision_stream.golden, the optimizer's results to
# tests/fixtures/optimizer_plans.golden (also through the bounded optimizer
# call, under the bounds a cost check hands it) and the bytes a cache is
# saved and replicated as to tests/fixtures/publication_bytes.golden; a warm
# optimizer call allocates nothing when its winner is known, only its plan
# when it is new, and a publication nothing that grows with the instance
# list; one thread's scratch serves same-arity templates through dropped and
# rebuilt services; λ holds on every stream of the guarantee, Theorem 1 and
# fuzz suites, which carry it across every list length now that one
# nearest-first candidate search serves them all. The snapshot and service
# storms and pqo-core's own tests run here too: a thread decides from the
# shard and generation it kept, checked by one atomic pointer compare, and
# generations share append-only row slots, so the interleavings that matter
# are the optimized build's. Then the optimizer's own oracles, optimized as
# served: the prepared search against the reference loop, and the bounded
# search against the unbounded one at every kind of bound. The column
# statistics come first: every selectivity a decision uses comes from these
# bytes, so the shipped catalogs' histograms hash to
# tests/fixtures/catalog_stats.golden, and the rank selection that builds
# them equals the full stable sort on every kind of column.
cargo test -q --offline --release --test catalog_stats --test spatial_oracle --test decide_builds \
    --test decide_alloc --test decision_golden --test optimizer_golden --test optimize_alloc \
    --test scratch_identity --test publication_golden --test publish_alloc \
    --test guarantee --test theorem1 --test scr_fuzz \
    --test snapshot_stress --test service_stress
cargo test -q --offline --release -p pqo-core --lib
cargo test -q --offline --release -p pqo-optimizer --lib

echo "==> server suites, optimized (poller contract + loopback + replication, release)"
# The wire path as it is served: the readiness contract both pollers answer
# to (epoll, and poll(2), which on Linux is compiled for this test only),
# the loopback oracle storm, the split GET_PLAN path's ordering /
# pool-count / decide-once / dead-primary tests and the replica fleet,
# under --release, where a timing-dependent interleaving differs most from
# the debug run above.
cargo test -q --offline --release -p pqo-server --lib --test loopback --test replication

echo "==> microbench smoke (quick mode: the paper microbenches)"
# Running the harness=false bench binaries (getplan_checks,
# recost_vs_optimize, optimizer_scaling, technique_throughput) through
# `cargo test` omits the --bench flag, so each executes once in quick smoke
# mode — catching bench bit-rot without paying for full measurement.
cargo test -q --offline -p pqo-bench --benches

echo "==> network serving smoke (loopback server + client oracle diff)"
# End-to-end over a real socket: start the TCP server on an ephemeral
# port, replay a seeded workload through `pqo client --check true` (which
# diffs every wire decision against an in-process SCR oracle), then
# exercise graceful shutdown and verify the cache snapshot was flushed.
net_tmp="$tmp/net"
mkdir "$net_tmp"
start_server "$net_tmp/server.log" --template tpch_skew_A_d2 --snapshot-dir "$net_tmp"
./target/release/pqo client --connect "$addr" \
    --template tpch_skew_A_d2 --m 300 --batch 8 --check true \
    | grep "oracle check        : OK"
./target/release/pqo client --connect "$addr" --op shutdown
wait "$server_pid"
[ -s "$net_tmp/tpch_skew_A_d2.pqo-cache" ] \
    || { echo "graceful shutdown did not flush the cache snapshot"; exit 1; }
grep -q "snapshots flushed   : 1" "$net_tmp/server.log" \
    || { echo "server exit summary missing snapshot flush"; cat "$net_tmp/server.log"; exit 1; }

echo "==> high-connection smoke (256 idle + 8 active checked clients)"
# The event-loop core must keep serving while hundreds of idle sockets sit
# in the readiness set: hold 256 raw idle connections, then run 8 oracle-
# checked clients (one per template) through the same server, and verify
# graceful shutdown still flushes every snapshot.
hc_tmp="$tmp/hc"
mkdir "$hc_tmp"
hc_ids="tpch_skew_A_d2,tpch_skew_B_d2,tpch_skew_C_d2,tpch_skew_D_d2,tpch_skew_F_d2,tpcds_V_d2,tpcds_G_d2,tpcds_G_d3"
start_server "$hc_tmp/server.log" --template "$hc_ids" --snapshot-dir "$hc_tmp" \
    --max-conns 300 --workers 2
./target/release/pqo client --connect "$addr" --op idle \
    --conns 256 --hold-ms 120000 > "$hc_tmp/idle.log" 2>&1 &
idle_pid=$!
pids+=("$idle_pid")
for _ in $(seq 1 100); do
    grep -q "holding 256 idle connections" "$hc_tmp/idle.log" && break
    sleep 0.1
done
grep -q "holding 256 idle connections" "$hc_tmp/idle.log" \
    || { echo "idle holder never connected"; cat "$hc_tmp/idle.log"; exit 1; }
for id in ${hc_ids//,/ }; do
    ./target/release/pqo client --connect "$addr" \
        --template "$id" --m 120 --batch 4 --check true \
        | grep "oracle check        : OK" \
        || { echo "oracle check failed for $id under idle load"; exit 1; }
done
./target/release/pqo client --connect "$addr" --op shutdown
wait "$server_pid"
kill "$idle_pid" 2>/dev/null || true
for id in ${hc_ids//,/ }; do
    [ -s "$hc_tmp/$id.pqo-cache" ] \
        || { echo "snapshot missing for $id after graceful drain"; exit 1; }
done
grep -q "snapshots flushed   : 8" "$hc_tmp/server.log" \
    || { echo "hc exit summary missing snapshot flushes"; cat "$hc_tmp/server.log"; exit 1; }
hc_peak="$(sed -n 's/^peak connections    : //p' "$hc_tmp/server.log")"
[ -n "$hc_peak" ] && [ "$hc_peak" -ge 257 ] \
    || { echo "peak connections ${hc_peak:-?} < 257: idle sockets not held"; cat "$hc_tmp/server.log"; exit 1; }

echo "==> replication smoke (primary + replica, primary killed mid-run)"
# Two real processes over loopback: a primary and a replica subscribed to
# its generation log. The oracle-checked workload flows through the
# *replica* (hits served from its applied generation, misses forwarded),
# then the primary is killed hard and the replica must keep serving its
# last applied generation — same plan, no re-optimization, no crash.
repl_tmp="$tmp/repl"
mkdir "$repl_tmp"
repl_id="tpch_skew_B_d2"
start_server "$repl_tmp/primary.log" --template "$repl_id" --primary
paddr="$addr" repl_ppid="$server_pid"
start_server "$repl_tmp/replica.log" --template "$repl_id" --replica-of "$paddr"
raddr="$addr" repl_rpid="$server_pid"
grep -q "role: replica of" "$repl_tmp/replica.log" \
    || { echo "replica did not announce its role"; cat "$repl_tmp/replica.log"; exit 1; }
# The wire decision stream through the replica must equal the in-process
# oracle — the location-transparency guarantee, end to end over TCP.
./target/release/pqo client --connect "$raddr" \
    --template "$repl_id" --m 200 --batch 4 --check true \
    | grep "oracle check        : OK" \
    || { echo "oracle check through the replica failed"; exit 1; }
# Warm one specific instance through the replica (forwarded to the primary
# and applied locally before the reply), remembering the plan it got...
./target/release/pqo client --connect "$raddr" \
    --template "$repl_id" --op plan --sel 0.42,0.61 > "$repl_tmp/before.txt"
./target/release/pqo client --connect "$raddr" \
    --op follow-lag --template "$repl_id" --count 1 | grep -q " lag 0 " \
    || { echo "replica still lagging after checked workload"; exit 1; }
# ...then kill the primary hard: the replica must keep serving the same
# plan from its last applied generation, without re-optimizing.
kill -9 "$repl_ppid" 2>/dev/null || true
wait "$repl_ppid" 2>/dev/null || true
./target/release/pqo client --connect "$raddr" \
    --template "$repl_id" --op plan --sel 0.42,0.61 > "$repl_tmp/after.txt"
diff <(grep '^plan' "$repl_tmp/before.txt") <(grep '^plan' "$repl_tmp/after.txt") \
    || { echo "replica changed its plan after primary death"; cat "$repl_tmp/after.txt"; exit 1; }
grep -q "optimized : false" "$repl_tmp/after.txt" \
    || { echo "replica re-optimized a warm instance after primary death"; cat "$repl_tmp/after.txt"; exit 1; }
./target/release/pqo client --connect "$raddr" --op shutdown
wait "$repl_rpid"
grep -Eq "generations applied : [1-9]" "$repl_tmp/replica.log" \
    || { echo "replica exit summary shows no applied generations"; cat "$repl_tmp/replica.log"; exit 1; }

echo "==> sql-frontend smoke (templates-dir serving across three dialects)"
# The SQL frontend end to end: serve every committed .sql fixture from
# templates/ (the corpus spans postgres, mysql and duckdb), replay an
# oracle-checked workload against one template per dialect (the client
# compiles the same .sql file into its in-process oracle), and round-trip
# one --op explain, verifying the reply carries dialect-tagged hinted SQL.
# The server flushes a snapshot per template on shutdown, and a second start
# on the same --snapshot-dir must restore every one of them: warm restart of
# --templates-dir templates is tested nowhere else end to end.
sf_tmp="$tmp/sql"
mkdir "$sf_tmp"
start_server "$sf_tmp/server.log" --templates-dir templates --snapshot-dir "$sf_tmp"
sf_compiled="$(grep -c '^compiled ' "$sf_tmp/server.log")"
[ "$sf_compiled" -ge 10 ] \
    || { echo "expected >=10 compiled templates, got ${sf_compiled}"; cat "$sf_tmp/server.log"; exit 1; }
for d in postgres mysql duckdb; do
    grep -q "($d dialect" "$sf_tmp/server.log" \
        || { echo "no $d-dialect template compiled"; cat "$sf_tmp/server.log"; exit 1; }
done
# One oracle-checked client per dialect: the wire decision stream must be
# byte-identical to an in-process SCR fed the same compiled template.
for f in tpch_orders_lineitem tpch_partsupp_mysql rd2_telemetry; do
    ./target/release/pqo client --connect "$addr" \
        --sql-file "templates/$f.sql" --m 150 --batch 4 --check true \
        | grep "oracle check        : OK" \
        || { echo "oracle check failed for templates/$f.sql"; exit 1; }
done
./target/release/pqo client --connect "$addr" \
    --op explain --sql-file templates/tpch_orders_lineitem.sql \
    --sel 0.4,0.7 --dialect mysql > "$sf_tmp/explain.txt"
grep -q -- "-- dialect: mysql" "$sf_tmp/explain.txt" \
    || { echo "explain reply missing mysql dialect header"; cat "$sf_tmp/explain.txt"; exit 1; }
grep -q -- "-- plan: P" "$sf_tmp/explain.txt" \
    || { echo "explain reply missing plan fingerprint"; cat "$sf_tmp/explain.txt"; exit 1; }
grep -q "SELECT" "$sf_tmp/explain.txt" \
    || { echo "explain reply missing rendered SQL"; cat "$sf_tmp/explain.txt"; exit 1; }
./target/release/pqo client --connect "$addr" --op shutdown
wait "$server_pid"
start_server "$sf_tmp/restart.log" --templates-dir templates --snapshot-dir "$sf_tmp"
./target/release/pqo client --connect "$addr" --op shutdown
wait "$server_pid"
# One `restored <stem>` line per `compiled <stem>` line, stem for stem.
diff <(sed -n 's/^compiled \([^ ]*\) .*/\1/p' "$sf_tmp/server.log" | sort) \
    <(sed -n 's/^restored \([^ ]*\) .*/\1/p' "$sf_tmp/restart.log" | sort) \
    || { echo "templates-dir restart did not restore every compiled template"; cat "$sf_tmp/restart.log"; exit 1; }

echo "==> stack benchmark builds (bench/)"
# bench/ is a package of its own that compiles against the crates' public
# API; the pipeline runs it after every PR (BENCHMARK.json). Building it
# here (and testing it, last stage) makes a change to that surface fail in
# CI first.
CARGO_TARGET_DIR="$PWD/target" cargo build --release --offline --manifest-path bench/Cargo.toml

# stackbench_smoke <workload>: a 4 s run whose last line must report every
# output check passed and no request failed.
stackbench_smoke() {
    CARGO_TARGET_DIR="$PWD/target" bash bench/run.sh \
        --workload "$1" --seed 1 --seconds 4 --trace 0 > "$tmp/stackbench.out"
    local result
    result="$(tail -n 1 "$tmp/stackbench.out")"
    case "$result" in
    *'"correct": true,'*'"failed": 0,'*) ;;
    *)
        echo "stack benchmark output checks failed ($1): $result"
        exit 1
        ;;
    esac
}

echo "==> stack benchmark smoke (wire_hit, 4 s, output checks)"
# The one workload that times the network core: every decision that came
# back over the socket — hits answered on the loop thread, the warm-up's
# misses finished by the pool — is replayed through an in-process oracle.
stackbench_smoke wire_hit

echo "==> stack benchmark smoke (embedded_corpus, 4 s, output checks)"
# A short run of the workload that leans on the decide path: every pass must
# decide as the first did and as the sequential technique does. A decision
# drift fails here before it fails in the pipeline.
stackbench_smoke embedded_corpus

echo "==> stack benchmark smoke (embedded_bigjoin, 4 s, output checks)"
# And of the workload that leans on the optimizer call: 62% of its decisions
# run the prepared join search, and each pass is checked the same way.
stackbench_smoke embedded_bigjoin

echo "==> stack benchmark smoke (replica_follow, 4 s, output checks)"
# And of the one workload that runs the primary's delta encode and the
# replica's apply over real sockets: the replica's decisions are checked
# against the primary's stream.
stackbench_smoke replica_follow

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> stack benchmark passes its own tests (bench/)"
# Last, because one of them is expected to fail until ROADMAP item 1 (0)
# lands and every other stage should still report:
# templates::optimizing_a_bench_template_dwarfs_the_corpus asserts that an
# optimizer call on a bench/templates join costs >= 5x one on the corpus'
# widest template. That described the per-call join search; the prepared
# optimizer (DESIGN.md §5d) brought the ratio to 2-3x, and bench/ may not
# change in the PR that claims that gain. It runs, unskipped, and fails this
# script by name.
CARGO_TARGET_DIR="$PWD/target" cargo test -q --offline --manifest-path bench/Cargo.toml

echo "ci: all green"
