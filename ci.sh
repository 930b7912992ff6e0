#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. Run locally before pushing;
# CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings =="
# Intra-doc links are checked, so renaming or deleting a type cannot
# leave a broken or ambiguous link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== observability suites =="
# The toggle is process-global, so these live in dedicated test binaries:
# determinism with profiling ON, overhead budget with profiling OFF.
cargo test -q -p xtalk-obs
cargo test -q -p xtalk-sim --test determinism_profile
cargo test -q -p xtalk-sim --test obs_overhead
cargo test -q -p xtalk-serve --test json_props
cargo test -q -p xtalk-charac --test fit_regression
cargo test -q -p xtalk-charac --test exact_characterization

echo "== pass-manager & artifact-cache suites =="
# Content-hash properties, golden determinism against the pre-refactor
# compile flow, and the obs-verified zero-redundant-prefix acceptance
# test (the last owns the process-global obs toggle, hence its own
# binary). The pass suite runs again in release, where the debug-only
# re-stream behind every memoized circuit key is compiled out, so the
# memo proptests alone catch a missed invalidation.
cargo test -q -p xtalk-pass
cargo test -q --release -p xtalk-pass
cargo test -q -p xtalk-core --test pass_determinism
cargo test -q -p xtalk-core --test compare_cache_obs

echo "== benchmark harness tests, XtalkSched search, characterization & serving identity =="
# The benchmark harness is a package of its own (empty [workspace]), so
# the workspace stages above neither build nor test it.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
# XtalkSched's search must stay bit-identical: seed 1's exact counts
# (leaves, candidate pairs, complete searches, cache traffic and the
# Eq. 17 gain sum over 1506 compiles) are pinned.
pinned_exact="exact compiles_per_pass=1506 sched.xtalk.leaves=45572 sched.xtalk.candidate_pairs=9259 sched.xtalk.complete=320 pass.cache_hits=3012 pass.cache_misses=3012 xtalk_gain_sum=4031.167459635665"
bench_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload compile_mix --seed 1 --seconds 3 --trace 0)"
exact="$(echo "$bench_out" | grep '^exact ' | head -n1)"
[ "$exact" = "$pinned_exact" ] || {
    echo "compile_mix exact counts moved:"; echo "  got:    $exact"; echo "  pinned: $pinned_exact"; exit 1;
}
# Characterization must stay bit-identical too: seed 1's exact counts
# (experiments, bins, simulated shots, recall and the digest of every
# measured error rate) are pinned, so an executor or RB change that moves
# a single count fails here.
pinned_charac="exact charac.experiments=71 charac.bins=86 sim.shots=123840 charac_recall=14/15 charac_false_pairs=0 charac_digest=5498464a9ce3ba29"
charac_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload charac_daily --seed 1 --seconds 3 --trace 0)"
charac_exact="$(echo "$charac_out" | grep '^exact ' | head -n1)"
[ "$charac_exact" = "$pinned_charac" ] || {
    echo "charac_daily exact counts moved:"; echo "  got:    $charac_exact"; echo "  pinned: $pinned_charac"; exit 1;
}
# Seed 2 starts on another day with other RB seeds, so sequence synthesis
# and the executor are checked on a second set of device-days.
pinned_charac2="exact charac.experiments=71 charac.bins=87 sim.shots=125280 charac_recall=13/14 charac_false_pairs=0 charac_digest=36f9b086ab24ca50"
charac_out2="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload charac_daily --seed 2 --seconds 3 --trace 0)"
charac_exact2="$(echo "$charac_out2" | grep '^exact ' | head -n1)"
[ "$charac_exact2" = "$pinned_charac2" ] || {
    echo "charac_daily seed 2 exact counts moved:"; echo "  got:    $charac_exact2"; echo "  pinned: $pinned_charac2"; exit 1;
}
# The CLI's one-hop policy runs unpacked SRB pairs, a path the binpacked
# charac_daily pins do not take: its whole report is pinned.
pinned_onehop="$(cat <<'PIN'
characterizing ibmq_johannesburg with policy `Opt 1: One hop`…
44 experiments over 44 pairs (28160 executions; 0.01 h at this scale)
detected high-crosstalk pairs (>3x):
  CX5,10 | CX6,7: E(CX5,10)=0.0147, E(CX5,10|CX6,7)=0.0688
  CX7,12 | CX8,9: E(CX7,12)=0.0349, E(CX7,12|CX8,9)=0.1718
  CX7,12 | CX10,11: E(CX7,12)=0.0349, E(CX7,12|CX10,11)=0.1348
  CX9,14 | CX12,13: E(CX9,14)=0.0121, E(CX9,14|CX12,13)=0.0334
PIN
)"
onehop_out="$(target/release/xtalk characterize --device johannesburg --policy onehop \
    --seqs 2 --shots 64 --seed 3)"
[ "$onehop_out" = "$pinned_onehop" ] || {
    echo "xtalk characterize --policy onehop moved:"; echo "$onehop_out"; exit 1;
}
# Serving must stay bit-identical too: seed 1's exact counts (requests
# per load phase, simulated shots, requests served and jobs answered) are
# pinned, so a change to the serve path's contexts, caches or snapshots
# that moves a single reply fails here.
pinned_serve="exact requests_per_phase=19,135,135,19,135,135,15,135,135,16,135,135,12,135,135,17,135,135,5,7,7,12 sim.shots=3339639 server.requests=1749 server.jobs_ok=1663"
serve_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve_mixed --seed 1 --seconds 3 --trace 0)"
serve_exact="$(echo "$serve_out" | grep '^exact ' | head -n1)"
[ "$serve_exact" = "$pinned_serve" ] || {
    echo "serve_mixed exact counts moved:"; echo "  got:    $serve_exact"; echo "  pinned: $pinned_serve"; exit 1;
}

echo "== XtalkSched search oracle in release =="
# Release builds wrap integer overflow silently, so gap, head and tail
# arithmetic that went wrong only there would reach the pinned line
# unexplained: the search's oracle suite runs in release too.
cargo test -q --release -p xtalk-core --lib sched::xtalk
# The exact backend's χ² gate against the all-trajectory reference runs
# in release too.
cargo test -q --release -p xtalk-sim --lib exact_tables_pass_a_chi_square_test

echo "== XtalkSched engine agreement =="
# The lazy branch-and-bound and the eager SMT encoding must reach equal
# costs on the SWAP paths (the binary asserts it).
cargo run -q -p xtalk-bench --release --bin ablation_xtalksched > /dev/null

echo "== xtalk compare cache smoke =="
# The compare verb compiles one circuit under all three schedulers over
# a shared artifact cache: the scheduler-independent prefix must be
# reused (fixed hit/miss ledger) and the whole report must be
# bit-identical across repeated runs.
compare_qasm="$(mktemp --suffix=.qasm)"
printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n' > "$compare_qasm"
compare_a="$(target/release/xtalk compare "$compare_qasm" --device poughkeepsie)"
compare_b="$(target/release/xtalk compare "$compare_qasm" --device poughkeepsie)"
[ "$compare_a" = "$compare_b" ] || { echo "compare is nondeterministic across runs"; exit 1; }
echo "$compare_a" | grep -q "artifact cache: 5 hits, 7 misses" \
    || { echo "compare did not share the pass prefix:"; echo "$compare_a"; exit 1; }
rm -f "$compare_qasm"

echo "== xtalk run pin =="
# The executor must stay bit-identical end to end: a 6-qubit GHZ at 4096
# shots goes through the budgeted claims (64 shots, then work-sized
# ranges of up to 4096, split evenly between threads) and must print
# exactly the pinned report at 1, 2 and 4 threads and under an ample
# budget. Its one component takes the exact backend: each shot is one
# draw from the evolved outcome table.
ghz_qasm="$(mktemp --suffix=.qasm)"
printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[6];\ncreg c[6];\nh q[0];\n' > "$ghz_qasm"
for q in 0 1 2 3 4; do printf 'cx q[%d],q[%d];\n' "$q" "$((q + 1))" >> "$ghz_qasm"; done
for q in 0 1 2 3 4 5; do printf 'measure q[%d] -> c[%d];\n' "$q" "$q" >> "$ghz_qasm"; done
pinned_run="$(cat <<'PIN'
ibmq_poughkeepsie | scheduler XtalkSched | makespan 2916 ns | 4096/4096 shots
  000000: 1284 (0.313)
  111111: 1218 (0.297)
  111110: 153 (0.037)
  000010: 115 (0.028)
  000100: 115 (0.028)
  111101: 115 (0.028)
  000001: 113 (0.028)
  111011: 93 (0.023)
  001000: 90 (0.022)
  110111: 90 (0.022)
  100000: 88 (0.021)
  011111: 86 (0.021)
  101111: 67 (0.016)
  010000: 58 (0.014)
  111100: 42 (0.010)
  110000: 32 (0.008)
PIN
)"
for run_args in "--threads 1" "--threads 2" "--threads 4" "--threads 1 --budget-ms 60000"; do
    # `$run_args` is unquoted so its flags split into words.
    run_out="$(target/release/xtalk run "$ghz_qasm" --device poughkeepsie --shots 4096 \
        $run_args)"
    [ "$run_out" = "$pinned_run" ] || {
        echo "xtalk run counts moved at $run_args:"; echo "$run_out"; exit 1;
    }
done
# A dead budget still runs every stage through the one compiler: the
# prefix completes, the search falls back, and the run reports 0 shots.
pinned_dead="$(cat <<'PIN'
(search truncated by budget after 0 leaves; using crosstalk-unaware fallback)
ibmq_poughkeepsie | scheduler XtalkSched | makespan 2916 ns | 0/4096 shots
(budget exhausted: deadline; counts cover the completed prefix of shots)
PIN
)"
dead_out="$(target/release/xtalk run "$ghz_qasm" --device poughkeepsie --shots 4096 \
    --threads 1 --budget-ms 0)"
[ "$dead_out" = "$pinned_dead" ] || {
    echo "xtalk run under a dead budget moved:"; echo "$dead_out"; exit 1;
}
rm -f "$ghz_qasm"
# A mid-circuit measurement keeps its component on the trajectory
# backend, whose counts must not move at all: this report is the one the
# executor printed before the exact backend existed, at 1, 2 and 4
# threads.
mid_qasm="$(mktemp --suffix=.qasm)"
printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\nmeasure q[1] -> c[0];\ncx q[1],q[2];\nh q[0];\nmeasure q[0] -> c[1];\nmeasure q[2] -> c[2];\n' > "$mid_qasm"
pinned_mid="$(cat <<'PIN'
ibmq_poughkeepsie | scheduler XtalkSched | makespan 2871 ns | 4096/4096 shots
  111: 881 (0.215)
  000: 877 (0.214)
  010: 861 (0.210)
  101: 859 (0.210)
  110: 158 (0.039)
  011: 156 (0.038)
  001: 154 (0.038)
  100: 150 (0.037)
PIN
)"
for threads in 1 2 4; do
    mid_out="$(target/release/xtalk run "$mid_qasm" --device poughkeepsie --shots 4096 \
        --threads "$threads")"
    [ "$mid_out" = "$pinned_mid" ] || {
        echo "xtalk run trajectory counts moved at $threads threads:"; echo "$mid_out"; exit 1;
    }
done
rm -f "$mid_qasm"

echo "== xtalk profile smoke =="
# End-to-end: the profiled pipeline must emit a snapshot that parses as
# JSON and covers every instrumented stage.
snapshot="$(mktemp)"
target/release/xtalk profile fig5 --seed 3 --shots 128 --threads 2 > "$snapshot"
target/release/xtalk profile-check "$snapshot"
# perfbench's sim.run_ms and sim.shots_per_s rows read the executor's two
# entry spans by name: a rename must fail here, not zero those rows. The
# exact backend's evolution span must be there too: the hot-region GHZ
# and the SWAP tomography circuits are narrow enough to take it.
for span in sim.run_parallel sim.run_budgeted sim.exact_evolve; do
    grep -q "\"name\":\"[^\"]*$span\"" "$snapshot" \
        || { echo "profile snapshot has no $span span"; exit 1; }
done
# The sharing counters are checked too: a snapshot claiming more state
# updates than shot-steps must be rejected.
sed 's/"sim.group_steps","value":[0-9]*/"sim.group_steps","value":999999999999/' \
    "$snapshot" > "$snapshot.bad"
if target/release/xtalk profile-check "$snapshot.bad" > /dev/null 2>&1; then
    echo "profile-check accepted sim.group_steps > sim.lane_steps"; exit 1
fi
# XtalkSched's search size is required too: a snapshot with a search span
# but no node counter must be rejected.
sed 's/"sched.xtalk.nodes"/"sched.xtalk.renamed"/' "$snapshot" > "$snapshot.bad"
if target/release/xtalk profile-check "$snapshot.bad" > /dev/null 2>&1; then
    echo "profile-check accepted a search without sched.xtalk.nodes"; exit 1
fi
rm -f "$snapshot" "$snapshot.bad"

echo "== chaos suite =="
# Fault plans are process-global; the suite serializes internally.
cargo test -q -p xtalk-serve --test chaos

echo "== budget & fault-grammar suites =="
# End-to-end deadlines: cooperative cancellation, admission control,
# prefix-deterministic partials; plus the fault-spec grammar properties.
cargo test -q -p xtalk-serve --test budget_chaos
cargo test -q -p xtalk-fault --test spec_props

echo "== xtalk serve --faults smoke =="
# End-to-end chaos: a server with 2% worker deaths and 5% torn codec
# reads (fixed seed — deterministic) must answer every retried submit
# and shut down with a clean summary.
serve_log="$(mktemp)"
target/release/xtalk serve --addr 127.0.0.1:0 --workers 2 \
    --faults "pool.job:panic:0.02,codec.read:err:0.05" --fault-seed 42 \
    > "$serve_log" &
serve_pid=$!
for _ in $(seq 1 50); do
    grep -q "listening on" "$serve_log" && break
    sleep 0.1
done
addr="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$serve_log" | head -n1)"
[ -n "$addr" ] || { echo "serve did not report an address"; cat "$serve_log"; exit 1; }
for i in 1 2 3 4 5 6; do
    target/release/xtalk submit sleep --ms 5 --addr "$addr" \
        --deadline-ms 20000 --retries 15 --retry-seed "$i" > /dev/null
done
target/release/xtalk submit stats --addr "$addr" --deadline-ms 20000 --retries 15 > /dev/null
target/release/xtalk submit shutdown --addr "$addr" --deadline-ms 20000 --retries 15 > /dev/null
wait "$serve_pid"
grep -q "served .* requests" "$serve_log" || { echo "no shutdown summary"; cat "$serve_log"; exit 1; }
rm -f "$serve_log"

echo "== budget e2e smoke =="
# End-to-end deadlines: under an injected 450ms-per-batch executor stall,
# a 400ms budget yields a flagged partial (exactly one 64-shot batch),
# then an ample budget succeeds in full on the same undrained pool.
budget_log="$(mktemp)"
bell_qasm="$(mktemp --suffix=.qasm)"
printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n' > "$bell_qasm"
target/release/xtalk serve --addr 127.0.0.1:0 --workers 1 \
    --faults "sim.batch:delay:1.0:450" --fault-seed 1 \
    > "$budget_log" &
budget_pid=$!
for _ in $(seq 1 50); do
    grep -q "listening on" "$budget_log" && break
    sleep 0.1
done
addr="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$budget_log" | head -n1)"
[ -n "$addr" ] || { echo "serve did not report an address"; cat "$budget_log"; exit 1; }
partial="$(target/release/xtalk submit run "$bell_qasm" --addr "$addr" \
    --scheduler par --policy truth --shots 256 --seed 7 --threads 1 \
    --budget-ms 400 --deadline-ms 20000)"
echo "$partial" | grep -q '"budget_exhausted":true' \
    || { echo "tiny budget did not yield a flagged partial: $partial"; exit 1; }
echo "$partial" | grep -q '"shots_completed":64' \
    || { echo "partial is not the expected one-batch prefix: $partial"; exit 1; }
full="$(target/release/xtalk submit run "$bell_qasm" --addr "$addr" \
    --scheduler par --policy truth --shots 64 --seed 7 --threads 1 \
    --budget-ms 60000 --deadline-ms 20000)"
if echo "$full" | grep -q '"budget_exhausted"'; then
    echo "ample budget was wrongly truncated: $full"; exit 1
fi
echo "$full" | grep -q '"shots_completed":64' \
    || { echo "ample budget did not complete: $full"; exit 1; }
target/release/xtalk submit shutdown --addr "$addr" --deadline-ms 20000 > /dev/null
wait "$budget_pid"
grep -q "1 partial" "$budget_log" || { echo "summary missing the partial tally"; cat "$budget_log"; exit 1; }
# The server's job timeout is every job's deadline: under the same stall,
# the same run *without* a budget stops at a 400ms --timeout-ms with the
# same flagged one-batch partial, instead of an error reply while the job
# runs on.
target/release/xtalk serve --addr 127.0.0.1:0 --workers 1 --timeout-ms 400 \
    --faults "sim.batch:delay:1.0:450" --fault-seed 1 \
    > "$budget_log" &
budget_pid=$!
for _ in $(seq 1 50); do
    grep -q "listening on" "$budget_log" && break
    sleep 0.1
done
addr="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$budget_log" | head -n1)"
[ -n "$addr" ] || { echo "serve did not report an address"; cat "$budget_log"; exit 1; }
capped="$(target/release/xtalk submit run "$bell_qasm" --addr "$addr" \
    --scheduler par --policy truth --shots 256 --seed 7 --threads 1 \
    --deadline-ms 20000)"
echo "$capped" | grep -q '"budget_exhausted":true' \
    || { echo "job timeout did not cap an unbudgeted run: $capped"; exit 1; }
echo "$capped" | grep -q '"shots_completed":64' \
    || { echo "capped run is not the expected one-batch prefix: $capped"; exit 1; }
target/release/xtalk submit shutdown --addr "$addr" --deadline-ms 20000 > /dev/null
wait "$budget_pid"
rm -f "$budget_log" "$bell_qasm"

echo "ci: all green"
